"""symcone benchmark: one workload per run, in one fresh interpreter.

    python3 perfbench/run.py --workload rays|battery|queries|all \
        [--seed 0] [--seconds 30] [--trace 0|1]

Each workload is a fixed list of operations (see workloads.py) driven as
a closed loop: one caller, one operation at a time.  The first pass runs
every operation once; further passes repeat operations that still fit
in `--seconds`.  Every answer is checked exactly, outside the timer.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json: it runs
each operation back to back with its twin on the frozen seed copy of the
package in perfbench/seedref/, and reports the time ratio.  `--trace 1`
runs each operation twice, untraced and traced in alternating order, and
reports the per-layer metrics.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  A result
file stamped with the machine and the inputs goes to perfbench/results/.
`--workload all` runs the three workloads one after another, each in its
own interpreter, and prints one table.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import oracle
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SEED_COPY = HERE / "seedref"  # holds symcone_seed, see README
RESULTS = HERE / "results"
WORKLOADS = ("rays", "battery", "queries")
SETUP_REPEATS = (5, 21)  # at least, at most; more while under SETUP_SECONDS
SETUP_SECONDS = 1.5
MODULES = ("cli", "cone", "families", "partitions", "setfn", "symmetry", "verify")
DEFAULT_SEED = 0
HELD_OUT_SEED = 7


class Modules:
    """The submodules of one copy of the package, freshly imported."""

    def __init__(self, package="symcone"):
        for name in [m for m in sys.modules if m == package or m.startswith(package + ".")]:
            del sys.modules[name]
        importlib.import_module(package)
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"{package}.{name}"))


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(values, q):
    """Nearest-rank percentile (the tail figures; the median interpolates)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def safe_check(op, answer) -> bool:
    try:
        return bool(op.check(answer))
    except Exception:
        return False


class Runner:
    """Closed loop over the operations; collects times and verdicts.

    With `seed_ops` (the same operations on the frozen seed copy), each
    operation runs back to back with its seed twin, alternating which
    goes first; with `tracing`, untraced and traced in the same way."""

    def __init__(self, ops, seconds, tracing=None, seed_ops=None):
        self.ops = ops
        self.seconds = seconds
        self.tracing = tracing
        self.seed_ops = seed_ops
        self.plain = [[] for _ in ops]  # untraced seconds per execution
        self.seed = [[] for _ in ops]
        self.traced = [[] for _ in ops]
        self.stats = [[] for _ in ops]  # per traced execution
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def _record(self, op, answer, error):
        self.attempted += 1
        if error is None and safe_check(op, answer):
            return
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{op.key}: {error!r}" if error else f"{op.key}: wrong answer")

    def _timed(self, op, times):
        start = perf_counter()
        try:
            answer, error = op.run(), None
        except Exception as exc:
            answer, error = None, exc
        times.append(perf_counter() - start)
        self._record(op, answer, error)

    def _plain(self, i):
        self._timed(self.ops[i], self.plain[i])

    def _seed(self, i):
        self._timed(self.seed_ops[i], self.seed[i])

    def _traced(self, i):
        answer, error, stats = self.tracing.run(i, self.ops[i].run)
        self.traced[i].append(stats["trace.wall_s"])
        self.stats[i].append(stats)
        self._record(self.ops[i], answer, error)

    def execute(self, i, count):
        other = self._traced if self.tracing else self._seed if self.seed_ops else None
        if other is None:
            self._plain(i)
        elif count % 2:
            other(i)
            self._plain(i)
        else:
            self._plain(i)
            other(i)

    def run(self):
        start = perf_counter()
        for i in range(len(self.ops)):
            self.execute(i, 0)
        cost = [sum(s[-1] for s in times if s)
                for times in zip(self.plain, self.seed, self.traced)]
        cheapest = min(cost)
        count = 1
        while True:
            for i in range(len(self.ops)):
                left = self.seconds - (perf_counter() - start)
                if left < cheapest:
                    return
                if cost[i] <= left:
                    self.execute(i, count)
            count += 1


def end_to_end(runner, setups) -> tuple:
    """(bounded metrics, unbounded figures).  Each operation is reduced to
    the median of its executions first."""
    per_op = [statistics.median(s) for s in runner.plain]
    seed_wall = sum(statistics.median(s) for s in runner.seed)
    latency = sorted(t * 1000.0 for t, op in zip(per_op, runner.ops) if op.latency)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_ratio": sum(per_op) / seed_wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    unbounded = {
        "wall_s": sum(per_op),
        "seed_wall_s": seed_wall,
        "op_p50_ms": statistics.median(latency),
        "op_p90_ms": percentile(latency, 0.90),
        "op_p99_ms": percentile(latency, 0.99),
    }
    return metrics, unbounded


def per_layer(runner, names) -> dict:
    sums = {}
    for stats in runner.stats:
        for key in {k for s in stats for k in s}:
            sums[key] = sums.get(key, 0.0) + sum(s.get(key, 0.0) for s in stats) / len(stats)
    out = tracer.layer_metrics(sums, names)
    plain = sum(statistics.fmean(p) for p in runner.plain)
    out["trace.overhead_ratio"] = sums["trace.wall_s"] / plain
    return out


def closure_error(metrics) -> float:
    """|sum of self times + harness - traced wall|, relative."""
    parts = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    wall = metrics["trace.wall_s"]
    return abs(parts + metrics["trace.harness_s"] - wall) / wall


def run_one(args, spec) -> int:
    load = os.getloadavg()
    sys.path.insert(0, str(SRC))
    expected = json.loads((HERE / "expected.json").read_text())
    setups = []
    while len(setups) < SETUP_REPEATS[0] or (
            len(setups) < SETUP_REPEATS[1] and sum(setups) < SETUP_SECONDS):
        oracle.mask_counts.cache_clear()  # each set-up starts cold
        start = perf_counter()
        mods = Modules()
        ops = workloads.MAKE_OPS[args.workload](mods, args.seed, expected)
        setups.append(perf_counter() - start)
        gc.collect()  # free the previous set-up's modules before the next

    tracing = seed_ops = None
    if args.trace:
        tracing = tracer.Tracer(mods)
    else:
        sys.path.insert(0, str(SEED_COPY))
        seed_ops = workloads.MAKE_OPS[args.workload](
            Modules("symcone_seed"), args.seed, expected)
    runner = Runner(ops, args.seconds, tracing, seed_ops)
    started = perf_counter()
    runner.run()
    measured = perf_counter() - started

    correct = runner.failed == 0
    notes = {}
    members = [op.expect() for op in ops if op.expect is not None]
    if members:
        notes["in_cone_share"] = sum(members) / len(members)
        recorded = expected["queries"].get(str(args.seed))
        if recorded is not None and sum(members) != recorded["in_cone"]:
            correct = False
            runner.errors.append(f"in-cone count {sum(members)} != recorded {recorded}")

    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        metrics = per_layer(runner, names)
        notes["trace.closure_error"] = closure_error(metrics)
        if notes["trace.closure_error"] > 1e-6:
            correct = False
            runner.errors.append("self times do not add up to the traced wall time")
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics, notes["unbounded"] = end_to_end(runner, setups)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not "
                           "match BENCHMARK.json")

    executions = [len(p) for p in runner.plain]
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": load,
        "commit": git_commit(),
        "ops": len(ops),
        "executions": {"min": min(executions), "max": max(executions),
                       "total": sum(executions)},
        "measured_s": measured,
        "setup_runs_s": setups,
        "failed_ratio": runner.failed / runner.attempted,
        "errors": runner.errors,
        **notes,
        "result": result,
    }
    RESULTS.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{name}.json").write_text(json.dumps(stamp, indent=1) + "\n")
    if tracing is not None:
        tracing.write(RESULTS / f"{args.workload}.spans.jsonl", started)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {len(ops)}  executions {sum(executions)}  "
          f"python {stamp['python']}  nproc {stamp['nproc']}  "
          f"load {load[0]:.2f}  commit {stamp['commit'][:12]}")
    for key in units:
        print(f"  {key:<44} {metrics[key]:>14.6g} {units[key]}")
    print(f"  {'failed_ratio':<44} {stamp['failed_ratio']:>14.6g} 1")
    for key, val in notes.pop("unbounded", {}).items():
        unit = "s" if key.endswith("_s") else "ms"
        print(f"  {key:<44} {val:>14.6g} {unit} (not bounded)")
    for key, val in notes.items():
        print(f"  {key:<44} {val:>14.6g}")
    for err in runner.errors:
        print(f"  error: {err}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own interpreter, one after another."""
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            return proc.returncode or 1
        results[workload] = json.loads(lines[-1])
    print(f"{'metric':<44} " + " ".join(f"{w:>14}" for w in WORKLOADS))
    names = list(results[WORKLOADS[0]]["metrics"])
    for name in names:
        unit = results[WORKLOADS[0]]["metrics"][name]["unit"]
        row = " ".join(f"{results[w]['metrics'][name]['value']:>14.6g}" for w in WORKLOADS)
        print(f"{name + ' (' + unit + ')':<44} {row}")
    row = " ".join(f"{results[w]['failed'] / results[w]['attempted']:>14.6g}"
                   for w in WORKLOADS)
    print(f"{'failed_ratio (1)':<44} {row}")
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items()
                    for k, v in r["metrics"].items()},
    }
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; "
                             f"held-out seed {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "symcone" / "__init__.py").is_file():
        print(f"error: no symcone sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args, json.loads((ROOT / "BENCHMARK.json").read_text()))


if __name__ == "__main__":
    sys.exit(main())
