"""Show that the benchmark's answer checks catch a wrong answer.

    python3 perfbench/selfcheck.py

For each workload, a few cheap operations run through the same loop as
a benchmark run, first as they are (no failure expected) and then once
per chosen operation with its answer corrupted, which must raise
`failed` to exactly one.  Exits 1 if any check misses.
"""

from __future__ import annotations

import json
import sys

import run
import workloads

# Per workload: the operations to run (key prefixes, first match each),
# and which of them get a corrupted answer.
CASES = {
    "rays": (["rays:2_2", "rays:8"], ["rays:2_2"]),
    "battery": (["psi:2", "gap:2_2", "isolation:1_1/2/0", "expansion:uniform:1,2"],
                ["psi:2", "isolation:1_1/2/0", "expansion:uniform:1,2"]),
    "queries": (["build:gamma:2", "build:psi:2", "member:2:", "decompose:3:",
                 "certificate:4:"],
                ["build:psi:2", "member:2:", "decompose:3:", "certificate:4:"]),
}


def pick(ops, prefixes):
    return [next(op for op in ops if op.key.startswith(p)) for p in prefixes]


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    expected = json.loads((run.HERE / "expected.json").read_text())
    mods = run.Modules()
    ok = True
    for name, (prefixes, targets) in CASES.items():
        subset = pick(workloads.MAKE_OPS[name](mods, run.DEFAULT_SEED, expected), prefixes)
        clean = run.Runner(subset, 0)
        clean.run()
        ok &= clean.failed == 0
        print(f"{name}: clean answers   failed_ratio {clean.failed / clean.attempted:.3f}"
              f"  {clean.errors or ''}")
        for target in targets:
            op = pick(subset, [target])[0]
            original = op.run
            op.run = lambda op=op, original=original: op.corrupt(original())
            runner = run.Runner(subset, 0)
            runner.run()
            op.run = original
            ok &= runner.failed == 1
            print(f"{name}: corrupt {op.key:<24} failed_ratio "
                  f"{runner.failed / runner.attempted:.3f}")
    print("selfcheck " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
