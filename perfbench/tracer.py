"""Outside-in tracing of symcone's public functions.

`Tracer` wraps the functions below and rebinds each wrapper everywhere
the package refers to the original: in the defining module, in every
symcone module that imported it by name, and on the `HCone` and
`SetFunction` classes.  Calls between layers are then captured without
editing the package.  The wrappers are bound only while a traced
operation runs.

A span is (name, start, end, parent, op, tag).  Spans stay in memory
and are written out when the run ends.  A span's self time is its
duration minus the durations of its direct children; the root span of
each operation is the benchmark's own code, reported as
`trace.harness_s`, so the self times and the harness time add up to
the traced time of the operation.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

from workloads import SYM_SHAPES, ASYM_SHAPES, shape_key

# (metric prefix, module, attribute); a dotted attribute is a method.
SPANNED = (
    ("cone.extreme_rays", "cone", "extreme_rays"),
    ("cone.psi_p_hrep", "cone", "psi_p_hrep"),
    ("cone.gamma_n_hrep", "cone", "gamma_n_hrep"),
    ("cone.facet_reduction_check", "cone", "facet_reduction_check"),
    ("cone.HCone.contains", "cone", "HCone.contains"),
    ("cone.HCone.row_values", "cone", "HCone.row_values"),
    ("cone.HCone.tight_labels", "cone", "HCone.tight_labels"),
    ("cone.conic_decompose", "cone", "conic_decompose"),
    ("setfn.SetFunction.new", "setfn", "SetFunction.__init__"),
    ("setfn.polymatroid_violation", "setfn", "polymatroid_violation"),
    ("symmetry.to_sym", "symmetry", "to_sym"),
    ("symmetry.symmetrize", "symmetry", "symmetrize"),
    ("symmetry.from_sym", "symmetry", "from_sym"),
    ("symmetry.orbit_labels", "symmetry", "orbit_labels"),
    ("families.family_Un", "families", "family_Un"),
    ("families.random_symmetric_function", "families", "random_symmetric_function"),
    ("families.free_expansion", "families", "free_expansion"),
    ("verify.verify_psi_n", "verify", "verify_psi_n"),
    ("verify.verify_psi_1n1", "verify", "verify_psi_1n1"),
    ("verify.verify_facet_bijection", "verify", "verify_facet_bijection"),
    ("verify.verify_gap", "verify", "verify_gap"),
    ("verify.build_isolation", "verify", "build_isolation"),
    ("verify.check_isolation", "verify", "check_isolation"),
    ("verify.decompose_1n", "verify", "decompose_1n"),
    ("cli.main", "cli", "main"),
)
# Called once per subset in the symmetry code: counted, not spanned.
COUNTED = (("partitions.partition_vector", "partitions", "partition_vector"),)

# Per-shape metrics exist for the rays workload's shapes; every reduced
# cone also counts towards `sym` (some blocks of equal size, so a residual
# block-swap group) or `asym` (pairwise distinct sizes).
SHAPE_KEYS = {shape_key(s) for s in SYM_SHAPES + ASYM_SHAPES}


def _outcome(prefix, result):
    """Per-call value folded into the layer's extra statistic."""
    if prefix == "cone.extreme_rays":
        return len(result)
    if prefix in ("cone.psi_p_hrep", "cone.gamma_n_hrep"):
        return len(result.rows)
    if prefix == "cone.HCone.contains":
        return int(result)
    if prefix == "cone.conic_decompose":
        return int(result.feasible)
    if prefix.startswith("verify."):
        return int(getattr(result, "passed", True) is False)
    return None


def _shape_tag(prefix, args):
    """Block sizes of a reduced cone handed to extreme_rays: its last
    coordinate is the full count tuple."""
    if prefix != "cone.extreme_rays" or not args:
        return None
    coords = getattr(args[0], "coords", None)
    if coords and isinstance(coords[-1], tuple):
        return coords[-1]
    return None


class Tracer:
    def __init__(self, mods):
        self.spans = []  # (name, start, end, parent, op, tag, value)
        self.stack = []
        self.op = None
        self.counted = 0
        self.bindings = []  # (owner, name, original, wrapper)
        for prefix, module, attr in SPANNED + COUNTED:
            self._bind(mods, prefix, module, attr)

    def _bind(self, mods, prefix, module, attr):
        mod = getattr(mods, module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(mod, cls_name)
            original = owner.__dict__[meth]
            self.bindings.append((owner, meth, original, self._wrap(prefix, original)))
            return
        original = getattr(mod, attr)
        wrapper = (self._count(original) if (prefix, module, attr) in COUNTED
                   else self._wrap(prefix, original))
        for name, m in list(sys.modules.items()):
            if name == "symcone" or name.startswith("symcone."):
                for key, val in vars(m).items():
                    if val is original:
                        self.bindings.append((m, key, original, wrapper))

    def _wrap(self, prefix, fn):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            value = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                value = _outcome(prefix, result)
                return result
            except Exception:
                value = 1 if prefix.startswith("verify.") else None
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (prefix, start, end, stack[-1], self.op,
                              _shape_tag(prefix, args), value)

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, fn):
        def wrapper(*args, **kwargs):
            self.counted += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def run(self, op_index, fn):
        """Run one operation traced; returns (result or None, exception or
        None, per-operation statistics)."""
        for owner, name, _, wrapper in self.bindings:
            setattr(owner, name, wrapper)
        first = len(self.spans)
        counted = self.counted
        self.op = op_index
        self.spans.append(None)
        self.stack.append(first)
        result = error = None
        start = perf_counter()
        try:
            result = fn()
        except Exception as exc:  # the caller counts it as a failed op
            error = exc
        end = perf_counter()
        self.stack.pop()
        self.spans[first] = ("harness", start, end, -1, op_index, None, None)
        for owner, name, original, _ in self.bindings:
            setattr(owner, name, original)
        stats = self._aggregate(first)
        stats["partitions.partition_vector.calls"] = self.counted - counted
        return result, error, stats

    def _aggregate(self, first):
        spans = self.spans
        child = {}
        for idx in range(first + 1, len(spans)):
            _, start, end, parent = spans[idx][:4]
            child[parent] = child.get(parent, 0.0) + (end - start)
        stats = {}

        def add(key, amount):
            stats[key] = stats.get(key, 0.0) + amount

        for idx in range(first, len(spans)):
            name, start, end, _, _, tag, value = spans[idx]
            own = (end - start) - child.get(idx, 0.0)
            if name == "harness":
                add("trace.wall_s", end - start)
                add("trace.harness_s", own)
                continue
            add(name + ".calls", 1)
            add(name + ".self_s", own)
            if value is not None:
                add(name + ".value", value)
            if tag is not None:
                if shape_key(tag) in SHAPE_KEYS:
                    add(f"{name}.{shape_key(tag)}.s", own)
                symmetric = len(set(tag)) < len(tag)
                add(name + (".sym.s" if symmetric else ".asym.s"), own)
        return stats

    def write(self, path, start):
        """Write the spans as JSON lines, times relative to `start`."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, s, e, parent, op, tag, _ in self.spans:
                fh.write(json.dumps([name, round(s - start, 7), round(e - start, 7),
                                     parent, op, tag]) + "\n")


def layer_metrics(per_op_means: dict, names) -> dict:
    """Per-layer metrics for one pass from per-operation mean statistics.

    `per_op_means` sums, over operations, each operation's mean
    statistics across its traced executions.  Counters named
    `<prefix>.value` become `rays_out`, `rows_out`, `true_ratio`,
    `feasible_ratio` or `failed` depending on the layer.
    """
    s = per_op_means
    out = {}
    for name in names:
        prefix, _, stat = name.rpartition(".")
        value_sum = s.get(prefix + ".value", 0.0)
        calls = s.get(prefix + ".calls", 0.0)
        if stat in ("rays_out", "rows_out", "failed"):
            out[name] = value_sum
        elif stat.endswith("_ratio") and not name.startswith("trace."):
            out[name] = value_sum / calls if calls else 0.0
        else:
            out[name] = s.get(name, 0.0)
    return out
