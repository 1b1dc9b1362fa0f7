"""The three workloads as fixed lists of operations.

Each operation calls into symcone through the module objects passed in
(`mods.cone.psi_p_hrep`, ...), looked up at call time so that the
traced run sees its wrappers.  `run` is the timed part; `check`
compares the answer with the expected one outside the timer, and
`corrupt` damages an answer so the self-check can show that `check`
catches it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracle

# Shapes with two equal blocks keep a residual block-swap symmetry in the
# reduced cone; shapes with pairwise distinct block sizes keep none.
SYM_SHAPES = ((2, 2), (1, 1, 2), (1, 1, 1, 1), (1, 1, 3), (3, 3))
ASYM_SHAPES = ((8,), (1, 5), (2, 3), (1, 7), (1, 8), (1, 9), (2, 4))

GAP_SHAPES = ((2, 2), (2, 3), (3, 3), (1, 1, 2), (1, 2, 2), (2, 2, 2))
MEMBERSHIP_PER_PARTITION = 100
DECOMPOSITIONS_PER_N = 100
CERTIFICATES = 20


@dataclass
class Op:
    key: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    corrupt: Callable[[object], object]
    latency: bool = True  # counted in the op latency percentiles
    expect: Callable[[], object] = None  # reference answer, where one is recorded


def shape_key(parts) -> str:
    return "_".join(str(s) for s in parts)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# rays: `symcone rays --format json` in-process, stdout captured


def rays_ops(mods, seed: int, expected: dict) -> list:
    shapes = list(SYM_SHAPES + ASYM_SHAPES)
    random.Random(f"rays-{seed}").shuffle(shapes)
    ops = []
    for parts in shapes:
        argv = ["rays", "--n", str(sum(parts)), "--partition",
                oracle.partition_literal(parts), "--format", "json"]
        want = expected["rays"][shape_key(parts)]

        def run(argv=argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = mods.cli.main(argv)
            return rc, buf.getvalue()

        def check(ans, want=want):
            rc, out = ans
            return (rc == 0 and _sha256(out) == want["sha256"]
                    and len(json.loads(out)) == want["rays"])

        ops.append(Op(f"rays:{shape_key(parts)}", run, check,
                      lambda ans: (ans[0], ans[1].replace("1", "2", 1))))
    return ops


# ---------------------------------------------------------------------------
# battery: the paper's claim checks at acceptance-criterion sizes


def _verdict_op(key, run) -> Op:
    return Op(key, run, lambda v: v.passed is True,
              lambda v: dataclasses.replace(v, passed=False))


def _isolation_cases() -> list:
    """(parts, context parts, label index): two-block shapes against the
    one-block context for n <= 6, then every cover pair for n <= 5."""
    cases = []
    for n in range(2, 7):
        for parts in oracle.integer_partitions(n):
            if len(parts) == 2:
                cases += [(parts, (n,), i) for i in range(oracle.orbit_count(parts))]
    for n in range(2, 6):
        reps = oracle.integer_partitions(n)
        for parts in reps:
            for ctx in reps:
                if oracle.covers(ctx, parts):
                    cases += [(parts, ctx, i) for i in range(oracle.orbit_count(parts))]
    return cases


def battery_ops(mods, seed: int, expected: dict) -> list:
    verify, partitions, families = mods.verify, mods.partitions, mods.families
    canon = partitions.canonical_partition
    ops = []
    for n in range(2, 8):
        ops.append(_verdict_op(f"psi:{n}", lambda n=n: verify.verify_psi_n(n)))
    for n in range(2, 6):
        ops.append(_verdict_op(f"psi1n1:{n}", lambda n=n: verify.verify_psi_1n1(n)))
    for n in range(1, 7):
        for parts in oracle.integer_partitions(n):
            ops.append(_verdict_op(
                f"bijection:{shape_key(parts)}",
                lambda parts=parts: verify.verify_facet_bijection(canon(parts))))
    for parts in GAP_SHAPES:
        ops.append(_verdict_op(f"gap:{shape_key(parts)}",
                               lambda parts=parts: verify.verify_gap(canon(parts))))
    for parts, ctx, index in _isolation_cases():
        def run(parts=parts, ctx=ctx, index=index):
            p = canon(parts)
            label = mods.symmetry.orbit_labels(p)[index]
            return verify.check_isolation(verify.build_isolation(p, label, canon(ctx)))

        ops.append(_verdict_op(
            f"isolation:{shape_key(parts)}/{shape_key(ctx)}/{index}", run))

    tags = [f"uniform:{m},{n}" for n in (2, 3, 4) for m in range(1, n + 1)]
    tags += [t for n in (2, 3, 4) for t in oracle.family_tags(n)]
    tags.append("gap:2,2")
    for tag in tags:
        def run(tag=tag):
            h = families.build_family(tag)
            phi = families.canonical_expansion(h)
            g = families.free_expansion(h, phi)
            return (mods.setfn.is_matroid(g),
                    families.factor(g, phi).values == h.values, g.values)

        want = functools.cache(lambda tag=tag: oracle.free_expansion_values(
            oracle.family_values(tag)))
        ops.append(Op(f"expansion:{tag}", run,
                      lambda ans, want=want: ans[0] and ans[1] and ans[2] == want(),
                      lambda ans: (False,) + ans[1:]))

    random.Random(f"battery-{seed}").shuffle(ops)
    if len(ops) != expected["battery"]["ops"]:
        raise RuntimeError(f"battery has {len(ops)} ops, expected "
                           f"{expected['battery']['ops']}")
    return ops


# ---------------------------------------------------------------------------
# queries: seeded membership, decomposition and certificate requests


def queries_ops(mods, seed: int, expected: dict) -> list:
    cone, setfn, symmetry = mods.cone, mods.setfn, mods.symmetry
    rng = random.Random(f"queries-{seed}")
    built = {}  # cones built by the build ops, read by the queries after them
    ops = []

    for n in range(2, 7):
        def build_full(n=n):
            built[n] = cone.gamma_n_hrep(setfn.GroundSet(n))
            return built[n]

        ops.append(Op(f"build:gamma:{n}", build_full,
                      lambda c, n=n: c.dim == (1 << n) - 1
                      and len(c.rows) == oracle.elemental_count(n),
                      lambda c: None, latency=False))
        for parts in oracle.integer_partitions(n):
            def build_reduced(parts=parts):
                p = mods.partitions.canonical_partition(parts)
                built[parts] = (p, cone.psi_p_hrep(p))
                return built[parts][1]

            dim = len(oracle.count_tuples(parts))
            ops.append(Op(f"build:psi:{shape_key(parts)}", build_reduced,
                          lambda c, dim=dim, parts=parts: c.dim == dim
                          and len(c.rows) == oracle.orbit_count(parts),
                          lambda c: None, latency=False))
            for j in range(MEMBERSHIP_PER_PARTITION):
                values = oracle.symmetric_point(parts, rng)

                def member(n=n, parts=parts, values=values):
                    p, reduced = built[parts]
                    h = setfn.SetFunction(p.ground, values)
                    return (reduced.contains(symmetry.to_sym(h, p).free_values()),
                            built[n].contains(h.values[1:]),
                            setfn.is_polymatroid(h))

                want = functools.cache(lambda values=values: oracle.is_polymatroid(values))
                ops.append(Op(f"member:{shape_key(parts)}:{j}", member,
                              lambda ans, want=want: ans == (want(),) * 3,
                              lambda ans: (not ans[0],) + ans[1:], expect=want))

    for n in (3, 4, 5):
        parts = (1, n - 1)
        gens = functools.cache(
            lambda n=n: [oracle.family_values(t) for t in oracle.family_tags(n)])
        for j in range(DECOMPOSITIONS_PER_N):
            values = oracle.symmetric_polymatroid(parts, rng)
            ops.append(Op(f"decompose:{n}:{j}",
                          _decompose(mods, n, values),
                          lambda res, values=values, gens=gens:
                          _rebuilds(res, values, gens()),
                          lambda res: dataclasses.replace(
                              res, coefficients=(res.coefficients[0] + 1,)
                              + res.coefficients[1:])))

    parts = (1, 3)
    gens = functools.cache(lambda: [oracle.reduce(oracle.family_values(t), parts)
                            for t in oracle.family_tags(4)])
    for j in range(CERTIFICATES):
        values = oracle.outside_point(parts, rng)
        ops.append(Op(f"certificate:4:{j}", _decompose(mods, 4, values),
                      lambda res, values=values:
                      _separates(res, oracle.reduce(values, parts), gens()),
                      lambda res: dataclasses.replace(
                          res, certificate=tuple(-x for x in res.certificate))))
    return ops


def _decompose(mods, n, values):
    def run():
        h = mods.setfn.SetFunction(mods.setfn.GroundSet(n), values)
        return mods.verify.decompose_1n(h, n)

    return run


def _rebuilds(res, values, gens) -> bool:
    """Feasible, nonnegative, and sum_j c_j g_j equals the target on every subset."""
    if not res.feasible or len(res.coefficients) != len(gens):
        return False
    if any(c < 0 for c in res.coefficients):
        return False
    return all(
        sum((c * g[a] for c, g in zip(res.coefficients, gens)), Fraction(0)) == values[a]
        for a in range(len(values))
    )


def _separates(res, target, gens) -> bool:
    """Infeasible with w.g >= 0 on every generator and w.v < 0."""
    if res.feasible or res.certificate is None:
        return False
    w = res.certificate
    dot = lambda u: sum((a * b for a, b in zip(w, u)), Fraction(0))  # noqa: E731
    return len(w) == len(target) and all(dot(g) >= 0 for g in gens) and dot(target) < 0


MAKE_OPS = {"rays": rays_ops, "battery": battery_ops, "queries": queries_ops}
