"""Mutation gate: every listed guard has a mutant that a named test kills.

Each mutant replaces one exact text, found exactly once, in one file of
a temporary copy of `src/` and `tests/`, and runs only its killing
tests there with pytest.  The mutant is killed when they fail (pytest
exit 1); it survives when they pass.  Before any mutant is applied, the
killing tests of the whole list must pass on the unmutated copy.  An
equivalent mutant, one that no input can tell apart, stays on the list
with its reason and is not run.

    python tests/mutants.py           # every mutant
    python tests/mutants.py NAME ...  # only the named ones

Exits 1 when a mutant survives, when an old text is not found exactly
once, or when the unmutated tests fail; 2 on an unknown name.  A PR
that adds a guard adds its mutant here, and a mutant leaves the list
only with its guard.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
VERIFY = "src/symcone/verify.py"
CONE = "src/symcone/cone.py"


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple = ()
    equivalent: str = ""  # why no input can tell it apart; then not run


MUTANTS = (
    # the ray certificate of `_uncertified_ray` and its rank
    Mutant("ray-rank-dropped", VERIFY,
           "                or sum(1 << i for i in zero) != r.tight\n"
           "                or _rank([rows[i] for i in zero]) != cone.dim - 1):",
           "                or sum(1 << i for i in zero) != r.tight):",
           ("tests/test_verify.py::TestRayInventories::test_ray_that_is_not_extreme_fails",)),
    Mutant("ray-outside-cone-dropped", VERIFY,
           "        if (any(v < 0 for v in values)\n                or sum(",
           "        if (sum(",
           ("tests/test_verify.py::TestRayInventories::test_ray_outside_the_cone_fails",)),
    Mutant("rank-reduction-skipped", VERIFY,
           "            f = v[c]\n            if f:",
           "            f = v[c]\n            if False:",
           ("tests/test_verify.py::TestRank::test_matches_elimination_on_random_matrices",
            "tests/test_verify.py::TestRayInventories::test_ray_that_is_not_extreme_fails")),
    Mutant("rank-content-not-divided", VERIFY,
           "        if content != 1:\n            v = [x // content for x in v]\n",
           "",
           equivalent="dividing a row by its content changes no rank, only the "
                      "size of the ints"),
    # the one-block rays: each rank is paired with the row it skips
    Mutant("psi-rays-skipped-row-unchecked", VERIFY,
           "            if tight != every_row ^ (1 << labels.index(skipped)):",
           "            if False:",
           ("tests/test_verify.py::TestRayInventories::test_rank_paired_with_wrong_ray_fails",)),
    # the Psi_p gate of the gap and isolation witnesses
    Mutant("gap-gate-skipped", VERIFY,
           "        bad = _gate(p, vec)\n",
           "        bad = None\n",
           ("tests/test_verify.py::TestGap::test_non_polymatroid_witness_fails",
            "tests/test_verify.py::TestGap::test_witness_outside_the_cone_fails")),
    Mutant("gate-membership-skipped", VERIFY,
           "    if cone.contains(vec):\n        return None\n",
           "    return None\n",
           ("tests/test_verify.py::TestIsolations::test_non_polymatroid_witness_fails",
            "tests/test_verify.py::TestGap::test_non_polymatroid_witness_fails")),
    Mutant("gate-reduction-skipped", VERIFY,
           "    if not _reduction_holds(p):",
           "    if False:",
           ("tests/test_verify.py::TestWitnessGate::test_failed_reduction_fails_every_gate",)),
    Mutant("witness-gate-dropped", VERIFY,
           "_gate(self.partition, self.vector)))",
           "None))",
           ("tests/test_verify.py::TestIsolations::test_non_polymatroid_witness_fails",
            "tests/test_verify.py::TestWitnessGate::test_failing_gate_builds_a_fresh_payload")),
    Mutant("isolation-stored-gate-ignored", VERIFY,
           "        if bad is not None:\n            return False, dict(bad)\n",
           "",
           ("tests/test_verify.py::TestWitnessGate::"
            "test_corrupted_cone_row_fails_the_verdicts_that_read_it",
            "tests/test_verify.py::TestWitnessGate::test_failed_reduction_fails_every_gate")),
    Mutant("gap-value-loosened", VERIFY,
           "        if value != -1:",
           "        if value >= 0:",
           ("tests/test_verify.py::TestGap::test_form_value_below_minus_one_fails",)),
    Mutant("isolation-slack-not-strict", VERIFY,
           "            if (val <= 0) if index == target else (val != 0):",
           "            if (val < 0) if index == target else (val != 0):",
           ("tests/test_verify.py::TestIsolations::test_corrupted_witness_fails",)),
    # the block count of a label collapsed through a context
    Mutant("collapse-label-length-unchecked", VERIFY,
           "    if label.t != p.t:\n",
           "    if False:\n",
           ("tests/test_verify.py::TestCollapse::test_label_of_another_block_count_rejected",)),
    Mutant("decompose-verdict-always-passes", VERIFY,
           "                if res.feasible:\n",
           "                if True:\n",
           ("tests/test_verify.py::TestIsolations::"
            "test_suite_decompose_verdict_fails_on_infeasible_result",)),
    # the two checks `conic_decompose` runs on its own answer
    Mutant("farkas-separation-dropped", CONE,
           "        if not (all(sum(a * b for a, b in zip(w, col)) >= 0 for col in cols)\n"
           "                and sum(a * b for a, b in zip(w, rhs)) < 0):\n"
           "            raise ArithmeticError(\"Farkas certificate does not separate\")\n",
           "",
           ("tests/test_cone.py::TestConicDecompose::test_corrupted_farkas_certificate_raises",)),
    Mutant("rebuild-check-dropped", CONE,
           "    if any(sum(x * col[i] for x, col in zip(weights, cols)) != den * rhs[i]\n"
           "           for i in range(d)):\n"
           "        raise ArithmeticError(\"coefficients do not rebuild the target\")\n",
           "",
           ("tests/test_cone.py::TestConicDecompose::test_corrupted_coefficients_raise",)),
    # the facet reduction check
    Mutant("facet-row-comparison-dropped", CONE,
           "        if tuple(row[1:]) != coeffs:\n            return False\n",
           "",
           ("tests/test_cone.py::TestFacetReduction::"
            "test_agrees_with_reference_on_corrupted_cones",)),
    Mutant("facet-every-label-hit-dropped", CONE,
           "    return len(seen_labels) == len(by_label)",
           "    return True",
           ("tests/test_cone.py::TestFacetReduction::"
            "test_agrees_with_reference_on_corrupted_cones",)),
    # the cardinality bound of a matroid
    Mutant("matroid-cardinality-dropped", "src/symcone/setfn.py",
           "        if v.denominator != 1 or not 0 <= v <= m.bit_count():",
           "        if v.denominator != 1 or not 0 <= v:",
           ("tests/test_setfn.py::TestPolymatroidChecks::"
            "test_gap_witness_is_polymatroid_not_matroid",)),
)


def run_tests(copy: Path, tests) -> int:
    """pytest's exit code for `tests` in `copy`: 0 passed, 1 failed."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}  # a mutated file keeps no stale bytecode
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode


def main(argv) -> int:
    names = {m.name for m in MUTANTS}
    unknown = [a for a in argv if a not in names]
    if unknown:
        print(f"unknown mutant: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    start = time.perf_counter()
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy)
        live = [m for m in chosen if not m.equivalent]
        baseline = sorted({t for m in live for t in m.tests})
        if baseline and run_tests(copy, baseline) != 0:
            print("FAIL the killing tests do not pass on the unmutated copy")
            return 1
        for m in chosen:
            if m.equivalent:
                print(f"equivalent {m.name}: {m.equivalent}")
                continue
            path = copy / m.file
            text = path.read_text()
            found = text.count(m.old)
            if found != 1:
                print(f"FAIL {m.name}: its old text occurs {found} times in {m.file}")
                bad += 1
                continue
            path.write_text(text.replace(m.old, m.new))
            t0 = time.perf_counter()
            code = run_tests(copy, m.tests)
            path.write_text(text)
            took = time.perf_counter() - t0
            if code == 1:
                print(f"killed {m.name} ({took:.1f} s)")
            else:
                verdict = "survived" if code == 0 else f"pytest exit {code}"
                print(f"FAIL {m.name}: {verdict} ({took:.1f} s)")
                bad += 1
    print(f"{len(chosen)} mutants, {bad} not killed, "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
