"""Command-line front end.

Subcommands: facets, orbits, project, rays, check, decompose, verify,
family.  Identical invocations print identical output, except the
per-verdict `wall_time_ms` of `verify` json, a measured run time;
rationals print as p/q in lowest terms.  Exit codes: 0 success, 1 failed
check/verdict, 2 usage error, 141 (128 + SIGPIPE) when stdout is
closed before the output is written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from .cone import DEFAULT_MAX_DIM, extreme_rays, psi_p_hrep
from .families import build_family, family_Un_tags
from .partitions import Partition, canonical_partition
from .setfn import (
    GroundSet,
    SetFunction,
    form_value,
    is_matroid,
    polymatroid_violation,
    set_text,
    zhang_yeung_form,
)
from .symmetry import SymmetryError, orbit_labels, orbit_sizes, symmetrize, to_sym
from .verify import decompose_1n, run_suite


def _read_function(path: str, n=None) -> SetFunction:
    with open(path, "r", encoding="utf-8") as fh:
        return SetFunction.from_text(fh.read(), n=n)


def _parse_partition(args, ground=None) -> Partition:
    """`--partition` over `ground` (default: `--n` elements), or one block."""
    if ground is None:
        if args.n is None:
            raise ValueError("--n is required for this subcommand")
        ground = GroundSet(args.n)
    if args.partition is None:
        return canonical_partition((ground.n,))
    return Partition.parse(args.partition, ground)


def _emit(payload, fmt: str, text_renderer):
    """Print `payload` as indented json with sorted keys, or hand it to
    `text_renderer`.  The payload must already be JSON-native: str
    keys, and rationals as strings.  It serves the small outputs of the
    subcommands; `rays`, whose output runs to thousands of lines, and
    `family`, whose json is one unindented array, write their own."""
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        text_renderer(payload)


def cmd_facets(args) -> int:
    p = _parse_partition(args)
    cone = psi_p_hrep(p)
    payload = {
        "dim": cone.dim,
        "coords": [",".join(map(str, c)) for c in cone.coords],
        "rows": [
            {"label": str(label), "coeffs": list(coeffs)}
            for coeffs, label in cone.rows
        ],
    }
    _emit(payload, args.format, lambda _: print(cone.to_text()))
    return 0


def cmd_orbits(args) -> int:
    p = _parse_partition(args)
    sizes = orbit_sizes(p)
    rows = [
        {"label": str(label), "facets": sizes[label]}
        for label in orbit_labels(p)
    ]

    def render(payload):
        for r in payload:
            print(f"{r['label']} {r['facets']}")
        print(f"total {len(payload)}")

    _emit(rows, args.format, render)
    return 0


def cmd_project(args) -> int:
    h = _read_function(args.function, n=args.n)
    p = _parse_partition(args, h.ground)
    image = symmetrize(h, p)
    svec = to_sym(image, p)

    def render(_):
        print("# projected function")
        print(image.to_text())
        print("# reduced coordinates")
        print(svec.to_text())

    payload = {
        "function": image.to_json_array(),
        "reduced": {
            ",".join(map(str, t)): str(v)
            for t, v in zip(p.count_tuples, svec.values)
        },
    }
    _emit(payload, args.format, render)
    return 0


def cmd_rays(args) -> int:
    """Each extreme ray with the labels of its tight rows, in row order.

    The tight rows are read from the bitmask `Ray.tight` that the
    enumeration computed, and each row label is rendered (and, for
    json, quoted) once.  Both formats are written straight from the
    rays, with no payload, one write per ray: a pipe closed by the
    reader then fails the next write even when a partial write went
    unreported.  The json text is laid out exactly as
    `json.dumps(payload, indent=2, sort_keys=True)` lays out the list
    of `{"direction": [...], "tight": [...]}` objects."""
    if args.max_dim < 1:
        raise ValueError(f"--max-dim must be at least 1, got {args.max_dim}")
    p = _parse_partition(args)
    cone = psi_p_hrep(p)
    rays = extreme_rays(cone, max_dim=args.max_dim)
    names = [str(label) for _, label in cone.rows]
    bits = [1 << i for i in range(len(names))]
    write = sys.stdout.write
    if args.format == "text":
        for r in rays:
            write(" ".join(map(str, r.direction)) + "  |  "
                  + " ".join(nm for nm, bit in zip(names, bits) if r.tight & bit)
                  + "\n")
        write(f"total {len(rays)}\n")
        return 0

    quoted = [json.dumps(name) for name in names]

    def items(values):
        # a list of JSON values two levels deep, as `json.dumps(...,
        # indent=2)` writes it
        if not values:
            return "[]"
        return "[\n      " + ",\n      ".join(values) + "\n    ]"

    sep = "[\n"
    for r in rays:
        write(sep + '  {\n    "direction": ' + items(list(map(str, r.direction)))
              + ',\n    "tight": '
              + items([q for q, bit in zip(quoted, bits) if r.tight & bit])
              + "\n  }")
        sep = ",\n"
    write("\n]\n" if rays else "[]\n")
    return 0


def cmd_check(args) -> int:
    h = _read_function(args.function, n=args.n)
    wanted = [name for name in ("polymatroid", "matroid", "member", "zy")
              if getattr(args, name)] or ["polymatroid", "matroid"]
    results = {}
    failed = False
    if "polymatroid" in wanted:
        bad = polymatroid_violation(h)
        results["polymatroid"] = {"pass": bad is None}
        if bad is not None:
            results["polymatroid"]["violated"] = str(bad)
            failed = True
    if "matroid" in wanted:
        ok = is_matroid(h)
        results["matroid"] = {"pass": ok}
        failed = failed or not ok
    if "member" in wanted:
        p = _parse_partition(args, h.ground)
        results["member"] = {"partition": str(p)}
        try:
            ok = psi_p_hrep(p).contains(to_sym(h, p).free_values())
        except SymmetryError as exc:
            ok = False
            results["member"]["differs"] = f"{set_text(exc.mask_a)},{set_text(exc.mask_b)}"
        results["member"]["pass"] = ok
        failed = failed or not ok
    if "zy" in wanted:
        try:
            roles = tuple(int(x) for x in args.roles.split(","))
        except ValueError:
            raise ValueError(f"--roles takes integers, got {args.roles!r}") from None
        value = form_value(zhang_yeung_form(h.ground, roles), h)
        results["zy"] = {"pass": value >= 0, "value": str(value), "roles": list(roles)}
        failed = failed or value < 0

    def render(res):
        for name, info in res.items():
            extra = " ".join(
                f"{k}={v}" for k, v in info.items() if k != "pass"
            )
            print(f"{name}: {'pass' if info['pass'] else 'FAIL'} {extra}".rstrip())

    _emit(results, args.format, render)
    return 1 if failed else 0


def cmd_decompose(args) -> int:
    h = _read_function(args.function, n=args.n)
    res = decompose_1n(h, h.n)
    if res.feasible:
        payload = {
            "feasible": True,
            "coefficients": {
                tag: str(c)
                for tag, c in zip(family_Un_tags(h.n), res.coefficients)
            },
        }
    else:
        payload = {
            "feasible": False,
            "certificate": [str(x) for x in res.certificate],
        }

    def render(pl):
        if pl["feasible"]:
            for tag, c in pl["coefficients"].items():
                if c != "0":
                    print(f"{tag} {c}")
        else:
            print("infeasible; separating functional:")
            print(" ".join(pl["certificate"]))

    _emit(payload, args.format, render)
    return 0 if res.feasible else 1


def cmd_verify(args) -> int:
    verdicts = run_suite(args.n_max, args.seed)
    report = [
        {
            "claim": v.claim,
            "params": v.params,
            "pass": v.passed,
            **({"counterexample": v.counterexample} if v.counterexample else {}),
            "wall_time_ms": round(v.elapsed_ms, 3),
        }
        for v in verdicts
    ]

    def render(rows):
        for r in rows:
            status = "pass" if r["pass"] else "FAIL"
            print(f"{status} {r['claim']} {r['params']}")
        bad = sum(1 for r in rows if not r["pass"])
        print(f"total {len(rows)} failed {bad}")

    _emit(report, args.format, render)
    return 0 if all(r["pass"] for r in report) else 1


def cmd_family(args) -> int:
    h = build_family(args.tag)
    if args.format == "json":
        print(json.dumps(h.to_json_array()))
    else:
        print(h.to_text())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symcone",
        description="exact computations on symmetric polymatroid cones",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, partition=True, function=False):
        sp.add_argument("--n", type=int, default=None)
        if partition:
            sp.add_argument("--partition", type=str, default=None,
                            help="blocks as '1,2|3,4' (default: one block)")
        if function:
            sp.add_argument("--function", type=str, required=True,
                            help="path to a 'mask value' set-function file")
        sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = sub.add_parser("facets", help="reduced facet system with orbit labels")
    common(sp)
    sp.set_defaults(fn=cmd_facets)

    sp = sub.add_parser("orbits", help="orbit labels and per-orbit facet counts")
    common(sp)
    sp.set_defaults(fn=cmd_orbits)

    sp = sub.add_parser("project", help="symmetrize a function and reduce it")
    common(sp, function=True)
    sp.set_defaults(fn=cmd_project)

    sp = sub.add_parser("rays", help="extreme rays with tight orbit labels")
    common(sp)
    sp.add_argument("--max-dim", type=int, default=DEFAULT_MAX_DIM)
    sp.set_defaults(fn=cmd_rays)

    sp = sub.add_parser("check", help="test a function file")
    common(sp, function=True)
    sp.add_argument("--polymatroid", action="store_true")
    sp.add_argument("--matroid", action="store_true")
    sp.add_argument("--member", action="store_true",
                    help="membership in the reduced cone of --partition")
    sp.add_argument("--zy", action="store_true",
                    help="evaluate the four-variable non-Shannon form")
    sp.add_argument("--roles", type=str, default="1,2,3,4")
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("decompose",
                        help="conic coefficients over the generator family")
    common(sp, partition=False, function=True)
    sp.set_defaults(fn=cmd_decompose)

    # no abbreviations: `--n` would otherwise be read as `--n-max`
    sp = sub.add_parser("verify", help="run the verification battery",
                        allow_abbrev=False)
    sp.add_argument("--n-max", type=int, default=5)
    sp.add_argument("--seed", type=int, default=0,
                    help="seed for the random points of the decomposition checks")
    sp.add_argument("--format", choices=("text", "json"), default="json")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("family", help="print a named family member")
    sp.add_argument("tag", type=str,
                    help="uniform:m,n | ukm:k,m,n | u1loop:n | gap:n1,n2")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(fn=cmd_family)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` reuses, built on its first call."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except SystemExit:
        raise
    except BrokenPipeError:
        # stdout was closed: send what is still buffered to devnull, so
        # that the flush at interpreter shutdown reports nothing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
