import ast
import contextlib
import hashlib
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest

from symcone import (
    GroundSet,
    SetFunction,
    canonical_representatives,
    extreme_rays,
    family_Un,
    gap_witness,
    psi_p_hrep,
    u1_loop,
    uniform,
)
from symcone.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"
EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"


@pytest.fixture
def witness_file(tmp_path):
    path = tmp_path / "hhat.txt"
    path.write_text(gap_witness(2, 2).to_text())
    return str(path)


class TestOrbitsAndFacets:
    def test_orbit_listing(self, capsys):
        assert main(["orbits", "--n", "4", "--partition", "1,2|3,4"]) == 0
        out = capsys.readouterr().out
        assert out.strip().endswith("total 12")

    def test_facets_header(self, capsys):
        assert main(["facets", "--n", "2", "--partition", "1|2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "3 3 labels"
        assert len(lines) == 4

    def test_missing_n_is_usage_error(self, capsys):
        assert main(["orbits", "--partition", "1,2|3,4"]) == 2


class TestRays:
    def test_one_block_rays(self, capsys):
        assert main(["rays", "--n", "4", "--partition", "1,2,3,4"]) == 0
        out = capsys.readouterr().out
        assert out.strip().endswith("total 4")

    def test_json_format(self, capsys):
        assert main(["rays", "--n", "3", "--partition", "1,2,3", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 3
        assert {tuple(r["direction"]) for r in payload} == {
            (1, 1, 1), (1, 2, 2), (1, 2, 3),
        }

    def test_benchmark_shapes_bytes_pinned(self, capsys):
        # the sha256 and ray count of `rays --format json` on the twelve
        # benchmark shapes, as recorded in the benchmark's expected answers
        expected = json.loads(EXPECTED.read_text(encoding="utf-8"))["rays"]
        assert len(expected) == 12
        for key, want in expected.items():
            parts = [int(x) for x in key.split("_")]
            bounds = [sum(parts[:i]) for i in range(len(parts) + 1)]
            literal = "|".join(
                ",".join(str(e) for e in range(lo + 1, hi + 1))
                for lo, hi in zip(bounds, bounds[1:])
            )
            argv = ["rays", "--n", str(bounds[-1]), "--partition", literal,
                    "--format", "json"]
            assert main(argv) == 0
            out = capsys.readouterr().out
            assert len(json.loads(out)) == want["rays"], key
            assert hashlib.sha256(out.encode()).hexdigest() == want["sha256"], key

    def test_writer_matches_reference_up_to_dim_15(self, capsys):
        # `rays` writes its output straight from the rays; the reference
        # is the payload it stands for, through `json.dumps` and the
        # per-row text rendering
        shapes = 0
        for n in range(1, 10):
            for p in canonical_representatives(n):
                if prod(s + 1 for s in p.block_sizes) - 1 > 15:
                    continue
                shapes += 1
                cone = psi_p_hrep(p)
                names = [str(label) for _, label in cone.rows]
                payload = [
                    {"direction": list(r.direction),
                     "tight": [nm for i, nm in enumerate(names) if r.tight >> i & 1]}
                    for r in extreme_rays(cone)
                ]
                text = "".join(
                    " ".join(str(x) for x in row["direction"]) + "  |  "
                    + " ".join(row["tight"]) + "\n"
                    for row in payload
                ) + f"total {len(payload)}\n"
                argv = ["rays", "--n", str(n), "--partition", str(p)]
                assert main(argv + ["--format", "json"]) == 0
                assert capsys.readouterr().out == (
                    json.dumps(payload, indent=2, sort_keys=True) + "\n"), str(p)
                assert main(argv + ["--format", "text"]) == 0
                assert capsys.readouterr().out == text, str(p)
        assert shapes == 24

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_closed_stdout_exits_141(self, unbuffered):
        # the output (126,470 bytes) is larger than a pipe buffer, so
        # the writer meets the closed pipe whenever the reader stops
        argv = ["rays", "--n", "6", "--partition", "1,2,3|4,5,6", "--format", "json"]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen([sys.executable, "-m", "symcone.cli", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=env)
        assert proc.stdout.read(1) == b"["
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert err == b""

    def test_max_dim_cap(self, capsys):
        args = ["rays", "--n", "5", "--partition", "1,2|3,4,5", "--max-dim", "5"]
        assert main(args) == 2
        assert "cap" in capsys.readouterr().err

    @pytest.mark.parametrize("max_dim", ["0", "-1"])
    def test_max_dim_below_one_is_usage_error(self, capsys, max_dim):
        # named as the flag, not as the cap of a cone dimension
        assert main(["rays", "--n", "4", "--max-dim", max_dim]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: --max-dim must be at least 1, got {max_dim}"
        ]

    def test_non_integer_element_is_usage_error(self, capsys):
        assert main(["rays", "--n", "4", "--partition", "1,a|2,3,4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: element 'a' is not an integer in partition literal '1,a|2,3,4'"
        ]


class TestCheck:
    def test_zy_violation_exits_one(self, capsys, witness_file):
        assert main(["check", "--zy", "--function", witness_file]) == 1
        out = capsys.readouterr().out
        assert "value=-1" in out

    def test_default_checks_pass_for_uniform(self, capsys, tmp_path):
        path = tmp_path / "u.txt"
        path.write_text(uniform(2, 4).to_text())
        assert main(["check", "--function", str(path)]) == 0
        out = capsys.readouterr().out
        assert "polymatroid: pass" in out and "matroid: pass" in out

    def test_membership_check(self, capsys, witness_file):
        code = main([
            "check", "--member", "--function", witness_file,
            "--partition", "1,2|3,4",
        ])
        assert code == 0

    def test_membership_defaults_to_one_block(self, capsys, tmp_path):
        path = tmp_path / "u.txt"
        path.write_text(uniform(2, 4).to_text())
        assert main(["check", "--member", "--function", str(path)]) == 0
        assert capsys.readouterr().out == "member: pass partition=1,2,3,4\n"

    def test_membership_of_asymmetric_function_fails(self, capsys, tmp_path):
        # a polymatroid, but h({1}) = 1 and h({2}) = 2 share one block
        path = tmp_path / "asym.txt"
        path.write_text("1 1\n2 2\n3 2\n")
        argv = ["check", "--polymatroid", "--member", "--partition", "1,2",
                "--function", str(path)]
        assert main(argv) == 1
        assert capsys.readouterr().out == (
            "polymatroid: pass\nmember: FAIL partition=1,2 differs={1},{2}\n"
        )

    def test_non_polymatroid_names_violated_facet(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text((-1 * u1_loop(4)).to_text())
        assert main(["check", "--polymatroid", "--function", str(path)]) == 1
        assert capsys.readouterr().out == "polymatroid: FAIL violated=E(1)\n"

    def test_zero_denominator_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 1/0\n")
        assert main(["check", "--function", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_repeated_partition_element_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "u.txt"
        path.write_text(uniform(2, 4).to_text())
        argv = ["check", "--function", str(path), "--member", "--partition", "1,1,2|3,4"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: element 1 repeated in partition literal '1,1,2|3,4'"
        ]

    def test_non_integer_role_is_usage_error(self, capsys, witness_file):
        assert main(["check", "--zy", "--roles", "1,2,x", "--function", witness_file]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: --roles takes integers, got '1,2,x'"]

    def test_json_round_trip(self, capsys, witness_file):
        main(["check", "--zy", "--function", witness_file, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["zy"] == {"pass": False, "value": "-1", "roles": [1, 2, 3, 4]}


class TestDecompose:
    def test_generator_decomposes(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(u1_loop(4).to_text())
        assert main(["decompose", "--function", str(path)]) == 0
        assert "u1loop:4 1" in capsys.readouterr().out

    def test_eight_element_function_decomposes(self, capsys, tmp_path):
        path = tmp_path / "u28.txt"
        path.write_text("".join(f"{a} {min(2, a.bit_count())}\n" for a in range(256)))
        assert main(["decompose", "--function", str(path)]) == 0
        assert capsys.readouterr().out.splitlines() == ["ukm:2,8,8 1"]

    def test_outside_point_exits_one(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text((-1 * u1_loop(4)).to_text())
        assert main(["decompose", "--function", str(path)]) == 1
        assert "infeasible" in capsys.readouterr().out

    def test_one_element_function_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("0 0\n1 1\n")
        assert main(["decompose", "--function", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: decomposition needs at least 2 elements, got 1"
        ]

    def test_output_bytes_pinned(self, capsys, tmp_path):
        # text and json stdout with exit codes on generators, an outside
        # point (the separating certificate) and seeded fractional conic
        # points for n = 2..5
        corpus = [uniform(2, 4), u1_loop(4), -1 * u1_loop(4)]
        for n in (2, 3, 4, 5):
            rng = random.Random(n)
            point = SetFunction(GroundSet(n), (0,) * (1 << n))
            for g in family_Un(n):
                point = point + Fraction(rng.randint(0, 5), rng.randint(1, 3)) * g
            corpus.append(point)
        codes = []
        transcript = hashlib.sha256()
        for i, h in enumerate(corpus):
            path = tmp_path / f"h{i}.txt"
            path.write_text(h.to_text())
            for fmt in ("text", "json"):
                codes.append(main(["decompose", "--function", str(path),
                                   "--format", fmt]))
                transcript.update(capsys.readouterr().out.encode())
        assert codes == [0, 0, 0, 0, 1, 1] + [0] * 8
        assert transcript.hexdigest() == (
            "35302d6e5076d3bf3854a466de0fac50c336aed4ca90309759a352c3528e4e88"
        )


class TestProjectAndFamily:
    def test_project_symmetrizes(self, capsys, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("0 0\n1 1\n2 2\n3 2\n")
        assert main(["project", "--function", str(path), "--partition", "1,2"]) == 0
        out = capsys.readouterr().out
        assert "1 3/2" in out and "2 3/2" in out

    def test_family_text(self, capsys):
        assert main(["family", "uniform:1,2"]) == 0
        assert capsys.readouterr().out.splitlines() == ["0 0", "1 1", "2 1", "3 1"]

    def test_family_member_past_the_ground_cap(self, capsys):
        # U_{6,13} pulled back onto 8 elements: element 1 carries 6 columns
        assert main(["family", "ukm:6,13,8"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"{a} {min(6, 6 * (a & 1) + (a >> 1).bit_count())}" for a in range(256)]

    def test_family_bad_tag(self, capsys):
        assert main(["family", "nope:1"]) == 2


class TestVerifySubcommand:
    def test_small_battery_passes(self, capsys):
        assert main(["verify", "--n-max", "3", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload and all(entry["pass"] for entry in payload)
        assert {"claim", "params", "pass", "wall_time_ms"} <= set(payload[0])
        decompose = [e for e in payload if e["claim"] == "decompose"]
        assert decompose and all(e["wall_time_ms"] > 0 for e in decompose)

    def test_text_report(self, capsys):
        assert main(["verify", "--n-max", "2", "--format", "text"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("pass psi-rays ")
        assert all(line.startswith("pass ") for line in lines[:-1])
        assert lines[-1] == f"total {len(lines) - 1} failed 0"

    def test_text_report_bytes_pinned(self, capsys):
        # any change to the verdict order, params or status shows here
        assert main(["verify", "--n-max", "4", "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == "total 132 failed 0"
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "60b04f4198a450a7cbf9aa092d5645cd339627e7f7c078add8ac04c46f5153cb"
        )

    def test_json_report_bytes_pinned(self, capsys):
        # same report as the text pin, with the timings masked
        assert main(["verify", "--n-max", "4", "--format", "json"]) == 0
        out, count = re.subn(r'"wall_time_ms": [0-9.e+-]+', '"wall_time_ms": 0',
                             capsys.readouterr().out)
        assert count == 132
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "8354bb203d150fa23627342f9cb5671b929913a53b8ab50ce0fa5118cc7b64c9"
        )

    def test_n_max_below_two_is_usage_error(self, capsys):
        assert main(["verify", "--n-max", "-3", "--format", "text"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: n_max must be at least 2, got -3"
        ]

    def test_n_max_above_the_cap_is_usage_error(self, capsys):
        assert main(["verify", "--n-max", "13", "--format", "text"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: n_max must be at most 12, got 13"
        ]


class TestJsonSchemas:
    def test_every_subcommand_emits_parseable_json(self, capsys, witness_file, tmp_path):
        upath = tmp_path / "u24.txt"
        upath.write_text(uniform(2, 4).to_text())
        invocations = [
            ["facets", "--n", "4", "--partition", "1,2|3,4", "--format", "json"],
            ["orbits", "--n", "4", "--partition", "1,2|3,4", "--format", "json"],
            ["project", "--function", witness_file, "--partition", "1,2|3,4",
             "--format", "json"],
            ["rays", "--n", "4", "--partition", "1|2,3,4", "--format", "json"],
            ["check", "--function", witness_file, "--format", "json"],
            ["decompose", "--function", str(upath), "--format", "json"],
            ["family", "gap:2,2", "--format", "json"],
        ]
        for argv in invocations:
            main(argv)
            payload = json.loads(capsys.readouterr().out)
            assert payload  # nonempty and well-formed


class TestDeterminism:
    def test_identical_invocations_identical_output(self, capsys):
        main(["rays", "--n", "4", "--partition", "1|2,3,4"])
        first = capsys.readouterr().out
        main(["rays", "--n", "4", "--partition", "1|2,3,4"])
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("argv", [
        ["facets", "--n", "4", "--partition", "1,2|3,4"],
        ["orbits", "--n", "4", "--partition", "1,2|3,4"],
        ["project", "--function", "{witness}", "--partition", "1,2|3,4"],
        ["rays", "--n", "4", "--partition", "1|2,3,4"],
        ["check", "--function", "{witness}", "--zy"],
        ["decompose", "--function", "{uniform}"],
        ["verify", "--n-max", "3"],
        ["family", "gap:2,2"],
    ], ids=lambda argv: argv[0])
    def test_every_subcommand_repeats_its_output(self, capsys, witness_file,
                                                 tmp_path, argv, fmt):
        # `verify` json carries each verdict's wall time, the one field
        # that varies between identical invocations; it is masked here
        upath = tmp_path / "u24.txt"
        upath.write_text(uniform(2, 4).to_text())
        argv = [a.format(witness=witness_file, uniform=upath) for a in argv]
        outputs = []
        for _ in range(2):
            main(argv + ["--format", fmt])
            out = capsys.readouterr().out
            outputs.append(re.sub(r'"wall_time_ms": [0-9.e+-]+',
                                  '"wall_time_ms": 0', out))
        assert outputs[0] and outputs[0] == outputs[1]


class TestParserSurface:
    def test_csv_format_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["facets", "--n", "2", "--format", "csv"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["rays", "--n", "3"],
        ["facets", "--n", "3"],
        ["orbits", "--n", "3"],
        ["project", "--function", "h.txt"],
        ["check", "--function", "h.txt"],
        ["decompose", "--function", "h.txt"],
    ])
    def test_seed_only_on_verify(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("strategy", ["lp", "inductive"])
    def test_decompose_has_one_method(self, strategy):
        with pytest.raises(SystemExit) as exc:
            main(["decompose", "--function", "h.txt", "--strategy", strategy])
        assert exc.value.code == 2

    def test_verify_takes_seed(self, capsys):
        assert main(["verify", "--n-max", "2", "--seed", "3"]) == 0

    def test_verify_rejects_n(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n", "7", "--n-max", "2"])
        assert exc.value.code == 2

    def test_parser_reused_after_usage_error(self, capsys):
        # `main` keeps one parser; after a usage error it still parses
        # as a fresh parser does
        assert build_parser() is not build_parser()
        with pytest.raises(SystemExit) as exc:
            main(["rays", "--n", "3", "--format", "csv"])
        assert exc.value.code == 2
        capsys.readouterr()
        for argv in (["rays", "--n", "4", "--partition", "1|2,3,4"],
                     ["verify", "--n-max", "2", "--format", "text"]):
            assert main(argv) == 0
            reused = capsys.readouterr().out
            args = build_parser().parse_args(argv)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert args.fn(args) == 0
            assert reused == buf.getvalue()

    def test_readme_command_block_parses(self):
        text = README.read_text(encoding="utf-8")
        block = text.split("## Command line", 1)[1].split("```")[1]
        argvs = [shlex.split(ln, comments=True)[1:]
                 for ln in block.splitlines() if ln.startswith("symcone ")]
        assert {argv[0] for argv in argvs} == {
            "facets", "orbits", "rays", "project", "check", "decompose",
            "verify", "family",
        }
        parser = build_parser()
        for argv in argvs:
            parser.parse_args(argv)

    def test_readme_library_tour_runs(self):
        # every line of the tour runs, and each value its comment promises holds
        text = README.read_text(encoding="utf-8")
        block = text.split("## Library tour", 1)[1].split("```")[1]
        ns, values = {}, {}
        for stmt in ast.parse(block.removeprefix("python\n")).body:
            code = ast.unparse(stmt)
            if isinstance(stmt, ast.Expr):
                values[code] = eval(code, ns)
            else:
                exec(code, ns)
        assert values["sc.is_polymatroid(h)"] is True
        assert len(ns["cone"].rows) == 12
        assert values["cone.contains(s.free_values())"] is True
        assert values["sc.form_value(zy, h)"] == -1
        assert values["sc.reduce_form(zy.items(), p.count_index)"] == (
            -4, 3, -1, 8, -5, -1, 0, 0)
        assert values["len(rays)"] == 10
