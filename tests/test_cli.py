"""End-to-end CLI tests driving gapfair.cli.main with real files."""

import json

import pytest

from gapfair import cli, divisible, indivisible, serialize
from gapfair.cli import (
    EXIT_BAD_INPUT,
    EXIT_FAIL,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_PRECONDITION,
    gen_random,
    main,
)
from gapfair.instance import Instance, InternalError
from gapfair.lp import LPStructureError


@pytest.fixture
def inst_path(tmp_path):
    path = tmp_path / "inst.json"
    serialize.dump_instance(gen_random(seed=5, n=2, m=3), path)
    return path


def run(*argv):
    return main([str(a) for a in argv])


class TestGenRandom:
    def test_deterministic_for_a_seed(self):
        assert gen_random(7, 3, 4) == gen_random(7, 3, 4)
        assert gen_random(7, 3, 4) != gen_random(8, 3, 4)

    def test_bounds_respected(self):
        inst = gen_random(1, 3, 5, max_value=4, max_size=2, max_budget=6)
        assert all(0 <= v <= 4 for row in inst.values for v in row)
        assert all(1 <= s <= 2 for row in inst.sizes for s in row)
        assert all(1 <= b <= 6 for b in inst.budgets)

    def test_rejects_degenerate_bounds(self):
        with pytest.raises(ValueError):
            gen_random(1, 0, 3)

    def test_cli_writes_file(self, tmp_path):
        out = tmp_path / "inst.json"
        assert run("gen-random", "--seed", 3, "-n", 2, "-m", 2, "-o", out) == EXIT_OK
        assert serialize.load_instance(out) == gen_random(3, 2, 2)

    def test_cli_prints_to_stdout(self, tmp_path, capsys):
        assert run("gen-random", "--seed", 3, "-n", 2, "-m", 2) == EXIT_OK
        out = tmp_path / "printed.json"
        out.write_text(capsys.readouterr().out)
        assert serialize.load_instance(out) == gen_random(3, 2, 2)


class TestSolveDivisible:
    def test_solve_and_verify_round_trip(self, inst_path, tmp_path, capsys):
        out = tmp_path / "alloc.json"
        assert run("solve-divisible", inst_path, "-o", out) == EXIT_OK
        assert "verification: PASS" in capsys.readouterr().out
        assert run("verify", out, "--mode", "fef") == EXIT_OK
        assert "PASS" in capsys.readouterr().out

    def test_trace_and_dump_lp(self, inst_path, capsys):
        assert run("solve-divisible", inst_path, "--trace", "--dump-lp") == EXIT_OK
        err = capsys.readouterr().err
        assert "<=" in err  # the LP dump mentions constraints
        # Variables are named by 1-based (agent, good); at tau = (1, 1)
        # each agent's only variable is its densest good.
        assert "x[1,3]" in err and "x[2,2]" in err

    def test_malformed_program_is_an_internal_error(
        self, inst_path, monkeypatch, capsys
    ):
        def broken(lp):
            raise LPStructureError("constraint 0: variable 9 out of range")

        monkeypatch.setattr(divisible, "feasible", broken)
        assert run("solve-divisible", inst_path) == EXIT_INTERNAL
        assert "internal error" in capsys.readouterr().err

    def test_zero_size_instance_is_a_precondition_error(self, tmp_path):
        path = tmp_path / "inst.json"
        serialize.dump_instance(
            Instance(1, 1, ((1,),), ((0,),), (1,)), path
        )
        assert run("solve-divisible", path) == EXIT_PRECONDITION

    def test_missing_file(self, tmp_path):
        assert run("solve-divisible", tmp_path / "nope.json") == EXIT_BAD_INPUT

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text("[1, 2, 3]")
        assert run("solve-divisible", path) == EXIT_BAD_INPUT


class TestUnreadableFiles:
    """Files that cannot be decoded, read or written exit 2 with a message."""

    def test_deeply_nested_json(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        path.write_text("[" * 100000)
        assert run("solve-divisible", path) == EXIT_BAD_INPUT
        assert f"{path}: JSON nested too deeply" in capsys.readouterr().err

    def test_non_utf8_file(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        path.write_bytes(b'{"n": 1, "m": 1, "values": [[\xff]]}')
        assert run("solve-divisible", path) == EXIT_BAD_INPUT
        assert f"{path}: not UTF-8 text" in capsys.readouterr().err

    def test_directory_as_instance(self, tmp_path, capsys):
        assert run("solve-divisible", tmp_path) == EXIT_BAD_INPUT
        assert str(tmp_path) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ("solve-divisible", "{inst}"),
            ("solve-fefx", "{inst}"),
            ("solve-approx-fefx", "{inst}", "--eps", "1/2"),
            ("gen-random", "--seed", "1", "-n", "2", "-m", "2"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_directory_as_output(self, inst_path, tmp_path, capsys, argv):
        argv = [a.format(inst=inst_path) for a in argv]
        assert run(*argv, "-o", tmp_path) == EXIT_BAD_INPUT
        assert str(tmp_path) in capsys.readouterr().err


class TestSolveFefx:
    def test_solve_verify_round_trip(self, inst_path, tmp_path, capsys):
        out = tmp_path / "alloc.json"
        assert run("solve-fefx", inst_path, "-o", out, "--trace") == EXIT_OK
        assert "verification: PASS" in capsys.readouterr().out
        assert run("verify", out, "--mode", "fefx") == EXIT_OK

    def test_integral_file_rejected_for_fef_mode(self, inst_path, tmp_path, capsys):
        out = tmp_path / "alloc.json"
        assert run("solve-fefx", inst_path, "-o", out) == EXIT_OK
        assert run("verify", out, "--mode", "fef") == EXIT_BAD_INPUT

    def test_paths_relative_to_cwd(self, tmp_path, monkeypatch):
        (tmp_path / "sub").mkdir()
        serialize.dump_instance(gen_random(seed=5, n=2, m=3), tmp_path / "sub/inst.json")
        monkeypatch.chdir(tmp_path)
        assert run("solve-fefx", "sub/inst.json", "-o", "sub/out.json") == EXIT_OK
        assert run("verify", "sub/out.json", "--mode", "fefx") == EXIT_OK
        monkeypatch.chdir(tmp_path / "sub")
        assert run("verify", "out.json", "--mode", "fefx") == EXIT_OK

    @pytest.mark.parametrize(
        "field, entry",
        [("n", True), ("budgets", [True]), ("values", [[True]])],
        ids=["n", "budgets", "values"],
    )
    def test_boolean_entries_rejected(self, tmp_path, field, entry):
        doc = {"n": 1, "m": 1, "budgets": [1], "values": [[1]], "sizes": [[1]]}
        doc[field] = entry
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        assert run("solve-fefx", path) == EXIT_BAD_INPUT

    def test_internal_error_exits_4(self, inst_path, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise InternalError("swap loop exceeded its bound")

        monkeypatch.setattr(indivisible, "compute_fefx", broken)
        assert run("solve-fefx", inst_path) == EXIT_INTERNAL
        assert "internal error" in capsys.readouterr().err


class TestSolveApproxFefx:
    def test_solve_verify_round_trip(self, inst_path, tmp_path, capsys):
        out = tmp_path / "alloc.json"
        assert run("solve-approx-fefx", inst_path, "--eps", "1/4", "-o", out) == EXIT_OK
        assert "PASS" in capsys.readouterr().out
        assert run("verify", out, "--mode", "apx-fefx", "--eps", "1/4") == EXIT_OK

    def test_eps_argument_validated(self, inst_path):
        with pytest.raises(SystemExit):
            run("solve-approx-fefx", inst_path, "--eps", "3/2")
        with pytest.raises(SystemExit):
            run("solve-approx-fefx", inst_path, "--eps", "0")

    def test_apx_mode_requires_eps(self, inst_path, tmp_path):
        out = tmp_path / "alloc.json"
        assert run("solve-fefx", inst_path, "-o", out) == EXIT_OK
        assert run("verify", out, "--mode", "apx-fefx") == EXIT_BAD_INPUT

    @pytest.mark.parametrize(
        "solver, mode", [("solve-divisible", "fef"), ("solve-fefx", "fefx")]
    )
    def test_eps_rejected_outside_apx_mode(self, inst_path, tmp_path, solver, mode):
        out = tmp_path / "alloc.json"
        assert run(solver, inst_path, "-o", out) == EXIT_OK
        assert run("verify", out, "--mode", mode, "--eps", "1/10") == EXIT_BAD_INPUT


class TestMalformedAllocation:
    @pytest.mark.parametrize(
        "field, entry",
        [
            ("instance", 5),
            ("x", None),
            ("x", [1]),
            ("x", True),
            ("x", 0.5),
            ("bundles", True),
            ("bundles", 1.0),
            ("x", "0.0"),
            ("x", " 1e-1 "),
            ("x", "3/2"),
        ],
        ids=[
            "instance-number",
            "x-null",
            "x-list",
            "x-true",
            "x-float",
            "bundle-true",
            "bundle-float",
            "x-decimal-string",
            "x-padded-string",
            "x-above-one",
        ],
    )
    def test_exits_2_naming_the_field(self, inst_path, tmp_path, capsys, field, entry):
        out = tmp_path / "alloc.json"
        fractional = field == "x"
        solver = "solve-divisible" if fractional else "solve-fefx"
        assert run(solver, inst_path, "-o", out) == EXIT_OK
        doc = json.loads(out.read_text())
        if field == "instance":
            doc["instance"] = entry
        elif fractional:
            doc["x"][0][0] = entry
        else:
            doc["bundles"][0] = [entry]
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        mode = "fef" if fractional else "fefx"
        assert run("verify", out, "--mode", mode) == EXIT_BAD_INPUT
        assert f"field '{field}'" in capsys.readouterr().err

    def test_over_assigned_good_reported_1_based(self, inst_path, tmp_path, capsys):
        out = tmp_path / "alloc.json"
        assert run("solve-divisible", inst_path, "-o", out) == EXIT_OK
        doc = json.loads(out.read_text())
        doc["x"][0][0] = doc["x"][1][0] = "1/1"
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("verify", out, "--mode", "fef") == EXIT_BAD_INPUT
        assert "field 'x': good 1 over-assigned" in capsys.readouterr().err

    @pytest.mark.parametrize("good", [0, 4])
    def test_bundle_index_reported_as_written(self, inst_path, tmp_path, capsys, good):
        out = tmp_path / "alloc.json"
        assert run("solve-fefx", inst_path, "-o", out) == EXIT_OK
        doc = json.loads(out.read_text())
        doc["bundles"][0] = [good]
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("verify", out, "--mode", "fefx") == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert f"field 'bundles': expected indices 1..3, got [{good}]" in err

    @pytest.mark.parametrize(
        "bundles", [[[2, 2], []], [[2], [2]]], ids=["same-bundle", "two-bundles"]
    )
    def test_good_listed_twice(self, inst_path, tmp_path, capsys, bundles):
        out = tmp_path / "alloc.json"
        assert run("solve-fefx", inst_path, "-o", out) == EXIT_OK
        doc = json.loads(out.read_text())
        doc["bundles"], doc["charity"] = bundles, [1, 3]
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("verify", out, "--mode", "fefx") == EXIT_BAD_INPUT
        assert "field 'bundles': good 2 listed twice" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bundles, charity",
        [
            ([[1], [2]], None),
            ([[1], [2]], [1]),
            ([[1], [2]], [3, 3]),
            ([[2, 3], []], [True]),
        ],
        ids=["missing", "disagrees", "repeated", "boolean"],
    )
    def test_integral_charity_checked(
        self, inst_path, tmp_path, capsys, bundles, charity
    ):
        self._expect_charity_error(
            inst_path, tmp_path, capsys, "fefx", bundles=bundles, charity=charity
        )

    @pytest.mark.parametrize(
        "charity",
        [None, ["1/2", "0/1", "0/1"], ["5/1", "5/1", "5/1"], [0, 0, 0]],
        ids=["missing", "disagrees", "out-of-range", "numbers"],
    )
    def test_fractional_charity_checked(self, inst_path, tmp_path, capsys, charity):
        self._expect_charity_error(inst_path, tmp_path, capsys, "fef", charity=charity)

    @staticmethod
    def _expect_charity_error(inst_path, tmp_path, capsys, mode, **fields):
        out = tmp_path / "alloc.json"
        solver = "solve-divisible" if mode == "fef" else "solve-fefx"
        assert run(solver, inst_path, "-o", out) == EXIT_OK
        doc = json.loads(out.read_text())
        doc.update(fields)
        if doc["charity"] is None:
            del doc["charity"]
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("verify", out, "--mode", mode) == EXIT_BAD_INPUT
        assert "field 'charity'" in capsys.readouterr().err


class TestVerifyFailure:
    def test_fixture_allocation_fails_fef_with_witness(self, tmp_path, capsys):
        assert run("fixtures", "--out-dir", tmp_path) == EXIT_OK
        capsys.readouterr()
        code = run("verify", tmp_path / "mnw_allocation.json", "--mode", "fef")
        assert code == EXIT_FAIL
        out = capsys.readouterr().out
        assert out.startswith("FAIL")
        assert "agent 1 envies agent 2" in out

    def test_tampered_allocation_detected(self, inst_path, tmp_path, capsys):
        out = tmp_path / "alloc.json"
        assert run("solve-fefx", inst_path, "-o", out) == EXIT_OK
        doc = json.loads(out.read_text())
        doc["bundles"] = [[], []]  # hand everything to charity
        doc["charity"] = [1, 2, 3]
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        code = run("verify", out, "--mode", "fefx")
        # Either envy appears (FAIL) or the empty allocation is still FEFx
        # for this instance; the seeded instance has positive values, so
        # the charity must be envied.
        assert code == EXIT_FAIL
        assert "FAIL" in capsys.readouterr().out


class TestFixtures:
    def test_emits_loadable_files(self, tmp_path):
        assert run("fixtures", "--out-dir", tmp_path) == EXIT_OK
        alloc, inst, _ = serialize.load_allocation(tmp_path / "mnw_allocation.json")
        assert inst.n == 2 and inst.m == 2
        assert alloc.is_feasible(inst)


class TestReduceKnapsack:
    def test_reports_optimum(self, tmp_path, capsys):
        path = tmp_path / "kp.json"
        path.write_text(
            json.dumps({"m": 2, "capacity": 5, "weights": [2, 3], "values": [4, 6]})
        )
        assert run("reduce-knapsack", path, "--trace") == EXIT_OK
        captured = capsys.readouterr()
        assert "optimum value: 10" in captured.out
        assert "mu=" in captured.err

    def test_boolean_capacity_rejected(self, tmp_path):
        path = tmp_path / "kp.json"
        path.write_text(
            json.dumps({"m": 1, "capacity": True, "weights": [1], "values": [1]})
        )
        assert run("reduce-knapsack", path) == EXIT_BAD_INPUT

    @pytest.mark.parametrize(
        "capacity, weights, values, expected",
        [(12, [0, 2], [2, 14], 16), (0, [0, 0, 1], [3, 4, 5], 7)],
        ids=["weight-0", "capacity-0"],
    )
    def test_weight_0_items_are_added(
        self, tmp_path, capsys, capacity, weights, values, expected
    ):
        path = tmp_path / "kp.json"
        doc = {"m": len(weights), "capacity": capacity, "weights": weights,
               "values": values}
        path.write_text(json.dumps(doc))
        assert run("reduce-knapsack", path) == EXIT_OK
        assert f"optimum value: {expected}" in capsys.readouterr().out


class TestParserReuse:
    """The argparse tree is built once per process; each call still gets
    its own defaults."""

    def test_parser_is_built_once(self):
        assert cli._parser() is cli._parser()

    def test_eps_default_survives_an_approx_run(self, inst_path, capsys):
        assert run("solve-approx-fefx", inst_path, "--eps", "1/10") == EXIT_OK
        assert "verification: PASS ((1-1/10)-FEFx)" in capsys.readouterr().out
        assert run("solve-fefx", inst_path) == EXIT_OK
        assert "verification: PASS (FEFx)" in capsys.readouterr().out
