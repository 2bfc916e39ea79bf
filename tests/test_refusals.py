"""Refusal branches of the CLI: each malformed input or failed re-check
gets its exit code, and the message names the field at fault."""

import json
import sys
from fractions import Fraction

import pytest

from gapfair import divisible, indivisible
from gapfair.cli import EXIT_BAD_INPUT, EXIT_INTERNAL, EXIT_OK
from gapfair.instance import CHARITY
from test_cli import inst_path, run  # noqa: F401 (inst_path is a fixture)


def expect_bad_input(capsys, argv, field):
    capsys.readouterr()
    assert run(*argv) == EXIT_BAD_INPUT
    assert field in capsys.readouterr().err


@pytest.mark.parametrize(
    "values, field",
    [([[1, 2]], "field 'values'"), ([[1, 2], [1]], "field 'values' row 2")],
    ids=["row-count", "row-length"],
)
def test_instance_matrix_shape(tmp_path, capsys, values, field):
    path = tmp_path / "inst.json"
    doc = {"n": 2, "m": 2, "budgets": [1, 1], "values": values, "sizes": [[1, 1]] * 2}
    path.write_text(json.dumps(doc))
    expect_bad_input(capsys, ["solve-fefx", path], field)


@pytest.mark.parametrize(
    "solver, mode, edit, field",
    [
        ("solve-fefx", "fefx", lambda doc: [doc], "expected a JSON object"),
        (
            "solve-divisible",
            "fef",
            lambda doc: {**doc, "x": doc["x"][:1]},
            "field 'x': expected one row per agent",
        ),
        (
            "solve-divisible",
            "fef",
            lambda doc: {**doc, "x": [doc["x"][0][:-1], doc["x"][1]]},
            "field 'x': ragged row",
        ),
        (
            "solve-fefx",
            "fefx",
            lambda doc: {**doc, "bundles": doc["bundles"][:1]},
            "field 'bundles': expected one per agent",
        ),
    ],
    ids=["not-an-object", "x-row-count", "x-ragged", "bundles-count"],
)
def test_allocation_file_shape(inst_path, tmp_path, capsys, solver, mode, edit, field):
    out = tmp_path / "alloc.json"
    assert run(solver, inst_path, "-o", out) == EXIT_OK
    out.write_text(json.dumps(edit(json.loads(out.read_text()))))
    expect_bad_input(capsys, ["verify", out, "--mode", mode], field)


@pytest.mark.parametrize(
    "doc, field",
    [
        ([1, 2], "expected a JSON object"),
        ({"m": 0, "capacity": 1, "weights": [], "values": []}, "field 'm'"),
        # Refused by the shape check before any item list of length m is built.
        ({"m": 2**62, "capacity": 1, "weights": [], "values": []}, "field 'weights'"),
    ],
    ids=["not-an-object", "m-zero", "m-past-weights"],
)
def test_knapsack_file(tmp_path, capsys, doc, field):
    path = tmp_path / "kp.json"
    path.write_text(json.dumps(doc))
    expect_bad_input(capsys, ["reduce-knapsack", path], field)


ENTRIES = [1.5, True, "3", None, [1], {}]


@pytest.mark.parametrize("entry", ENTRIES, ids=repr)
@pytest.mark.parametrize("field", ["values", "sizes", "budgets"])
def test_instance_entry_not_an_int(tmp_path, capsys, field, entry):
    doc = {"n": 2, "m": 2, "budgets": [1, 1], "values": [[1, 1]] * 2}
    doc["sizes"] = doc["values"]  # the field at test is replaced whole
    if field == "budgets":
        doc["budgets"] = [1, entry]
    else:
        doc[field] = [[1, 1], [1, entry]]
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    expect_bad_input(capsys, ["solve-fefx", path], field)


@pytest.mark.parametrize("entry", ENTRIES, ids=repr)
@pytest.mark.parametrize("field", ["weights", "values", "capacity"])
def test_knapsack_entry_not_an_int(tmp_path, capsys, field, entry):
    doc = {"m": 2, "capacity": 3, "weights": [1, 2], "values": [2, 4]}
    doc[field] = entry if field == "capacity" else [1, entry]
    path = tmp_path / "kp.json"
    path.write_text(json.dumps(doc))
    expect_bad_input(capsys, ["reduce-knapsack", path], field)


def test_unparsable_eps(inst_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run("solve-approx-fefx", inst_path, "--eps", "one/ten")
    assert exc.value.code == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert "--eps" in err and "bad rational 'one/ten'" in err


@pytest.mark.parametrize(
    "argv",
    [["solve-approx-fefx", "inst.json"], ["verify", "alloc.json", "--mode", "apx-fefx"]],
    ids=["solve-approx-fefx", "verify"],
)
def test_eps_exponent_is_refused(capsys, argv):
    """An exponent is refused before Fraction would compute 10**exponent,
    which at this size takes far longer than any solve."""
    with pytest.raises(SystemExit) as exc:
        run(*argv, "--eps", "1e-999999999")
    assert exc.value.code == EXIT_BAD_INPUT
    assert "bad rational '1e-999999999'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["solve-approx-fefx", "inst.json"], ["verify", "alloc.json", "--mode", "apx-fefx"]],
    ids=["solve-approx-fefx", "verify"],
)
def test_eps_past_the_int_str_limit_is_refused(capsys, argv):
    """A decimal eps with 4300 fractional digits parses, but its
    denominator has 4301, which str() refuses at Python's default limit;
    the (1-eps)-FEFx label prints it after the solve."""
    text = "0." + "0" * 4299 + "1"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--eps", text)
    finally:
        sys.set_int_max_str_digits(limit)
    assert exc.value.code == EXIT_BAD_INPUT
    assert f"bad rational {text!r}" in capsys.readouterr().err


def test_fefx_mode_on_fractional_allocation(inst_path, tmp_path, capsys):
    out = tmp_path / "alloc.json"
    assert run("solve-divisible", inst_path, "-o", out) == EXIT_OK
    expect_bad_input(
        capsys,
        ["verify", out, "--mode", "fefx"],
        "mode fefx needs an integral allocation",
    )


FEF_VIOLATION = divisible.FefViolation(1, CHARITY, Fraction(0), Fraction(1))
FEFX_VIOLATION = indivisible.FefxViolation(1, CHARITY, 0, frozenset({0}), 1)


@pytest.mark.parametrize(
    "argv, module, witness, violation, eps",
    [
        (["solve-divisible"], divisible, "fef_witness", FEF_VIOLATION, ()),
        (["solve-fefx"], indivisible, "fefx_witness", FEFX_VIOLATION, (0,)),
        (
            ["solve-approx-fefx", "--eps", "1/2"],
            indivisible,
            "fefx_witness",
            FEFX_VIOLATION,
            (Fraction(1, 2),),
        ),
    ],
    ids=["solve-divisible", "solve-fefx", "solve-approx-fefx"],
)
def test_failed_reverification_exits_4(
    inst_path, tmp_path, monkeypatch, capsys, argv, module, witness, violation, eps
):
    """A solver output its verifier rejects exits 4 naming the violation
    (here a fake one for agent 2), and no allocation file is written."""
    calls = []
    monkeypatch.setattr(module, witness, lambda *args: calls.append(args) or violation)
    out = tmp_path / "alloc.json"
    assert run(argv[0], inst_path, *argv[1:], "-o", out) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "solver output failed verification: agent 2 envies" in err
    assert [args[2:] for args in calls] == [eps]
    assert not out.exists()


# Python refuses to convert integer literals longer than its digit limit
# (4300 digits by default); json.load then raises a plain ValueError.
LONG_INT = "9" * 5000


@pytest.mark.skipif(
    not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < len(LONG_INT),
    reason="this interpreter converts 5000-digit integer literals",
)
@pytest.mark.parametrize(
    "argv, text",
    [
        (["solve-fefx"], '{"n": 1, "m": 1, "budgets": [%s]}'),
        (["verify", "--mode", "fefx"], '{"instance": "inst.json", "bundles": [[%s]]}'),
        (["reduce-knapsack"], '{"m": 1, "capacity": %s}'),
    ],
    ids=["instance", "allocation", "knapsack"],
)
def test_oversized_integer_literal(tmp_path, capsys, argv, text):
    path = tmp_path / "input.json"
    path.write_text(text % LONG_INT)
    expect_bad_input(capsys, [argv[0], path, *argv[1:]], f"{path}: ")


@pytest.fixture
def default_digit_limit():
    """Python's default int->str digit limit, whatever this run's."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("field", ["x", "charity"])
def test_oversized_rational_entry(inst_path, tmp_path, capsys, default_digit_limit, field):
    """A "p/q" entry whose denominator is past the digit limit is malformed
    input (exit 2), not the precondition exit 3 of Fraction's ValueError."""
    out = tmp_path / "alloc.json"
    assert run("solve-divisible", inst_path, "-o", out) == EXIT_OK
    doc = json.loads(out.read_text())
    (doc["x"][0] if field == "x" else doc["charity"])[0] = f"1/{LONG_INT}"
    out.write_text(json.dumps(doc))
    expect_bad_input(capsys, ["verify", out, "--mode", "fef"], f"field '{field}'")


def test_instance_name_past_the_file_system_limit(inst_path, tmp_path, capsys):
    """An 'instance' path longer than the file system's name limit names
    the field (exit 2), not only the operating system's error."""
    out = tmp_path / "alloc.json"
    assert run("solve-divisible", inst_path, "-o", out) == EXIT_OK
    doc = json.loads(out.read_text())
    doc["instance"] = "a" * 5000
    out.write_text(json.dumps(doc))
    expect_bad_input(capsys, ["verify", out, "--mode", "fef"], "field 'instance'")


def test_unverified_parity_probe_exits_4(tmp_path, monkeypatch, capsys):
    """A probe allocation that is not FEFx stops the harness: here every
    probe returns empty bundles, and the gadget's charity is envied."""
    from gapfair import FefxResult, IntegralAllocation, reductions

    def empty(instance, trace=None):
        return FefxResult(IntegralAllocation(instance.m, (frozenset(),)), ())

    monkeypatch.setattr(reductions, "compute_fefx", empty)
    path = tmp_path / "kp.json"
    path.write_text(json.dumps({"m": 2, "capacity": 3, "weights": [1, 2], "values": [2, 4]}))
    assert run("reduce-knapsack", path) == EXIT_INTERNAL
    assert "internal error: probe at mu=3" in capsys.readouterr().err
