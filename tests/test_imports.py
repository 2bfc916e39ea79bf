"""The package loads what its callers use: public names resolve on first
access, and each CLI subcommand imports only the pipeline it runs."""

import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import gapfair

ROOT = Path(__file__).resolve().parent.parent

# The public names as listed before they were loaded on first use.
PUBLIC = {
    "divisible": {
        "DivisibleResult", "best_feasible_value", "build_lp",
        "check_density_domination", "divisible_fef", "fef_witness",
        "internal_edge", "verify_fef",
    },
    "indivisible": {
        "EnvyWitness", "FefxResult", "compute_approx_fefx", "compute_fefx",
        "envies", "fefx_witness", "find_minimal_envied_subset",
        "verify_approx_fefx", "verify_fefx",
    },
    "instance": {
        "FractionalAllocation", "InfeasibleAllocationError", "Instance",
        "IntegralAllocation", "InternalError", "LPStructureError",
        "ZeroSizeError", "augment", "density_ordering", "strip_fictional",
    },
    "knapsack": {
        "KnapsackQuery", "KnapsackSolution", "apx_kns", "kns_exact",
        "query_for_agent",
    },
    "lp": {"FeasibilityResult", "LinearProgram", "feasible"},
    "reductions": {
        "MnwFixture", "build_gadget", "mnw_fixture", "parity_probe",
        "solve_knapsack_via_fefx",
    },
}
ALL = set().union(*PUBLIC.values())


def test_all_lists_the_public_names_once():
    assert len(ALL) == 40
    assert len(gapfair.__all__) == len(ALL) and set(gapfair.__all__) == ALL


@pytest.mark.parametrize(
    "module, name",
    sorted((m, n) for m, names in PUBLIC.items() for n in names),
    ids=lambda v: v,
)
def test_each_name_is_its_modules_object(module, name):
    home = importlib.import_module(f"gapfair.{module}")
    assert getattr(gapfair, name) is getattr(home, name)


def test_lp_structure_error_is_one_class():
    from gapfair import instance, lp

    assert lp.LPStructureError is instance.LPStructureError
    assert issubclass(gapfair.LPStructureError, ValueError)


def test_star_import_and_dir():
    namespace: dict = {}
    exec("from gapfair import *", namespace)
    assert ALL <= set(namespace)
    assert ALL <= set(dir(gapfair))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        gapfair.nope  # noqa: B018


def loaded_after(code: str, tmp_path: Path) -> set[str]:
    """The gapfair modules a fresh interpreter holds after running `code`."""
    script = textwrap.dedent(code) + textwrap.dedent(
        """
        import json, sys
        print(json.dumps(sorted(m for m in sys.modules if m.startswith("gapfair"))))
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.strip().splitlines()[-1]))


PIPELINE = """
    from contextlib import redirect_stdout
    import io
    from gapfair import cli
    with redirect_stdout(io.StringIO()):
        assert cli.main(["gen-random", "--seed", "1", "-n", "2", "-m", "4",
                         "-o", "inst.json"]) == 0
        assert cli.main([{solve!r}, "inst.json", *{solve_opts!r}, "-o", "out.json"]) == 0
        assert cli.main(["verify", "out.json", *{verify_opts!r}]) == 0
"""


def pipeline(solve, solve_opts, verify_opts):
    return PIPELINE.format(solve=solve, solve_opts=solve_opts, verify_opts=verify_opts)


def test_import_cli_loads_no_solver(tmp_path):
    loaded = loaded_after("import gapfair.cli", tmp_path)
    assert loaded == {"gapfair", "gapfair.cli", "gapfair.instance", "gapfair.serialize"}


@pytest.mark.parametrize(
    "solve, solve_opts, verify_opts",
    [
        ("solve-fefx", [], ["--mode", "fefx"]),
        ("solve-approx-fefx", ["--eps", "1/10"], ["--mode", "apx-fefx", "--eps", "1/10"]),
    ],
    ids=["fefx", "apx-fefx"],
)
def test_indivisible_pipeline_loads_no_lp(tmp_path, solve, solve_opts, verify_opts):
    loaded = loaded_after(pipeline(solve, solve_opts, verify_opts), tmp_path)
    assert "gapfair.indivisible" in loaded
    assert not loaded & {"gapfair.lp", "gapfair.divisible"}


def test_divisible_pipeline_loads_no_knapsack(tmp_path):
    loaded = loaded_after(pipeline("solve-divisible", [], ["--mode", "fef"]), tmp_path)
    assert "gapfair.lp" in loaded
    assert not loaded & {"gapfair.indivisible", "gapfair.knapsack", "gapfair.reductions"}


def test_submodule_attribute_after_bare_import(tmp_path):
    loaded = loaded_after(
        "import gapfair\nassert gapfair.lp.feasible is gapfair.feasible", tmp_path
    )
    assert "gapfair.lp" in loaded and "gapfair.divisible" not in loaded
