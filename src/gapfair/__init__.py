"""Envy-free allocation under generalized assignment constraints.

Solvers for feasibly envy-free (FEF) fractional allocations of divisible
goods and (approximately) FEFx allocations of indivisible goods, backed
by exact rational arithmetic, plus verifiers and a knapsack-hardness
harness.

Each public name, and each module that defines one, is imported on first
use (PEP 562), so importing the package or one of its modules loads only
what that code calls.
"""

import importlib

_PUBLIC = {
    "divisible": (
        "DivisibleResult", "best_feasible_value", "build_lp",
        "check_density_domination", "divisible_fef", "fef_witness",
        "internal_edge", "verify_fef",
    ),
    "indivisible": (
        "EnvyWitness", "FefxResult", "MinimalEnviedSet", "NotEnviedError",
        "compute_approx_fefx", "compute_fefx", "envies", "fefx_witness",
        "find_minimal_envied_subset", "verify_approx_fefx", "verify_fefx",
    ),
    "instance": (
        "FractionalAllocation", "InfeasibleAllocationError", "Instance",
        "IntegralAllocation", "InternalError", "LPStructureError",
        "ZeroSizeError", "augment", "density_ordering", "strip_fictional",
    ),
    "knapsack": (
        "KnapsackQuery", "KnapsackSolution", "apx_kns", "kns_exact",
        "query_for_agent",
    ),
    "lp": ("FeasibilityResult", "LinearProgram", "feasible"),
    "reductions": (
        "MnwFixture", "build_gadget", "mnw_fixture", "parity_probe",
        "solve_knapsack_via_fefx",
    ),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    if name in _PUBLIC:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
