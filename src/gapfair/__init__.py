"""Envy-free allocation under generalized assignment constraints.

Solvers for feasibly envy-free (FEF) fractional allocations of divisible
goods and (approximately) FEFx allocations of indivisible goods, backed
by exact rational arithmetic, plus verifiers and a knapsack-hardness
harness.
"""

from .divisible import (
    DivisibleResult,
    best_feasible_value,
    build_lp,
    check_density_domination,
    divisible_fef,
    fef_witness,
    internal_edge,
    verify_fef,
)
from .indivisible import (
    EnvyWitness,
    FefxResult,
    MinimalEnviedSet,
    NotEnviedError,
    compute_approx_fefx,
    compute_fefx,
    envies,
    fefx_witness,
    find_minimal_envied_subset,
    verify_approx_fefx,
    verify_fefx,
)
from .instance import (
    FractionalAllocation,
    InfeasibleAllocationError,
    Instance,
    IntegralAllocation,
    InternalError,
    ZeroSizeError,
    augment,
    density_ordering,
    strip_fictional,
)
from .knapsack import (
    KnapsackQuery,
    KnapsackSolution,
    apx_kns,
    kns_exact,
    query_for_agent,
)
from .lp import FeasibilityResult, LinearProgram, LPStructureError, feasible
from .reductions import (
    KnapsackProblem,
    MnwFixture,
    build_gadget,
    mnw_fixture,
    parity_probe,
    solve_knapsack_via_fefx,
)

__all__ = [
    "DivisibleResult",
    "best_feasible_value",
    "build_lp",
    "check_density_domination",
    "divisible_fef",
    "fef_witness",
    "internal_edge",
    "verify_fef",
    "EnvyWitness",
    "FefxResult",
    "MinimalEnviedSet",
    "NotEnviedError",
    "compute_approx_fefx",
    "compute_fefx",
    "envies",
    "fefx_witness",
    "find_minimal_envied_subset",
    "verify_approx_fefx",
    "verify_fefx",
    "FractionalAllocation",
    "InfeasibleAllocationError",
    "Instance",
    "IntegralAllocation",
    "InternalError",
    "ZeroSizeError",
    "augment",
    "density_ordering",
    "strip_fictional",
    "KnapsackQuery",
    "KnapsackSolution",
    "apx_kns",
    "kns_exact",
    "query_for_agent",
    "KnapsackProblem",
    "MnwFixture",
    "build_gadget",
    "mnw_fixture",
    "parity_probe",
    "solve_knapsack_via_fefx",
    "FeasibilityResult",
    "LinearProgram",
    "LPStructureError",
    "feasible",
]
