"""Hardness harness and negative fixtures.

The harness turns the FEFx solver into a knapsack optimizer: a
single-agent gadget instance carries the knapsack items plus a probe good
of odd value 2*mu + 1 and an always-infeasible filler good.  The parity
of the agent's bundle value flips exactly at mu = v*/2, so binary search
over mu recovers the knapsack optimum.

mnw_fixture() builds the two-agent instance on which the Nash-welfare
maximizing fractional allocation is not feasibly envy-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .indivisible import compute_fefx, verify_fefx
from .instance import FractionalAllocation, Instance, InternalError, require_ints
from .knapsack import KnapsackQuery, _split_forced


def build_gadget(kp: KnapsackQuery, mu: int) -> Instance:
    """Single-agent instance with m+2 goods encoding the knapsack.

    Goods 1..m carry the item values/weights, by position; good m+1 has
    odd value 2*mu + 1 and size equal to the capacity; good m+2 has zero
    value and size capacity + 1, so it can never be assigned.  Item values
    must be even so that bundle parity identifies whether good m+1 was
    taken, and item weights positive so that good m+1 fills the budget
    alone.
    """
    require_ints(mu=[mu])
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    if kp.capacity < 1:
        raise ValueError("gadget requires capacity >= 1")
    if any(v % 2 for v in kp.values):
        raise ValueError("gadget requires even item values")
    if 0 in kp.weights:
        raise ValueError("gadget requires positive item weights")
    values = (*kp.values, 2 * mu + 1, 0)
    sizes = (*kp.weights, kp.capacity, kp.capacity + 1)
    return Instance(
        n=1,
        m=len(kp.items) + 2,
        values=(values,),
        sizes=(sizes,),
        budgets=(kp.capacity,),
    )


def parity_probe(kp: KnapsackQuery, mu: int) -> str:
    """Parity ("even" or "odd") of the agent's value in an FEFx allocation
    of the gadget at mu.  The allocation is verified first; one that is not
    FEFx raises InternalError."""
    instance = build_gadget(kp, mu)
    result = compute_fefx(instance)
    if not verify_fefx(instance, result.allocation):
        raise InternalError(f"probe at mu={mu}: solver output is not FEFx")
    value = instance.bundle_value(0, result.allocation.bundles[0])
    return "odd" if value % 2 else "even"


def solve_knapsack_via_fefx(
    kp: KnapsackQuery,
    probe_trace: Optional[Callable[[int, str], None]] = None,
) -> int:
    """Knapsack optimum computed through an FEFx oracle.

    Weight-0 items belong to every optimum: their values are added, and
    the gadget holds only the items the knapsack DP would consider (none
    left: no probe).  Binary search for the smallest mu with an odd
    probe; the DP items' optimum is 2 * mu.  Odd values are doubled
    automatically and the result halved on output.
    """
    forced, rest = _split_forced(kp)
    base = sum(v for _, _, v in forced)
    if not rest:
        return base
    items, weights, values = zip(*rest)
    halve = any(v % 2 for v in values)
    if halve:
        values = tuple(2 * v for v in values)
    kp = KnapsackQuery(items, weights, values, kp.capacity)
    # Probes are even below v*/2 and odd at or above.  Every item left has
    # a positive value and fits the capacity, so v* > 0 and mu = 0 is even.
    lo, hi = 0, sum(kp.values)
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        parity = parity_probe(kp, mid)
        if probe_trace is not None:
            probe_trace(mid, parity)
        if parity == "odd":
            hi = mid
        else:
            lo = mid
    return base + (hi if halve else 2 * hi)


# -- Nash-welfare counterexample ----------------------------------------------

#: Both agents' values are doubled to make them integral; budgets and sizes
#: are already integers in the source construction.
MNW_VALUE_SCALE = 2


@dataclass(frozen=True)
class MnwFixture:
    instance: Instance
    nsw_allocation: FractionalAllocation  # Nash-welfare optimum, not FEF
    value_scale: int


def mnw_fixture() -> MnwFixture:
    """Two-agent, two-good instance whose Nash-welfare optimum has envy.

    Original (unscaled) data: both agents value good 1 at 1 and good 2 at
    1/2; sizes are (1,1) for agent 1 and (1,8) for agent 2; both budgets
    are 1.  Values are stored doubled (value_scale = 2); envy comparisons
    are scale-invariant per agent.

    The returned allocation x* assigns (1/30, 29/30) to agent 1 and
    (29/30, 1/240) to agent 2; it maximizes Nash social welfare yet agent
    1 envies agent 2's bundle.
    """
    instance = Instance(
        n=2,
        m=2,
        values=((2, 1), (2, 1)),
        sizes=((1, 1), (1, 8)),
        budgets=(1, 1),
    )
    x_star = FractionalAllocation(
        (
            (Fraction(1, 30), Fraction(29, 30)),
            (Fraction(29, 30), Fraction(1, 240)),
        )
    )
    return MnwFixture(instance, x_star, MNW_VALUE_SCALE)

