"""Envy-free allocation of divisible goods under assignment constraints.

The solver walks an integer threshold vector tau upward: for each tau it
asks whether a "density dominating" allocation exists (a linear program),
and when the strict program is infeasible it advances the threshold of
some agent whose relaxed program stays feasible.  A density dominating
allocation is feasibly envy-free, which verify_fef checks independently
via exact fractional knapsacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .instance import (
    AugmentedInstance,
    FractionalAllocation,
    InfeasibleAllocationError,
    Instance,
    InternalError,
    augment,
    density_ordering,
    strip_fictional,
)
from .lp import EQ, LE, LinearProgram, feasible


@dataclass(frozen=True)
class InternalEdgeSets:
    """Per-agent internal goods (the tau_a - 1 densest) and edge good."""

    internal: tuple[tuple[int, ...], ...]
    edge: tuple[Optional[int], ...]

    @property
    def internal_union(self) -> frozenset[int]:
        return frozenset(g for row in self.internal for g in row)

    @property
    def edge_union(self) -> frozenset[int]:
        return frozenset(g for g in self.edge if g is not None)


def _check_tau(instance: AugmentedInstance, tau) -> tuple[int, ...]:
    tau = tuple(tau)
    if len(tau) != instance.n:
        raise ValueError("threshold vector must have one entry per agent")
    top = instance.m + 1  # == (base good count) + 2
    for t in tau:
        if not 1 <= t <= top:
            raise ValueError(f"threshold {t} outside [1, {top}]")
    return tau


def internal_edge(instance: AugmentedInstance, tau) -> InternalEdgeSets:
    """Internal/edge sets for a threshold vector over the augmented goods.

    tau_a = 1 means no internal goods; tau_a = m+2 means every good is
    internal and the edge set is empty.
    """
    tau = _check_tau(instance, tau)
    internal = []
    edge: list[Optional[int]] = []
    for a in range(instance.n):
        pi = density_ordering(instance, a)
        internal.append(pi[: tau[a] - 1])
        edge.append(pi[tau[a] - 1] if tau[a] <= instance.m else None)
    return InternalEdgeSets(tuple(internal), tuple(edge))


def _build_lp(instance: AugmentedInstance, tau, budget_relation: str) -> LinearProgram:
    tau = _check_tau(instance, tau)
    n, mg = instance.n, instance.m  # mg = m + 1 goods including fictional
    sets = internal_edge(instance, tau)
    var = lambda a, g: a * mg + g
    lp = LinearProgram(n * mg)

    # Dominance on internal goods.
    for a in range(n):
        for g in sets.internal[a]:
            for b in range(n):
                if b != a:
                    lp.add({var(b, g): 1, var(a, g): -1}, LE, 0)
    # Budget rows over the supported goods.
    for a in range(n):
        support = set(sets.internal[a])
        if sets.edge[a] is not None:
            support.add(sets.edge[a])
        lp.add(
            {var(a, g): instance.size(a, g) for g in sorted(support)},
            budget_relation,
            instance.budgets[a],
        )
    # Internal goods fully assigned.
    internal_union = sets.internal_union
    for g in sorted(internal_union):
        lp.add({var(a, g): 1 for a in range(n)}, EQ, 1)
    # Zero-fixing outside each agent's support (redundant under the
    # equality budgets but kept for a uniform construction).
    for a in range(n):
        support = set(sets.internal[a])
        if sets.edge[a] is not None:
            support.add(sets.edge[a])
        for h in range(mg):
            if h not in support:
                lp.add({var(a, h): 1}, EQ, 0)
    # Supply caps on non-internal goods.
    for h in range(mg):
        if h not in internal_union:
            lp.add({var(a, h): 1 for a in range(n)}, LE, 1)
    return lp


def build_lp1(instance: AugmentedInstance, tau) -> LinearProgram:
    """Strict program: budgets bind with equality."""
    return _build_lp(instance, tau, EQ)


def build_lp2(instance: AugmentedInstance, tau) -> LinearProgram:
    """Relaxed program: budgets as inequalities."""
    return _build_lp(instance, tau, LE)


def check_density_domination(
    instance: AugmentedInstance, allocation: FractionalAllocation, tau
) -> bool:
    """Exact check of the three density-domination condition groups."""
    tau = _check_tau(instance, tau)
    if allocation.n != instance.n or allocation.m != instance.m:
        raise ValueError("allocation dimensions do not match the instance")
    sets = internal_edge(instance, tau)
    x = allocation.x
    for a in range(instance.n):
        for g in sets.internal[a]:
            if any(x[a][g] < x[b][g] for b in range(instance.n)):
                return False
        support = set(sets.internal[a])
        if sets.edge[a] is not None:
            support.add(sets.edge[a])
        spent = sum((x[a][g] * instance.size(a, g) for g in support), Fraction(0))
        if spent != instance.budgets[a]:
            return False
    for g in sets.internal_union:
        if sum((x[a][g] for a in range(instance.n)), Fraction(0)) != 1:
            return False
    return True


@dataclass(frozen=True)
class DivisibleResult:
    allocation: FractionalAllocation  # over the m base goods
    augmented_allocation: FractionalAllocation  # over m+1 goods
    tau: tuple[int, ...]
    iterations: int
    tau_history: tuple[tuple[int, ...], ...]


def divisible_fef(
    instance: Instance,
    check_invariants: bool = False,
    trace: Optional[Callable[[int, tuple[int, ...]], None]] = None,
) -> DivisibleResult:
    """Compute a feasibly envy-free fractional allocation.

    Starts from tau = (1,...,1) and, while the strict program is
    infeasible, advances the lowest-index agent k whose relaxed program at
    tau + e_k is feasible.  The loop runs at most n(m+1) iterations.
    """
    aug = augment(instance)
    n, m = instance.n, instance.m
    tau = [1] * n
    limit = n * (m + 1)
    iterations = 0
    history = [tuple(tau)]
    lp2_known_feasible = False  # caches the selection step's LP2 answer
    while True:
        if (
            check_invariants
            and not lp2_known_feasible
            and not feasible(build_lp2(aug, tau)).feasible
        ):
            raise InternalError(
                f"loop invariant broken: relaxed program infeasible at {tau}"
            )
        result = feasible(build_lp1(aug, tau))
        if result.feasible:
            break
        iterations += 1
        if iterations > limit:
            raise InternalError("threshold loop exceeded its n(m+1) bound")
        for k in range(n):
            if tau[k] == m + 2:
                continue
            tau[k] += 1
            if feasible(build_lp2(aug, tau)).feasible:
                break
            tau[k] -= 1
        else:
            raise InternalError(
                "no agent admits a feasible relaxed program; solver bug"
            )
        history.append(tuple(tau))
        if trace is not None:
            trace(iterations, tuple(tau))

    mg = aug.m
    z = result.assignment
    rows = tuple(
        tuple(z[a * mg + g] for g in range(mg)) for a in range(n)
    )
    augmented = FractionalAllocation(rows)
    if not check_density_domination(aug, augmented, tau):
        raise InternalError("terminal allocation is not density-dominated")
    return DivisibleResult(
        allocation=strip_fictional(augmented),
        augmented_allocation=augmented,
        tau=tuple(tau),
        iterations=iterations,
        tau_history=tuple(history),
    )


def best_feasible_value(
    instance: Instance, agent: int, target: tuple[Fraction, ...]
) -> Fraction:
    """Maximum value the agent can extract from a fractional target vector.

    Exact bounded fractional knapsack: goods in decreasing density order
    (ties by ascending index), each taken up to the target fraction, with
    the last good split at the budget boundary.
    """
    remaining = Fraction(instance.budgets[agent])
    total = Fraction(0)
    for g in density_ordering(instance, agent):
        if remaining == 0:
            break
        if instance.value(agent, g) == 0 or target[g] == 0:
            continue
        s = instance.size(agent, g)
        take = min(target[g], remaining / s)
        total += take * instance.value(agent, g)
        remaining -= take * s
    return total


@dataclass(frozen=True)
class FefViolation:
    agent: int
    target: int | str  # other agent index, or "charity"
    own_value: Fraction
    best_value: Fraction


def fef_witness(
    instance: Instance, allocation: FractionalAllocation
) -> Optional[FefViolation]:
    """First feasible-envy violation in (agent, target) scan order, if any."""
    if allocation.n != instance.n or allocation.m != instance.m:
        raise ValueError("allocation dimensions do not match the instance")
    if not allocation.is_feasible(instance):
        raise InfeasibleAllocationError("allocation violates a budget")
    charity = allocation.charity
    for a in range(instance.n):
        own = allocation.agent_value(instance, a)
        targets: list[tuple[int | str, tuple[Fraction, ...]]] = [
            (b, allocation.x[b]) for b in range(instance.n) if b != a
        ]
        targets.append(("charity", charity))
        for label, vec in targets:
            best = best_feasible_value(instance, a, vec)
            if best > own:
                return FefViolation(a, label, own, best)
    return None


def verify_fef(instance: Instance, allocation: FractionalAllocation) -> bool:
    """True iff no agent envies any feasible sub-assignment of another
    agent's bundle or of the charity."""
    return fef_witness(instance, allocation) is None
