"""Envy-free allocation of divisible goods under assignment constraints.

The solver walks an integer threshold vector tau upward: for each tau it
asks whether a "density dominating" allocation exists (a linear program),
and when the strict program is infeasible it advances the threshold of
some agent whose relaxed program stays feasible.  A density dominating
allocation is feasibly envy-free, which verify_fef checks independently
via exact fractional knapsacks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Optional

from .instance import (
    CHARITY,
    FractionalAllocation,
    Instance,
    InternalError,
    augment,
    check_allocation,
    check_shape,
    density_ordering,
    require_agent,
    require_exact,
    require_ints,
    strip_fictional,
)
from .lp import EQ, LE, Constraint, LinearProgram, _satisfies, feasible


@dataclass(frozen=True)
class InternalEdgeSets:
    """Per-agent internal goods (the tau_a - 1 densest) and edge good."""

    internal: tuple[tuple[int, ...], ...]
    edge: tuple[Optional[int], ...]

    @property
    def internal_union(self) -> frozenset[int]:
        return frozenset(g for row in self.internal for g in row)

    @property
    def support(self) -> tuple[tuple[int, ...], ...]:
        """Per agent, the goods it may hold (internal goods and edge), ascending."""
        return tuple(
            tuple(sorted(row if e is None else row + (e,)))
            for row, e in zip(self.internal, self.edge)
        )


def internal_edge(instance: Instance, tau) -> InternalEdgeSets:
    """Internal/edge sets for a threshold vector over the augmented goods.

    tau_a = 1 means no internal goods; tau_a = m+2 means every good is
    internal and the edge set is empty.
    """
    tau = tuple(tau)
    require_ints(threshold=tau)
    if len(tau) != instance.n:
        raise ValueError("threshold vector must have one entry per agent")
    top = instance.m + 1  # == (base good count) + 2
    for t in tau:
        if not 1 <= t <= top:
            raise ValueError(f"threshold {t} outside [1, {top}]")
    return _sets([density_ordering(instance, a) for a in range(instance.n)], tau)


def _sets(orders, tau) -> InternalEdgeSets:
    """internal_edge's sets from the agents' density orders, tau unchecked."""
    return InternalEdgeSets(
        tuple(pi[: t - 1] for pi, t in zip(orders, tau)),
        tuple(pi[t - 1] if t <= len(pi) else None for pi, t in zip(orders, tau)),
    )


def build_lp(
    instance: Instance, tau, budget_relation: str
) -> tuple[LinearProgram, list[tuple[int, int]]]:
    """Threshold program over the augmented instance: LP1(tau) with EQ
    budgets, LP2(tau) with LE budgets.

    Only the x[a,g] with g in agent a's support are variables; every other
    entry is zero.  Returns the program and its column map: variable j is
    x[cols[j]], agent-major with goods ascending.  Each row is keyed by what
    it says, the same at every tau: ("dom", a, b, g) for x[b,g] <= x[a,g],
    ("budget", a) and ("supply", g).
    """
    sets = internal_edge(instance, tau)
    support = sets.support
    cols = [(a, g) for a in range(instance.n) for g in support[a]]
    var = {ag: j for j, ag in enumerate(cols)}
    holders: dict[int, list[int]] = {}  # good -> agents supporting it, ascending
    for a, g in cols:
        holders.setdefault(g, []).append(a)
    lp = LinearProgram(len(cols))

    # Dominance on internal goods; an agent without g in its support holds none.
    for a in range(instance.n):
        for g in sets.internal[a]:
            for b in holders[g]:
                if b != a:
                    lp.add({var[b, g]: 1, var[a, g]: -1}, LE, 0, ("dom", a, b, g))
    for a in range(instance.n):
        lp.add(
            {var[a, g]: instance.size(a, g) for g in support[a]},
            budget_relation,
            instance.budgets[a],
            ("budget", a),
        )
    # Internal goods fully assigned; supply caps on the other supported goods.
    internal_union = sets.internal_union
    for g in sorted(internal_union):
        lp.add({var[a, g]: 1 for a in holders[g]}, EQ, 1, ("supply", g))
    for g in sorted(holders):
        if g not in internal_union:
            lp.add({var[a, g]: 1 for a in holders[g]}, LE, 1, ("supply", g))
    return lp, cols


def _edge_program(instance: Instance, sets: InternalEdgeSets, rel: str) -> LinearProgram:
    """build_lp's program over the edge amounts alone: variable a is
    y_a = x[a, e_a], for every agent a, which must have an edge good.

    With H_g the agents holding g internally and E_g the agents whose edge
    is g, build_lp's rows tie each x[a, g] of g internal to a to one share
    s_g = (1 - sum of y over E_g) / |H_g|.  What is left of its program:
    |H_g| * y_b + sum of y over E_g <= 1 for b in E_g and g internal
    (x[b, g] <= s_g, which also gives s_g >= 0), the supply cap sum of y
    over E_g <= 1 for each other edge good g, and each budget row with s_g
    substituted, scaled by the lcm of the |H_g| it holds.  So both
    programs have the same points, and the same verdict.  Every entry is a
    nonzero int, checked once, when feasible() validates the program.
    """
    takers, share = _takers_and_shares(sets)
    rows = []
    for g in sorted(takers):
        takes = takers[g]
        if g not in share:
            rows.append(Constraint(dict.fromkeys(takes, 1), LE, 1))
        else:
            for b in takes:
                row = dict.fromkeys(takes, 1)
                row[b] += share[g]
                rows.append(Constraint(row, LE, 1))
    for a, (internal, e) in enumerate(zip(sets.internal, sets.edge)):
        scale = lcm(*(share[g] for g in internal))
        row = {a: scale * instance.size(a, e)}
        rhs = scale * instance.budgets[a]
        for g in internal:
            w = instance.size(a, g) * scale // share[g]
            rhs -= w
            for b in takers.get(g, ()):
                row[b] = row.get(b, 0) - w
        rows.append(Constraint(row, rel, rhs))
    return LinearProgram(instance.n, rows)


def _takers_and_shares(sets: InternalEdgeSets):
    """Per good g, E_g (ascending) and, for g internal, |H_g|."""
    takers: dict[int, list[int]] = {}
    for b, g in enumerate(sets.edge):
        takers.setdefault(g, []).append(b)
    return takers, Counter(g for internal in sets.internal for g in internal)


def _edge_allocation(instance: Instance, sets: InternalEdgeSets, y) -> FractionalAllocation:
    """The allocation of build_lp's program at the point y of _edge_program:
    x[a, e_a] = y_a and x[a, g] = s_g for each g internal to a."""
    takers, share = _takers_and_shares(sets)
    x = [[Fraction(0)] * instance.m for _ in range(instance.n)]
    for a, e in enumerate(sets.edge):
        x[a][e] = y[a]
    s = {
        g: (1 - sum((y[b] for b in takers.get(g, ())), Fraction(0))) / h
        for g, h in share.items()
    }
    for a, internal in enumerate(sets.internal):
        for g in internal:
            x[a][g] = s[g]
    return FractionalAllocation(tuple(map(tuple, x)))


def check_density_domination(
    instance: Instance, allocation: FractionalAllocation, tau
) -> bool:
    """Exact check of the three density-domination condition groups."""
    sets = internal_edge(instance, tau)  # checks tau
    check_shape(instance, allocation)
    x = allocation.x
    for a, support in enumerate(sets.support):
        for g in sets.internal[a]:
            if any(x[a][g] < x[b][g] for b in range(instance.n)):
                return False
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
    trace: Optional[Callable[[int, tuple[int, ...]], None]] = None,
) -> DivisibleResult:
    """Compute a feasibly envy-free fractional allocation.

    Starts from tau = (1,...,1) and, while the strict program is
    infeasible, advances the lowest-index agent k whose relaxed program at
    tau + e_k is feasible.  Agents at tau_k = m+1 are skipped without a
    solve, since no budget affords the fictional good that m+2 makes
    internal.  The loop runs at most n(m+1) iterations.

    Each program, LP1(tau) and every trial LP2(tau + e_k), is decided
    cold over the n edge amounts (_edge_program), on sets cut from density
    orders read once per solve.  The terminal LP1's point gives the
    allocation, checked exactly against build_lp's LP1(tau) and for density
    domination.
    """
    aug = augment(instance)
    n, m = instance.n, instance.m
    orders = [density_ordering(aug, a) for a in range(n)]
    tau = [1] * n
    limit = n * (m + 1)
    history = [tuple(tau)]  # one entry per iteration after the first
    while True:
        sets = _sets(orders, tau)
        result = feasible(_edge_program(aug, sets, EQ))
        if result.feasible:
            break
        if len(history) > limit:
            raise InternalError("threshold loop exceeded its n(m+1) bound")
        for k in range(n):
            # LP2 at tau_k = m+2 needs sum_a x[a,f] = 1 for the fictional
            # good f, but budget B_a caps x[a,f] at B_a / (2n max B) <= 1/(2n),
            # so the sum is at most 1/2: the program is infeasible.
            if tau[k] == m + 1:
                continue
            tau[k] += 1
            if feasible(_edge_program(aug, _sets(orders, tau), LE)).feasible:
                break
            tau[k] -= 1
        else:
            raise InternalError(
                "no agent admits a feasible relaxed program; solver bug"
            )
        history.append(tuple(tau))
        if trace is not None:
            trace(len(history) - 1, tuple(tau))

    augmented = _edge_allocation(aug, sets, result.assignment)
    lp, cols = build_lp(aug, tau, EQ)
    if not _satisfies(lp, tuple(augmented.x[a][g] for a, g in cols)):
        raise InternalError("terminal allocation does not satisfy LP1(tau)")
    if not check_density_domination(aug, augmented, tau):
        raise InternalError("terminal allocation is not density-dominated")
    return DivisibleResult(
        allocation=strip_fictional(augmented),
        augmented_allocation=augmented,
        tau=tuple(tau),
        iterations=len(history) - 1,
        tau_history=tuple(history),
    )


def best_feasible_value(
    instance: Instance, agent: int, target: tuple[Fraction, ...]
) -> Fraction:
    """Maximum value the agent can extract from a fractional target vector.

    Exact bounded fractional knapsack: goods in decreasing density order
    (ties by ascending index), each taken up to the target fraction, with
    the last good split at the budget boundary.  The target holds one
    int or Fraction in [0, 1] per good.
    """
    require_agent(instance, agent)
    if len(target) != instance.m:
        raise ValueError(f"target: expected {instance.m} entries, got {len(target)}")
    for t in target:
        if not 0 <= require_exact("target", t).numerator <= t.denominator:
            raise ValueError(f"target: entry {t} outside [0, 1]")
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
    target: int | str  # other agent index, or CHARITY
    own_value: Fraction
    best_value: Fraction


def fef_witness(
    instance: Instance, allocation: FractionalAllocation
) -> Optional[FefViolation]:
    """First feasible-envy violation in (agent, target) scan order, if any."""
    check_allocation(instance, allocation)
    charity = allocation.charity
    for a in range(instance.n):
        own = allocation.agent_value(instance, a)
        targets: list[tuple[int | str, tuple[Fraction, ...]]] = [
            (b, allocation.x[b]) for b in range(instance.n) if b != a
        ]
        targets.append((CHARITY, charity))
        for label, vec in targets:
            best = best_feasible_value(instance, a, vec)
            if best > own:
                return FefViolation(a, label, own, best)
    return None


def verify_fef(instance: Instance, allocation: FractionalAllocation) -> bool:
    """True iff no agent envies any feasible sub-assignment of another
    agent's bundle or of the charity."""
    return fef_witness(instance, allocation) is None
