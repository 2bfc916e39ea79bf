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
    CHARITY,
    FractionalAllocation,
    Instance,
    InternalError,
    augment,
    check_allocation,
    check_shape,
    density_ordering,
    require_agent,
    require_ints,
    strip_fictional,
)
from .lp import EQ, LE, LinearProgram, feasible, resume


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


def _check_tau(instance: Instance, tau) -> tuple[int, ...]:
    tau = tuple(tau)
    require_ints(threshold=tau)
    if len(tau) != instance.n:
        raise ValueError("threshold vector must have one entry per agent")
    top = instance.m + 1  # == (base good count) + 2
    for t in tau:
        if not 1 <= t <= top:
            raise ValueError(f"threshold {t} outside [1, {top}]")
    return tau


def internal_edge(instance: Instance, tau) -> InternalEdgeSets:
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


def _step(instance: Instance, tau, k: int):
    """LP2(tau) as a step from LP2(tau - e_k), in resume()'s form.

    Agent k's edge good g turns internal and the next good e in its
    ordering becomes its edge.  The new column x[k,e] enters k's budget row
    and, if e is supported already, e's supply row; g's supply row turns
    =; the new rows are the dominance rows on g over k's fellow holders,
    those on e over k, and e's supply row if e was unsupported, in
    build_lp's order.
    """
    orders = [density_ordering(instance, a) for a in range(instance.n)]
    g, e = orders[k][tau[k] - 2 : tau[k]]
    new = (k, e)
    coeffs = {("budget", k): instance.size(k, e)}
    rows = []
    for a, order in enumerate(orders):
        if a == k:
            rows += [
                (("dom", k, b, g), {(b, g): 1, (k, g): -1}, LE, 0)
                for b in range(instance.n)
                if b != k and g in orders[b][: tau[b]]
            ]
        elif e in order[: tau[a] - 1]:
            rows.append((("dom", a, k, e), {new: 1, (a, e): -1}, LE, 0))
    if any(e in order[: tau[a]] for a, order in enumerate(orders) if a != k):
        coeffs["supply", e] = 1
    else:
        rows.append((("supply", e), {new: 1}, LE, 1))
    return [(new, 0, 1, coeffs)], [("supply", g)], rows


def check_density_domination(
    instance: Instance, allocation: FractionalAllocation, tau
) -> bool:
    """Exact check of the three density-domination condition groups."""
    tau = _check_tau(instance, tau)
    check_shape(instance, allocation)
    sets = internal_edge(instance, tau)
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

    LP1(tau) is solved cold: its point is the allocation.  Each trial
    LP2(tau + e_k) grows the last accepted LP2(tau) by one step (_step), so
    it resumes from that program's final tableau; an accepted trial's point
    is checked exactly against build_lp's program.
    """
    aug = augment(instance)
    n, m = instance.n, instance.m
    tau = [1] * n
    limit = n * (m + 1)
    iterations = 0
    history = [tuple(tau)]
    # LP2 at the initial tau has only <= rows with right-hand sides >= 0,
    # so its all-slack basis is feasible; every later tau is accepted only
    # once the selection step has found a point of it.  point() checks each
    # accepted LP2's point exactly against build_lp's program.
    lp, cols = build_lp(aug, tau, LE)
    accepted = resume(
        None,
        [(key, 0, 1, {}) for key in cols],
        (),
        [
            (c.key, {cols[j]: a for j, a in c.coeffs.items()}, c.relation, c.rhs)
            for c in lp.constraints
        ],
    )
    if accepted is None:
        raise InternalError("the relaxed program at tau = (1, ..., 1) is infeasible")
    accepted.point(lp, cols)
    while True:
        lp, cols = build_lp(aug, tau, EQ)
        result = feasible(lp)
        if result.feasible:
            break
        iterations += 1
        if iterations > limit:
            raise InternalError("threshold loop exceeded its n(m+1) bound")
        for k in range(n):
            # LP2 at tau_k = m+2 needs sum_a x[a,f] = 1 for the fictional
            # good f, but budget B_a caps x[a,f] at B_a / (2n max B) <= 1/(2n),
            # so the sum is at most 1/2: the program is infeasible.
            if tau[k] == m + 1:
                continue
            tau[k] += 1
            trial = resume(accepted, *_step(aug, tau, k))
            if trial is not None:
                trial.point(*build_lp(aug, tau, LE))
                accepted = trial
                break
            tau[k] -= 1
        else:
            raise InternalError(
                "no agent admits a feasible relaxed program; solver bug"
            )
        history.append(tuple(tau))
        if trace is not None:
            trace(iterations, tuple(tau))

    x = [[Fraction(0)] * aug.m for _ in range(n)]
    for (a, g), v in zip(cols, result.assignment):
        x[a][g] = v
    augmented = FractionalAllocation(tuple(map(tuple, x)))
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
    require_agent(instance, agent)
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
