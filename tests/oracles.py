"""Independent brute-force oracles used to cross-check the solvers.

Everything here is deliberately naive: vertex enumeration with Gaussian
elimination for linear feasibility, full subset enumeration for knapsack
and envy questions.  None of it shares code with the package internals
beyond the data model.
"""

from fractions import Fraction
from itertools import combinations, product

from gapfair import Instance, IntegralAllocation
from gapfair.knapsack import KnapsackQuery, KnapsackSolution
from gapfair.lp import EQ, LE, LinearProgram

_BRUTE_LIMIT = 20


def solve_square(rows, rhs):
    """Solve a square rational system by Gaussian elimination; None if
    singular."""
    k = len(rows)
    a = [[Fraction(c) for c in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    for col in range(k):
        piv = next((r for r in range(col, k) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col]
        a[col] = [c / inv for c in a[col]]
        for r in range(k):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [c - f * p for c, p in zip(a[r], a[col])]
    return [a[r][k] for r in range(k)]


def _point_ok(lp: LinearProgram, point) -> bool:
    for j in range(lp.var_count):
        if not lp.lower[j] <= point[j] <= lp.upper[j]:
            return False
    for c in lp.constraints:
        lhs = sum((coef * point[j] for j, coef in c.coeffs.items()), Fraction(0))
        if c.relation == EQ and lhs != c.rhs:
            return False
        if c.relation == LE and lhs > c.rhs:
            return False
    return True


def lp_feasible_brute(lp: LinearProgram) -> bool:
    """Vertex-enumeration feasibility for box-bounded programs.

    A nonempty polytope inside a box has a vertex where var_count linearly
    independent constraints (rows taken as equalities, or bounds) are
    active, so trying every square subsystem is complete.
    """
    k = lp.var_count
    candidates = []
    for c in lp.constraints:
        row = [Fraction(0)] * k
        for j, coef in c.coeffs.items():
            row[j] = Fraction(coef)
        candidates.append((row, Fraction(c.rhs)))
    for j in range(k):
        unit = [Fraction(0)] * k
        unit[j] = Fraction(1)
        candidates.append((unit, Fraction(lp.lower[j])))
        candidates.append((unit, Fraction(lp.upper[j])))
    for combo in combinations(candidates, k):
        point = solve_square([row for row, _ in combo], [b for _, b in combo])
        if point is not None and _point_ok(lp, point):
            return True
    return False


def kns_brute(q: KnapsackQuery) -> KnapsackSolution:
    """Exhaustive knapsack over all subsets; |items| <= 20.  Among optimal
    subsets the one with the smallest bitmask (item i is bit i) wins."""
    k = len(q.items)
    if k > _BRUTE_LIMIT:
        raise ValueError(f"brute force limited to {_BRUTE_LIMIT} items")
    best_mask, best_value, best_weight = 0, 0, 0
    for mask in range(1 << k):
        weight = value = 0
        for i in range(k):
            if mask >> i & 1:
                weight += q.weights[i]
                value += q.values[i]
        if weight <= q.capacity and value > best_value:
            best_mask, best_value, best_weight = mask, value, weight
    subset = frozenset(q.items[i] for i in range(k) if best_mask >> i & 1)
    return KnapsackSolution(subset=subset, value=best_value, weight=best_weight)


def apx_kns_reference(q: KnapsackQuery, eps) -> KnapsackSolution:
    """The FPTAS with its scale K computed in Fraction, by full enumeration.

    Zero-weight positive-value items are always taken.  The r items of
    positive weight and value within the capacity have their values scaled
    to floor(v / K), K = max(eps * v_max / r, 1), v_max their largest
    value.  Among their subsets within the capacity, the largest scaled
    total wins, then the least weight, then the smallest bitmask (item i of
    the r is bit i), so the later item is excluded first.  r <= 20.
    """
    rows = list(zip(q.items, q.weights, q.values))
    forced = [g for g, w, v in rows if w == 0 and v > 0]
    rest = [(g, w, v) for g, w, v in rows if 0 < w <= q.capacity and v > 0]
    if len(rest) > _BRUTE_LIMIT:
        raise ValueError(f"brute force limited to {_BRUTE_LIMIT} items")
    chosen: list[int] = []
    if rest:
        scale = max(Fraction(eps) * max(v for _, _, v in rest) / len(rest), 1)
        scaled = [v // scale for _, _, v in rest]
        best = None
        for mask in range(1 << len(rest)):
            take = [i for i in range(len(rest)) if mask >> i & 1]
            weight = sum(rest[i][1] for i in take)
            key = (sum(scaled[i] for i in take), -weight, -mask)
            if weight <= q.capacity and (best is None or key > best[0]):
                best = (key, take)
        chosen = [rest[i][0] for i in best[1]]
    position = {g: i for i, g in enumerate(q.items)}
    subset = frozenset(forced + chosen)
    return KnapsackSolution(
        subset=subset,
        value=sum(q.values[position[g]] for g in subset),
        weight=sum(q.weights[position[g]] for g in subset),
    )


def best_subset_value_brute(instance: Instance, agent: int, goods) -> int:
    """Maximum value over all budget-feasible subsets (full enumeration)."""
    goods = sorted(goods)
    best = 0
    for r in range(len(goods) + 1):
        for combo in combinations(goods, r):
            if instance.is_feasible_bundle(agent, combo):
                best = max(best, instance.bundle_value(agent, combo))
    return best


def best_fractional_value_brute(instance: Instance, agent: int, target) -> Fraction:
    """Maximum value of a feasible fractional sub-assignment of `target`.

    The optimum of a fractional knapsack with per-good caps is attained
    with at most one partially taken good, so enumerating (fully-taken
    subset, split good) pairs is complete.
    """
    m = instance.m
    budget = instance.budgets[agent]
    best = Fraction(0)
    for r in range(m + 1):
        for full in combinations(range(m), r):
            size = sum(
                (Fraction(target[g]) * instance.size(agent, g) for g in full),
                Fraction(0),
            )
            if size > budget:
                continue
            val = sum(
                (Fraction(target[g]) * instance.value(agent, g) for g in full),
                Fraction(0),
            )
            best = max(best, val)
            for f in range(m):
                if f in full or target[f] == 0 or instance.size(agent, f) == 0:
                    continue
                frac = min(
                    Fraction(target[f]), (budget - size) / instance.size(agent, f)
                )
                best = max(best, val + frac * instance.value(agent, f))
    return best


def best_strict_subset_value_brute(instance: Instance, agent: int, goods) -> int:
    """Maximum value over all budget-feasible strict subsets of `goods`."""
    goods = sorted(goods)
    best = 0
    for r in range(len(goods)):  # strict subsets only
        for combo in combinations(goods, r):
            if instance.is_feasible_bundle(agent, combo):
                best = max(best, instance.bundle_value(agent, combo))
    return best


def fefx_among_agents_brute(
    instance: Instance, allocation: IntegralAllocation, eps=Fraction(0)
) -> bool:
    """No agent envies a feasible strict subset of another agent's bundle
    (the charity is not compared).  The swap loop keeps this after every
    swap."""
    for a in range(instance.n):
        own = instance.bundle_value(a, allocation.bundles[a])
        for b in range(instance.n):
            if b == a:
                continue
            best = best_strict_subset_value_brute(instance, a, allocation.bundles[b])
            if (1 - eps) * best > own:
                return False
    return True


def fefx_brute(instance: Instance, allocation: IntegralAllocation, eps=Fraction(0)) -> bool:
    """FEFx check by enumerating every feasible strict subset directly."""
    return fefx_among_agents_brute(instance, allocation, eps) and all(
        (1 - eps) * best_strict_subset_value_brute(instance, a, allocation.charity)
        <= instance.bundle_value(a, allocation.bundles[a])
        for a in range(instance.n)
    )


def replay_swaps(instance: Instance, swaps) -> list[IntegralAllocation]:
    """Every allocation a swap sequence passes through, the empty start
    included: swap i hands its goods to its agent as her whole bundle."""
    bundles = [frozenset()] * instance.n
    replayed = [IntegralAllocation(instance.m, tuple(bundles))]
    for record in swaps:
        bundles[record.agent] = record.goods
        replayed.append(IntegralAllocation(instance.m, tuple(bundles)))
    return replayed


def set_is_envied(instance: Instance, own_values, goods) -> bool:
    """Does any agent's best feasible subset of `goods` beat her own value?"""
    return any(
        best_subset_value_brute(instance, a, goods) > own_values[a]
        for a in range(instance.n)
    )


def minimal_envied_set_brute(instance: Instance, allocation: IntegralAllocation):
    """The restart scan for a minimal envied subset of the charity, with
    envy decided by full enumeration: while some agent envies the set minus
    a good, drop the lowest such good and scan again from the first.
    Returns the set and its first envier, or None if no agent envies the
    charity."""
    own = [instance.bundle_value(a, allocation.bundles[a]) for a in range(instance.n)]
    goods = set(allocation.charity)
    if not set_is_envied(instance, own, goods):
        return None
    while True:
        drop = [g for g in sorted(goods) if set_is_envied(instance, own, goods - {g})]
        if not drop:
            break
        goods.remove(drop[0])
    agent = next(
        a for a in range(instance.n) if best_subset_value_brute(instance, a, goods) > own[a]
    )
    return frozenset(goods), agent


def all_integral_allocations(instance: Instance):
    """Every assignment of goods to agents-or-charity (feasible or not)."""
    for assignment in product(range(instance.n + 1), repeat=instance.m):
        bundles = [set() for _ in range(instance.n)]
        for g, who in enumerate(assignment):
            if who < instance.n:
                bundles[who].add(g)
        yield IntegralAllocation(instance.m, tuple(frozenset(b) for b in bundles))


def fef_integral_exists(instance: Instance) -> bool:
    """Exhaustively search for an integral allocation where no agent
    envies any feasible subset of another bundle or of the charity."""
    for allocation in all_integral_allocations(instance):
        if not allocation.is_feasible(instance):
            continue
        own = [
            instance.bundle_value(a, allocation.bundles[a])
            for a in range(instance.n)
        ]
        if all(
            best_subset_value_brute(instance, a, goods) <= own[a]
            for a in range(instance.n)
            for goods in (
                [allocation.bundles[b] for b in range(instance.n) if b != a]
                + [allocation.charity]
            )
        ):
            return True
    return False
