"""Knapsack oracles: exact and FPTAS, over one kernel of non-dominated
(value, weight) states; the FPTAS feeds it floor-scaled values.

The exact subset has maximum value; among those, least weight; remaining
ties exclude the later item first.  These back the envy tests of the
indivisible pipeline: an agent envies a set of goods iff the best feasible
subset of it beats her own bundle.  Weights, values and capacities are
integers; the FPTAS accuracy parameter is an exact rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .instance import Instance, require_agent, require_exact, require_ints


@dataclass(frozen=True)
class KnapsackQuery:
    # Distinct labels, which are good indices in envy queries and 0..m-1
    # for a knapsack file; ties break by position.
    items: tuple[int, ...]
    weights: tuple[int, ...]
    values: tuple[int, ...]
    capacity: int

    def __post_init__(self) -> None:
        """Refuse duplicate items, and data other than one nonnegative int
        weight and value per item and a nonnegative int capacity."""
        weights, values, capacity = self.weights, self.values, self.capacity
        count = len(self.items)
        if len(set(self.items)) != count:
            raise ValueError("duplicate items in query")
        if len(weights) != count or len(values) != count:
            raise ValueError("weights/values length mismatch: they must align")
        require_ints(weights=weights, values=values, capacity=[capacity])
        if any(w < 0 for w in weights) or any(v < 0 for v in values) or capacity < 0:
            raise ValueError("weights, values and capacity must be nonnegative")


@dataclass(frozen=True)
class KnapsackSolution:
    subset: frozenset[int]
    value: int
    weight: int


def query_for_agent(instance: Instance, agent: int, goods: Iterable[int]) -> KnapsackQuery:
    require_agent(instance, agent)
    items = tuple(sorted(goods))
    if items and not (0 <= items[0] and items[-1] < instance.m):
        raise ValueError(f"goods {items} out of range [0, {instance.m})")
    sizes, values = instance.sizes[agent], instance.values[agent]
    return KnapsackQuery(
        items=items,
        weights=tuple(sizes[g] for g in items),
        values=tuple(values[g] for g in items),
        capacity=instance.budgets[agent],
    )


def _split_forced(q: KnapsackQuery):
    """Separate items the DP need not consider, as (item, weight, value).

    Zero-weight positive-value items are always taken; zero-value and
    over-capacity items are never taken.
    """
    forced: list[tuple[int, int, int]] = []
    rest: list[tuple[int, int, int]] = []
    for entry in zip(q.items, q.weights, q.values):
        _, w, v = entry
        if w == 0:
            if v > 0:
                forced.append(entry)
        elif v > 0 and w <= q.capacity:
            rest.append(entry)
    return forced, rest


def _knapsack(forced, rest, scaled: list[int], cap: int) -> KnapsackSolution:
    """`forced` plus the items of `rest` of largest scaled total within `cap`.

    fronts[i] maps each scaled total reachable by the first i items to its
    least weight, keeping only totals lighter than every larger total, so
    no front holds more than min(cap, sum(scaled)) + 1 states.  The
    backtrack keeps the least weight and excludes the later item on ties.
    """
    fronts = [{0: 0}]
    for (_, w, _), sv in zip(rest, scaled):
        merged = dict(fronts[-1])
        for t, wt in fronts[-1].items():
            if wt + w < merged.get(t + sv, cap + 1):
                merged[t + sv] = wt + w
        front, lightest = {}, cap + 1
        for t in sorted(merged, reverse=True):
            if merged[t] < lightest:
                front[t] = lightest = merged[t]
        fronts.append(front)
    chosen = list(forced)
    t = max(fronts[-1])
    for i in range(len(rest), 0, -1):
        if fronts[i - 1].get(t) != fronts[i][t]:
            chosen.append(rest[i - 1])
            t -= scaled[i - 1]
    return KnapsackSolution(
        subset=frozenset(g for g, _, _ in chosen),
        value=sum(v for _, _, v in chosen),
        weight=sum(w for _, w, _ in chosen),
    )


def kns_exact(q: KnapsackQuery) -> KnapsackSolution:
    """Maximum-value feasible subset.

    The subset is deterministic: maximum value; among those, least weight;
    remaining ties exclude the later item first.
    """
    forced, rest = _split_forced(q)
    return _knapsack(forced, rest, [v for _, _, v in rest], q.capacity)


def apx_kns(q: KnapsackQuery, eps: Fraction) -> KnapsackSolution:
    """Value-scaling FPTAS: feasible subset with value >= (1-eps) * optimum.

    Values v are scaled, in integers, to floor(v / K), K = max(eps * v_max
    / r, 1), where r and v_max are the number and largest value of the
    items the DP considers (K = 1 makes the run exact); the kernel picks
    the lightest subset reaching the largest scaled total.
    """
    require_exact("eps", eps)
    if not 0 < eps.numerator <= eps.denominator:
        raise ValueError("eps must lie in (0, 1]")
    forced, rest = _split_forced(q)
    scaled = [v for _, _, v in rest]
    num = eps.numerator * max(scaled, default=0)
    den = eps.denominator * len(rest)
    if num > den:  # K = num / den > 1
        scaled = [v * den // num for v in scaled]
    return _knapsack(forced, rest, scaled, q.capacity)
