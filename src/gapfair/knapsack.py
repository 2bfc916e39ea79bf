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

from .instance import Instance, require_exact, require_ints


def require_knapsack(weights, values, capacity, count: int) -> None:
    """Refuse knapsack data other than count nonnegative int weights and
    values and a nonnegative int capacity."""
    if len(weights) != count or len(values) != count:
        raise ValueError("weights/values length mismatch: they must align")
    require_ints(weights=weights, values=values, capacity=[capacity])
    if any(w < 0 for w in weights) or any(v < 0 for v in values) or capacity < 0:
        raise ValueError("weights, values and capacity must be nonnegative")


@dataclass(frozen=True)
class KnapsackQuery:
    items: tuple[int, ...]  # distinct good indices, ascending
    weights: tuple[int, ...]
    values: tuple[int, ...]
    capacity: int

    def __post_init__(self) -> None:
        if len(set(self.items)) != len(self.items):
            raise ValueError("duplicate items in query")
        require_knapsack(self.weights, self.values, self.capacity, len(self.items))


@dataclass(frozen=True)
class KnapsackSolution:
    subset: frozenset[int]
    value: int
    weight: int


def query_for_agent(instance: Instance, agent: int, goods: Iterable[int]) -> KnapsackQuery:
    items = tuple(sorted(goods))
    return KnapsackQuery(
        items=items,
        weights=tuple(instance.size(agent, g) for g in items),
        values=tuple(instance.value(agent, g) for g in items),
        capacity=instance.budgets[agent],
    )


def _split_forced(q: KnapsackQuery):
    """Separate items the DP need not consider.

    Zero-weight positive-value items are always taken; zero-value and
    over-capacity items are never taken.
    """
    forced: list[int] = []
    rest: list[tuple[int, int, int]] = []  # (item, weight, value)
    for item, w, v in zip(q.items, q.weights, q.values):
        if w == 0:
            if v > 0:
                forced.append(item)
            continue
        if v == 0 or w > q.capacity:
            continue
        rest.append((item, w, v))
    return forced, rest


def _solution(q: KnapsackQuery, subset: frozenset[int]) -> KnapsackSolution:
    idx = {item: i for i, item in enumerate(q.items)}
    return KnapsackSolution(
        subset=subset,
        value=sum(q.values[idx[g]] for g in subset),
        weight=sum(q.weights[idx[g]] for g in subset),
    )


def _best_subset(rest, scaled: list[int], cap: int) -> list[int]:
    """Items of `rest` reaching the largest scaled total within `cap`.

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
    chosen: list[int] = []
    t = max(fronts[-1])
    for i in range(len(rest), 0, -1):
        if fronts[i - 1].get(t) != fronts[i][t]:
            chosen.append(rest[i - 1][0])
            t -= scaled[i - 1]
    return chosen


def kns_exact(q: KnapsackQuery) -> KnapsackSolution:
    """Maximum-value feasible subset.

    The subset is deterministic: maximum value; among those, least weight;
    remaining ties exclude the later item first.
    """
    forced, rest = _split_forced(q)
    chosen = _best_subset(rest, [v for _, _, v in rest], q.capacity)
    return _solution(q, frozenset(forced) | frozenset(chosen))


def apx_kns(q: KnapsackQuery, eps: Fraction) -> KnapsackSolution:
    """Value-scaling FPTAS: feasible subset with value >= (1-eps) * optimum.

    Values v are scaled to floor(v / K), K = eps * v_max / |items| (K = 1
    when the formula yields less than 1, making the run exact), and the
    kernel picks the lightest subset reaching the largest scaled total.
    """
    eps = require_exact("eps", eps)
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    forced, rest = _split_forced(q)
    if not rest:
        return _solution(q, frozenset(forced))
    vmax = max(v for _, _, v in rest)
    scale = max(eps * vmax / len(rest), 1)
    scaled = [v * scale.denominator // scale.numerator for _, _, v in rest]
    chosen = _best_subset(rest, scaled, q.capacity)
    return _solution(q, frozenset(forced) | frozenset(chosen))
