"""Knapsack oracles: exact and FPTAS, over one kernel of Pareto fronts;
the FPTAS feeds it floor-scaled values.

A front is two ascending lists, weights and values, of the states
(weight, value) of some item subsets: each weighs at most the capacity and
each heavier state is worth strictly more, so a front holds at most
min(capacity, total value) + 1 states.  `_add` adds one item to a front
in one two-pointer merge, and `_best_within` finds the best pair of states
of two fronts within a capacity; the exact envy search combines them on
suffixes of the charity (`indivisible.find_minimal_envied_subset`).

The exact subset has maximum value; among those, least weight; remaining
ties exclude the later item first.  These back the envy tests of the
indivisible pipeline: an agent envies a set of goods iff the best feasible
subset of it beats her own bundle.  Weights, values and capacities are
integers; the FPTAS accuracy parameter is an exact rational.
"""

from __future__ import annotations

from bisect import bisect_left
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


def _add(front, w: int, v: int, cap: int):
    """The front of the states of `front`, each with and without one more
    item of weight w and value v, cut at cap.

    One two-pointer merge of the front with its copy shifted by (w, v),
    lightest first and, between two states of one weight, the more valuable
    first, keeps each state worth strictly more than every lighter one.
    """
    ws, ts = front
    k = len(ws)
    out_w: list[int] = []
    out_t: list[int] = []
    last = -1
    i = 0
    for sw, st in zip(ws, ts):
        sw += w
        if sw > cap:
            break
        st += v
        while i < k and (ws[i] < sw or ws[i] == sw and ts[i] >= st):
            if ts[i] > last:
                out_w.append(ws[i])
                out_t.append(ts[i])
                last = ts[i]
            i += 1
        if st > last:
            out_w.append(sw)
            out_t.append(st)
            last = st
    while i < k and ts[i] <= last:
        i += 1
    return out_w + ws[i:], out_t + ts[i:]


def _fronts(pairs, cap: int) -> list:
    """fronts[i]: the front of the subsets of the first i (weight, value)
    pairs, cut at cap."""
    fronts = [([0], [0])]
    for w, v in pairs:
        fronts.append(_add(fronts[-1], w, v, cap))
    return fronts


def _best_within(f1, f2, cap: int) -> int:
    """Largest t1 + t2 over states (w1, t1) of front f1 and (w2, t2) of
    front f2 with w1 + w2 <= cap; both fronts are cut at cap.

    One pass: f1 ascending, and the heaviest state of f2 that still fits,
    which only gets lighter.
    """
    (w1, t1), (w2, t2) = f1, f2
    j = len(w2) - 1
    best = 0
    for w, t in zip(w1, t1):
        while w + w2[j] > cap:
            j -= 1
        if t + t2[j] > best:
            best = t + t2[j]
    return best


def _knapsack(forced, rest, scaled: list[int], cap: int) -> KnapsackSolution:
    """`forced` plus the items of `rest` of largest scaled total within `cap`.

    fronts[i] holds the states of the first i items of `rest`.  The
    backtrack starts from the last front's most valuable state, the
    lightest of largest total, and excludes the later item whenever the
    previous front holds the same state.
    """
    fronts = _fronts(((w, sv) for (_, w, _), sv in zip(rest, scaled)), cap)
    chosen = list(forced)
    ws, ts = fronts[-1]
    w, t = ws[-1], ts[-1]
    for i in range(len(rest), 0, -1):
        ws, ts = fronts[i - 1]
        j = bisect_left(ws, w)
        if j == len(ws) or ws[j] != w or ts[j] != t:
            chosen.append(rest[i - 1])
            w -= rest[i - 1][1]
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
