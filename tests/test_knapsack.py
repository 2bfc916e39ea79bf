"""Knapsack oracle tests: exact DP vs brute force, FPTAS guarantees."""

import random
import time
from fractions import Fraction
from itertools import product
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gapfair import (
    Instance,
    KnapsackQuery,
    apx_kns,
    kns_exact,
    query_for_agent,
)
from gapfair import knapsack
from gapfair.knapsack import _best_within, _fronts
from oracles import apx_kns_reference, knapsack_dict_dp, kns_brute, pareto_front_brute
from test_knapsack_outputs import EPSILONS


def query(weights, values, capacity, items=None):
    items = tuple(range(len(weights))) if items is None else tuple(items)
    return KnapsackQuery(items, tuple(weights), tuple(values), capacity)


@st.composite
def queries(draw, max_items=8, max_weight=9, max_value=12, max_capacity=15):
    k = draw(st.integers(0, max_items))
    return query(
        [draw(st.integers(0, max_weight)) for _ in range(k)],
        [draw(st.integers(0, max_value)) for _ in range(k)],
        draw(st.integers(0, max_capacity)),
    )


@st.composite
def labelled_queries(draw, **bounds):
    """queries() with distinct item labels in any order, so that a label
    and its position in the query differ."""
    q = draw(queries(**bounds))
    k = len(q.items)
    items = draw(st.lists(st.integers(0, 99), min_size=k, max_size=k, unique=True))
    return KnapsackQuery(tuple(items), q.weights, q.values, q.capacity)


class TestValidation:
    def test_duplicate_items(self):
        with pytest.raises(ValueError, match="duplicate"):
            query([1, 1], [1, 1], 2, items=(0, 0))

    def test_misaligned_rows(self):
        with pytest.raises(ValueError, match="align"):
            KnapsackQuery((0, 1), (1,), (1, 1), 2)

    def test_negative_inputs(self):
        with pytest.raises(ValueError):
            query([-1], [1], 2)
        with pytest.raises(ValueError):
            query([1], [1], -1)

    def test_refusal_messages(self):
        with pytest.raises(ValueError, match="mismatch"):
            query([1, 2], [1], 3)
        with pytest.raises(ValueError, match="nonnegative"):
            query([1], [-2], 3)
        with pytest.raises(ValueError, match="capacity"):
            query([1], [2], -1)

    @pytest.mark.parametrize(
        "bad", [Fraction(1, 2), 0.5, True, Fraction(1), Fraction(2)]
    )
    def test_non_integer_inputs(self, bad):
        with pytest.raises(ValueError, match="weights"):
            query([bad], [1], 2)
        with pytest.raises(ValueError, match="values"):
            query([1], [bad], 2)
        with pytest.raises(ValueError, match="capacity"):
            query([1], [1], bad)


class TestExact:
    def test_classic_example(self):
        q = query([1, 3, 4, 5], [1, 4, 5, 7], 7)
        sol = kns_exact(q)
        assert sol.value == 9
        assert sol.subset == frozenset({1, 2})
        assert sol.weight == 7

    def test_zero_capacity(self):
        sol = kns_exact(query([1, 2], [5, 5], 0))
        assert sol.value == 0 and sol.subset == frozenset()

    def test_zero_weight_positive_value_always_taken(self):
        sol = kns_exact(query([0, 3], [4, 5], 2))
        assert sol.subset == frozenset({0})
        assert sol.value == 4

    def test_zero_value_items_dropped(self):
        sol = kns_exact(query([1, 1], [0, 3], 2))
        assert sol.subset == frozenset({1})

    def test_solution_reports_exact_totals(self):
        q = query([2, 3], [3, 4], 5)
        sol = kns_exact(q)
        assert sol.value == 7 and sol.weight == 5

    @settings(max_examples=200, deadline=None)
    @given(queries())
    def test_matches_brute_force(self, q):
        exact, brute = kns_exact(q), kns_brute(q)
        assert exact.value == brute.value
        assert exact.weight <= q.capacity
        assert sum(q.values[q.items.index(g)] for g in exact.subset) == exact.value

    def test_lightest_optimum_wins(self):
        # Either item alone reaches the optimum 1; item 1 is lighter.
        sol = kns_exact(KnapsackQuery((0, 1), (2, 1), (1, 1), 2))
        assert sol.subset == frozenset({1})

    def test_remaining_ties_exclude_the_later_item(self):
        assert kns_exact(query([2, 2, 2], [3, 3, 3], 4)).subset == frozenset({0, 1})

    @settings(max_examples=300, deadline=None)
    @given(queries())
    def test_weight_is_least_over_optimal_subsets(self, q):
        totals = [
            (sum(w for w, t in zip(q.weights, take) if t),
             sum(v for v, t in zip(q.values, take) if t))
            for take in product((0, 1), repeat=len(q.items))
        ]
        opt = kns_brute(q).value
        lightest = min(w for w, v in totals if v == opt and w <= q.capacity)
        assert kns_exact(q).weight == lightest

    def test_huge_capacity_small_values(self):
        rng = random.Random(0)
        q = query(
            [rng.randint(1, 2 * 10**11) for _ in range(20)],
            [rng.randint(1, 10) for _ in range(20)],
            10**12,
        )
        start = time.perf_counter()
        sol = kns_exact(q)
        assert time.perf_counter() - start < 1
        assert sol.weight <= q.capacity < sum(q.weights)

    @settings(max_examples=60, deadline=None)
    @given(queries())
    def test_deterministic(self, q):
        assert kns_exact(q).subset == kns_exact(q).subset

    @settings(max_examples=80, deadline=None)
    @given(queries(max_items=6), st.integers(0, 5))
    def test_monotone_in_capacity(self, q, extra):
        bigger = KnapsackQuery(q.items, q.weights, q.values, q.capacity + extra)
        assert kns_exact(bigger).value >= kns_exact(q).value


class TestBrute:
    def test_item_limit(self):
        q = query([1] * 21, [1] * 21, 3)
        with pytest.raises(ValueError, match="20"):
            kns_brute(q)


class TestApprox:
    def test_rejects_bad_eps(self):
        q = query([1], [1], 1)
        for eps in (Fraction(0), Fraction(2), Fraction(-1, 2), 0.5, 1.0, True):
            with pytest.raises(ValueError, match="eps"):
                apx_kns(q, eps)

    def test_exact_when_scale_clamps_to_one(self):
        # eps * vmax / k < 1 forces K = 1, i.e. an exact run.
        q = query([1, 3, 4, 5], [1, 4, 5, 7], 7)
        assert apx_kns(q, Fraction(1, 100)).value == 9

    def test_zero_weight_items_survive(self):
        sol = apx_kns(query([0, 1], [3, 5], 0), Fraction(1, 2))
        assert sol.subset == frozenset({0})

    @settings(max_examples=150, deadline=None)
    @given(queries(), st.sampled_from([Fraction(1, 2), Fraction(1, 5), Fraction(1, 10)]))
    def test_two_sided_bound(self, q, eps):
        opt = kns_brute(q).value
        sol = apx_kns(q, eps)
        assert sol.weight <= q.capacity
        assert (1 - eps) * opt <= sol.value <= opt
        assert sum(q.values[q.items.index(g)] for g in sol.subset) == sol.value


class TestIntegerScale:
    """apx_kns scales in integers exactly as the Fraction formula
    floor(v / max(eps * v_max / r, 1)) does, and every answer's totals are
    the sums over its subset."""

    @settings(max_examples=300, deadline=None)
    @given(labelled_queries(max_value=400), st.sampled_from([*EPSILONS, 1]))
    @example(query([1, 2, 3], [1, 2, 3], 5), Fraction(1, 2))  # K < 1
    @example(query([1, 2], [20, 7], 3), Fraction(1, 10))  # K = 1 exactly
    @example(query([1, 1, 1], [3, 1, 2], 2), 1)  # K = 1 exactly, int eps
    @example(query([1, 2], [21, 7], 3), Fraction(1, 10))  # K just above 1
    @example(query([2, 3, 4], [90, 40, 55], 6), Fraction(1, 4))  # K > 1
    @example(query([0, 5, 1], [0, 9, 0], 4), Fraction(1, 2))  # empty rest
    @example(query([0, 0, 3], [4, 0, 1], 2), Fraction(1, 20))  # forced only
    @example(query([0, 0], [4, 6], 0), 1)  # forced only, zero capacity
    def test_matches_fraction_scale(self, q, eps):
        assert apx_kns(q, eps) == apx_kns_reference(q, eps)

    @settings(max_examples=200, deadline=None)
    @given(labelled_queries(max_value=400), st.sampled_from([None, *EPSILONS]))
    def test_totals_are_sums_over_subset(self, q, eps):
        sol = kns_exact(q) if eps is None else apx_kns(q, eps)
        position = {g: i for i, g in enumerate(q.items)}
        assert sol.value == sum(q.values[position[g]] for g in sol.subset)
        assert sol.weight == sum(q.weights[position[g]] for g in sol.subset)
        assert sol.weight <= q.capacity


@st.composite
def items_and_capacity(draw, max_items=7, max_weight=9, max_value=6, max_capacity=15):
    """(weight, value) pairs and a capacity: zero weights, zero values,
    items heavier than the capacity and capacity 0 all come up."""
    k = draw(st.integers(0, max_items))
    pairs = [
        (draw(st.integers(0, max_weight)), draw(st.integers(0, max_value)))
        for _ in range(k)
    ]
    return pairs, draw(st.integers(0, max_capacity))


class TestFronts:
    """The front primitives against full enumeration: `_add`, through
    `_fronts`, keeps exactly the Pareto states of all subsets within the
    capacity, and `_best_within` finds the best pair of states that fits."""

    @settings(max_examples=300, deadline=None)
    @given(items_and_capacity())
    @example(([(0, 3), (0, 0), (2, 5)], 0))  # capacity 0 keeps the zero weights
    @example(([(4, 2), (20, 9), (4, 2)], 5))  # an item over the capacity, a repeat
    @example(([(3, 0), (0, 4), (3, 4)], 6))  # zero value and zero weight
    @example(([(2, 3), (3, 2), (5, 5)], 5))  # two states of weight 5 and value 5
    def test_each_prefix_front_is_the_pareto_set(self, case):
        pairs, cap = case
        fronts = _fronts(pairs, cap)
        assert len(fronts) == len(pairs) + 1
        for i, (ws, ts) in enumerate(fronts):
            assert (list(ws), list(ts)) == pareto_front_brute(pairs[:i], cap)

    @settings(max_examples=300, deadline=None)
    @given(items_and_capacity(), items_and_capacity())
    @example(([(0, 2)], 0), ([(0, 3), (1, 9)], 7))  # capacity 0
    @example(([(9, 5)], 3), ([(8, 1), (0, 0)], 7))  # nothing but zero weights fit
    def test_best_within_matches_a_brute_force_merge(self, first, second):
        (left, cap), (right, _) = first, second
        f1, f2 = pareto_front_brute(left, cap), pareto_front_brute(right, cap)
        best = max(
            t1 + t2
            for w1, t1 in zip(*f1)
            for w2, t2 in zip(*f2)
            if w1 + w2 <= cap
        )
        assert _best_within(f1, f2, cap) == best
        q = query([w for w, _ in left + right], [v for _, v in left + right], cap)
        assert best == kns_brute(q).value


class TestKernelMatchesTheDictDp:
    """`kns_exact` and `apx_kns` return exactly the `KnapsackSolution` of
    the dict DP the front kernel replaced (`oracles.knapsack_dict_dp`),
    ties included: the second strategy draws many equal weights and
    values."""

    @settings(max_examples=500, deadline=None)
    @given(
        st.one_of(
            labelled_queries(max_value=400),
            labelled_queries(max_items=10, max_weight=3, max_value=3, max_capacity=8),
        ),
        st.sampled_from([None, *EPSILONS]),
    )
    @example(query([2, 2, 2], [3, 3, 3], 4), None)
    @example(KnapsackQuery((0, 1), (2, 1), (1, 1), 2), None)
    def test_same_solution(self, q, eps):
        solve = (lambda: kns_exact(q)) if eps is None else (lambda: apx_kns(q, eps))
        with mock.patch.object(knapsack, "_knapsack", knapsack_dict_dp):
            reference = solve()
        assert solve() == reference


class TestQueryForAgent:
    def test_pulls_agent_rows(self):
        inst = Instance(
            n=2,
            m=3,
            values=((4, 2, 1), (1, 1, 6)),
            sizes=((2, 1, 1), (1, 2, 3)),
            budgets=(3, 4),
        )
        q = query_for_agent(inst, 1, {2, 0})
        assert q.items == (0, 2)
        assert q.weights == (1, 3)
        assert q.values == (1, 6)
        assert q.capacity == 4

    INSTANCE = Instance(2, 3, ((4, 2, 1), (1, 1, 6)), ((2, 1, 1), (1, 2, 3)), (3, 4))

    @pytest.mark.parametrize("agent", [-1, 2, True, 1.0])
    def test_agent_out_of_range(self, agent):
        with pytest.raises(ValueError, match="agent index"):
            query_for_agent(self.INSTANCE, agent, [0])

    @pytest.mark.parametrize("goods", [[-1], [0, 3], [-1, 1, 5]])
    def test_goods_out_of_range(self, goods):
        with pytest.raises(ValueError, match="out of range"):
            query_for_agent(self.INSTANCE, 0, goods)
