"""Hardness-harness and fixture tests: the knapsack gadget, the parity
probe, the oracle reduction, and the Nash-welfare counterexample."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapfair import (
    FractionalAllocation,
    KnapsackQuery,
    build_gadget,
    divisible_fef,
    fef_witness,
    kns_exact,
    mnw_fixture,
    parity_probe,
    solve_knapsack_via_fefx,
    verify_fef,
)
from gapfair.reductions import MNW_VALUE_SCALE


def mnw_closed_form_share(delta: Fraction = Fraction(1, 8)) -> Fraction:
    """Stationary point delta / (2 (2 - delta)) of the Nash product bound;
    at delta = 1/8 it equals agent 1's share 1/30 of good 1."""
    return delta / (2 * (2 - delta))


def knapsack(weights, values, capacity) -> KnapsackQuery:
    return KnapsackQuery(tuple(range(len(weights))), weights, values, capacity)


@st.composite
def knapsacks(draw, max_items=6, even_values=True):
    k = draw(st.integers(1, max_items))
    step = 2 if even_values else 1
    return knapsack(
        weights=tuple(draw(st.integers(0, 8)) for _ in range(k)),
        values=tuple(step * draw(st.integers(0, 6)) for _ in range(k)),
        capacity=draw(st.integers(0, 12)),
    )


class TestKnapsackProblem:
    """The knapsack the harness takes refuses non-integer data."""

    @pytest.mark.parametrize("bad", [Fraction(1, 2), 0.5, True, Fraction(2)])
    def test_non_integer_inputs(self, bad):
        with pytest.raises(ValueError, match="weights"):
            knapsack((bad,), (2,), 3)
        with pytest.raises(ValueError, match="values"):
            knapsack((1,), (bad,), 3)
        with pytest.raises(ValueError, match="capacity"):
            knapsack((1,), (2,), bad)


class TestGadget:
    def test_shape(self):
        kp = knapsack((2, 3), (4, 6), 5)
        inst = build_gadget(kp, mu=7)
        assert inst.n == 1 and inst.m == 4
        assert inst.values[0] == (4, 6, 15, 0)
        assert inst.sizes[0] == (2, 3, 5, 6)
        assert inst.budgets == (5,)

    def test_filler_good_never_fits(self):
        kp = knapsack((1,), (2,), 3)
        inst = build_gadget(kp, 0)
        assert not inst.is_feasible_bundle(0, {inst.m - 1})

    def test_preconditions(self):
        with pytest.raises(ValueError, match="mu"):
            build_gadget(knapsack((1,), (2,), 3), -1)
        with pytest.raises(ValueError, match="capacity"):
            build_gadget(knapsack((1,), (2,), 0), 1)
        with pytest.raises(ValueError, match="even"):
            build_gadget(knapsack((1,), (3,), 3), 1)
        with pytest.raises(ValueError, match="positive item weights"):
            build_gadget(knapsack((0, 1), (2, 2), 3), 1)
        with pytest.raises(ValueError, match="mu"):
            build_gadget(knapsack((1,), (2,), 3), 1.5)
        with pytest.raises(ValueError, match="mu"):
            parity_probe(knapsack((1,), (2,), 3), True)


class TestParityProbe:
    def test_flips_exactly_at_half_optimum(self):
        kp = knapsack((2, 3, 4), (4, 6, 10), 6)
        v_star = kns_exact(kp).value  # 14: items of weight 2 and 4
        assert v_star == 14
        for mu in range(v_star // 2 + 3):
            expected = "odd" if mu >= v_star // 2 else "even"
            assert parity_probe(kp, mu) == expected

    def test_zero_value_knapsack_is_odd_immediately(self):
        kp = knapsack((2,), (0,), 1)
        assert parity_probe(kp, 0) == "odd"


class TestReduction:
    def test_hand_example(self):
        kp = knapsack((1, 3, 4, 5), (2, 8, 10, 14), 7)
        assert solve_knapsack_via_fefx(kp) == kns_exact(kp).value

    def test_odd_values_doubled_transparently(self):
        kp = knapsack((1, 3, 4, 5), (1, 4, 5, 7), 7)
        assert solve_knapsack_via_fefx(kp) == kns_exact(kp).value == 9

    def test_worthless_items(self):
        kp = knapsack((1, 2), (0, 0), 3)
        assert solve_knapsack_via_fefx(kp) == 0

    def test_no_probe_without_dp_items(self):
        seen = []
        kp = knapsack((0, 5, 2), (3, 4, 0), 4)
        assert solve_knapsack_via_fefx(kp, probe_trace=lambda *a: seen.append(a)) == 3
        assert seen == []

    def test_probe_trace_is_consistent(self):
        kp = knapsack((2, 3), (4, 6), 5)
        seen = []
        result = solve_knapsack_via_fefx(kp, probe_trace=lambda mu, p: seen.append((mu, p)))
        assert result == kns_exact(kp).value
        for mu, parity in seen:
            assert parity == ("odd" if mu >= result // 2 else "even")

    @settings(max_examples=20, deadline=None)
    @given(knapsacks(even_values=False))
    def test_matches_exact_solver(self, kp):
        assert solve_knapsack_via_fefx(kp) == kns_exact(kp).value


class TestMnwFixture:
    def test_nsw_optimum_is_not_fef(self):
        fx = mnw_fixture()
        witness = fef_witness(fx.instance, fx.nsw_allocation)
        assert witness is not None
        assert witness.agent == 0 and witness.target == 1
        # Values are stored scaled; divide to compare in original units.
        scale = fx.value_scale
        assert witness.own_value / scale == Fraction(31, 60)
        assert witness.best_value / scale == Fraction(465, 480)

    def test_value_scale_constant(self):
        assert mnw_fixture().value_scale == MNW_VALUE_SCALE == 2

    def test_allocation_is_feasible_nash_candidate(self):
        fx = mnw_fixture()
        assert fx.nsw_allocation.is_feasible(fx.instance)
        assert fx.nsw_allocation.x[0] == (Fraction(1, 30), Fraction(29, 30))
        assert fx.nsw_allocation.x[1] == (Fraction(29, 30), Fraction(1, 240))

    def test_nash_welfare_is_locally_maximal(self):
        # Perturbing either agent's bundle along the budget line cannot
        # raise the Nash product.
        fx = mnw_fixture()
        inst, x = fx.instance, fx.nsw_allocation

        def nash(alloc):
            return alloc.agent_value(inst, 0) * alloc.agent_value(inst, 1)

        base = nash(x)
        for d in (Fraction(1, 120), Fraction(-1, 120)):
            moved = FractionalAllocation(
                (
                    (x.x[0][0] + d, x.x[0][1] - d),
                    (x.x[1][0] - d, x.x[1][1] + d / 8),
                )
            )
            assert moved.is_feasible(inst)
            assert nash(moved) <= base

    def test_solver_output_is_fef_on_the_same_instance(self):
        fx = mnw_fixture()
        result = divisible_fef(fx.instance)
        assert verify_fef(fx.instance, result.allocation)

    def test_closed_form_share(self):
        assert mnw_closed_form_share() == Fraction(1, 30)
        assert mnw_closed_form_share(Fraction(1, 8)) == (
            Fraction(1, 8) / (2 * (2 - Fraction(1, 8)))
        )
