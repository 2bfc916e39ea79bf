"""Data-model tests: validation, densities, augmentation, allocations."""

from fractions import Fraction

import pytest
from hypothesis import given

from conftest import instances
from gapfair import (
    FractionalAllocation,
    InfeasibleAllocationError,
    Instance,
    IntegralAllocation,
    ZeroSizeError,
    augment,
    density_ordering,
    strip_fictional,
)


def small():
    return Instance(
        n=2,
        m=3,
        values=((4, 2, 1), (1, 1, 6)),
        sizes=((2, 1, 1), (1, 2, 3)),
        budgets=(3, 4),
    )


class TestInstanceValidation:
    def test_dimensions_must_match(self):
        with pytest.raises(ValueError, match="goods per row"):
            Instance(2, 2, ((1, 2), (3,)), ((1, 1), (1, 1)), (1, 1))
        with pytest.raises(ValueError, match="one row per agent"):
            Instance(2, 2, ((1, 2),), ((1, 1), (1, 1)), (1, 1))
        with pytest.raises(ValueError, match="budgets"):
            Instance(2, 2, ((1, 2), (3, 4)), ((1, 1), (1, 1)), (1,))

    def test_sign_constraints(self):
        with pytest.raises(ValueError, match="negative value"):
            Instance(1, 1, ((-1,),), ((1,),), (1,))
        with pytest.raises(ValueError, match="negative size"):
            Instance(1, 1, ((1,),), ((-1,),), (1,))
        with pytest.raises(ValueError, match="budget"):
            Instance(1, 1, ((1,),), ((1,),), (0,))

    @pytest.mark.parametrize("bad", [Fraction(1, 2), 0.1, True, Fraction(1)])
    def test_non_integer_entries_are_refused(self, bad):
        with pytest.raises(ValueError, match="values"):
            Instance(1, 2, ((bad, 1),), ((1, 1),), (1,))
        with pytest.raises(ValueError, match="sizes"):
            Instance(1, 2, ((1, 1),), ((1, bad),), (1,))
        with pytest.raises(ValueError, match="budgets"):
            Instance(1, 2, ((1, 1),), ((1, 1),), (bad,))
        with pytest.raises(ValueError, match="^n: "):
            Instance(bad, 2, ((1, 1),), ((1, 1),), (1,))
        with pytest.raises(ValueError, match="^m: "):
            Instance(1, bad, ((1, 1),), ((1, 1),), (1,))

    def test_rows_must_be_sequences(self):
        with pytest.raises(ValueError, match="^values: row 5 "):
            Instance(1, 1, (5,), ((1,),), (1,))
        with pytest.raises(ValueError, match="^sizes: row 5 "):
            Instance(1, 1, ((1,),), (5,), (1,))

    def test_needs_agents_and_goods(self):
        with pytest.raises(ValueError):
            Instance(0, 1, (), (), ())
        with pytest.raises(ValueError):
            Instance(1, 0, ((),), ((),), (1,))

    def test_rows_are_frozen_tuples(self):
        inst = Instance(1, 2, [[1, 2]], [[1, 1]], [3])
        assert inst.values == ((1, 2),)
        assert inst.sizes == ((1, 1),)
        assert inst.budgets == (3,)


class TestAccessors:
    def test_density(self):
        inst = small()
        assert inst.density(0, 0) == Fraction(2)
        assert inst.density(1, 2) == Fraction(2)

    def test_density_zero_size_raises(self):
        inst = Instance(1, 1, ((1,),), ((0,),), (1,))
        with pytest.raises(ZeroSizeError):
            inst.density(0, 0)

    def test_bundle_helpers(self):
        inst = small()
        assert inst.bundle_value(0, {0, 2}) == 5
        assert inst.bundle_size(0, {0, 2}) == 3
        assert inst.is_feasible_bundle(0, {0, 2})
        assert not inst.is_feasible_bundle(0, {0, 1, 2})

    def test_vector_helpers(self):
        inst = small()
        y = (Fraction(1, 2), Fraction(1), Fraction(0))
        assert inst.vector_value(0, y) == Fraction(4)
        assert inst.vector_size(0, y) == Fraction(2)


class TestDensityOrdering:
    def test_sorted_decreasing_with_index_tiebreak(self):
        inst = Instance(1, 4, ((2, 4, 2, 1),), ((1, 2, 1, 1),), (5,))
        # densities: 2, 2, 2, 1 -> ties by ascending good index
        assert density_ordering(inst, 0) == (0, 1, 2, 3)

    @given(instances())
    def test_is_permutation_and_monotone(self, inst):
        for a in range(inst.n):
            pi = density_ordering(inst, a)
            assert sorted(pi) == list(range(inst.m))
            for t in range(inst.m - 1):
                d1, d2 = inst.density(a, pi[t]), inst.density(a, pi[t + 1])
                assert d1 > d2 or (d1 == d2 and pi[t] < pi[t + 1])

    def test_zero_size_fails_only_its_agent(self):
        inst = Instance(2, 2, ((1, 2), (1, 2)), ((1, 0), (1, 2)), (3, 3))
        for _ in range(2):
            with pytest.raises(ZeroSizeError):
                density_ordering(inst, 0)
            assert density_ordering(inst, 1) == (0, 1)

    @pytest.mark.parametrize("agent", [-1, 1, True])
    def test_agent_out_of_range(self, agent):
        """-1 would read the last agent's row, and True the memo's key 1."""
        inst = Instance(1, 2, ((1, 2),), ((1, 1),), (3,))
        with pytest.raises(ValueError, match="agent index"):
            density_ordering(inst, agent)


class TestAugment:
    def test_fictional_good(self):
        inst = small()
        aug = augment(inst)
        assert aug.m == inst.m + 1
        assert all(aug.value(a, inst.m) == 0 for a in range(inst.n))
        fict = 2 * inst.n * max(inst.budgets)
        assert all(aug.size(a, inst.m) == fict for a in range(inst.n))
        assert all(fict > b for b in inst.budgets)

    def test_rejects_zero_sizes(self):
        inst = Instance(1, 1, ((1,),), ((0,),), (1,))
        with pytest.raises(ZeroSizeError):
            augment(inst)


class TestFractionalAllocation:
    def test_charity_complements(self):
        alloc = FractionalAllocation(
            ((Fraction(1, 3), Fraction(0)), (Fraction(1, 3), Fraction(1)))
        )
        assert alloc.charity == (Fraction(1, 3), Fraction(0))

    def test_rejects_over_assignment(self):
        with pytest.raises(ValueError, match="over-assigned"):
            FractionalAllocation(((Fraction(2, 3),), (Fraction(2, 3),)))

    def test_rejects_out_of_range_entries(self):
        with pytest.raises(ValueError, match="outside"):
            FractionalAllocation(((Fraction(-1, 2),),))

    def test_rejects_no_rows(self):
        with pytest.raises(ValueError, match="at least one agent row"):
            FractionalAllocation(())

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError, match="ragged"):
            FractionalAllocation(((Fraction(0), Fraction(0)), (Fraction(0),)))

    @pytest.mark.parametrize("bad", [0.1, 0.5, True, False])
    def test_rejects_float_or_bool_entries(self, bad):
        with pytest.raises(ValueError, match="^x: "):
            FractionalAllocation(((bad, Fraction(0)),))

    def test_feasibility_and_values(self):
        inst = small()
        alloc = FractionalAllocation(
            ((Fraction(1), Fraction(1), Fraction(0)),
             (Fraction(0), Fraction(0), Fraction(1)))
        )
        assert alloc.agent_value(inst, 0) == 6
        assert alloc.agent_size(inst, 0) == 3
        assert alloc.is_feasible(inst)

    def test_strip_fictional(self):
        alloc = FractionalAllocation(
            ((Fraction(1, 2), Fraction(1, 4)), (Fraction(1, 2), Fraction(0)))
        )
        stripped = strip_fictional(alloc)
        assert stripped.m == 1
        assert stripped.x == ((Fraction(1, 2),), (Fraction(1, 2),))


class TestIntegralAllocation:
    def test_disjointness_enforced(self):
        with pytest.raises(InfeasibleAllocationError, match="twice"):
            IntegralAllocation(2, (frozenset({0}), frozenset({0})))

    def test_index_range(self):
        with pytest.raises(ValueError, match="out of range"):
            IntegralAllocation(2, (frozenset({2}),))

    def test_charity_and_welfare(self):
        inst = small()
        alloc = IntegralAllocation(3, (frozenset({1}), frozenset({2})))
        assert alloc.charity == frozenset({0})
        assert alloc.welfare(inst) == 2 + 6
        assert alloc.is_feasible(inst)

    @pytest.mark.parametrize("bad", [1.0, True])
    def test_goods_must_be_ints(self, bad):
        with pytest.raises(ValueError, match="^goods: "):
            IntegralAllocation(2, (frozenset({bad}),))

    @pytest.mark.parametrize("bad", [3.5, 3.0, True])
    def test_m_must_be_an_int(self, bad):
        with pytest.raises(ValueError, match="^m: "):
            IntegralAllocation(bad, (frozenset({0}),))
