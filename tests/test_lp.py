"""LP feasibility tests: hand cases, structure errors, and agreement with
a vertex-enumeration oracle on random small programs."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gapfair.lp as lp_module
from gapfair import divisible_fef
from gapfair.cli import gen_random
from gapfair.lp import (
    EQ,
    LE,
    Constraint,
    LinearProgram,
    LPStructureError,
    _pivot,
    feasible,
)
from oracles import lp_feasible_brute


def lp(var_count, rows, lower=None, upper=None):
    prog = LinearProgram(var_count)
    if lower is not None:
        prog.lower = [Fraction(v) for v in lower]
    if upper is not None:
        prog.upper = [Fraction(v) for v in upper]
    for coeffs, rel, rhs in rows:
        prog.add(coeffs, rel, rhs)
    return prog


class TestHandCases:
    def test_empty_program_is_feasible(self):
        result = feasible(lp(2, []))
        assert result.feasible
        assert result.assignment == (Fraction(0), Fraction(0))

    def test_simple_equality(self):
        result = feasible(lp(2, [({0: 1, 1: 1}, EQ, 1)]))
        assert result.feasible
        assert sum(result.assignment) == 1

    def test_infeasible_pair(self):
        prog = lp(2, [({0: 1, 1: 1}, EQ, 1), ({0: 1, 1: 1}, LE, Fraction(1, 2))])
        assert not feasible(prog).feasible

    def test_equality_beyond_box(self):
        assert not feasible(lp(2, [({0: 1, 1: 1}, EQ, 3)])).feasible

    def test_negative_coefficients(self):
        prog = lp(2, [({0: 1, 1: -1}, EQ, Fraction(1, 2))])
        result = feasible(prog)
        assert result.feasible
        x = result.assignment
        assert x[0] - x[1] == Fraction(1, 2)

    def test_singleton_rows_fold_into_bounds(self):
        prog = lp(2, [({0: 2}, EQ, 1), ({0: 1, 1: 1}, LE, Fraction(3, 4))])
        result = feasible(prog)
        assert result.feasible
        assert result.assignment[0] == Fraction(1, 2)

    def test_conflicting_singletons(self):
        prog = lp(1, [({0: 1}, EQ, Fraction(1, 3)), ({0: 1}, EQ, Fraction(1, 2))])
        assert not feasible(prog).feasible

    def test_wider_boxes(self):
        prog = lp(
            2,
            [({0: 1, 1: 1}, EQ, 7), ({0: 1, 1: -1}, LE, -3)],
            lower=[0, 0],
            upper=[10, 10],
        )
        result = feasible(prog)
        assert result.feasible
        x = result.assignment
        assert x[0] + x[1] == 7 and x[0] - x[1] <= -3

    @pytest.mark.parametrize("rhs, answer", [(1, True), (-1, False)])
    def test_stored_zero_coefficient_is_dropped(self, rhs, answer):
        # Appended directly, so add() never dropped the zero.
        prog = LinearProgram(2)
        prog.constraints.append(Constraint({0: Fraction(0)}, LE, Fraction(rhs)))
        assert feasible(prog).feasible is answer

    def test_le_with_negative_rhs(self):
        prog = lp(2, [({0: -1, 1: -1}, LE, -1)])
        result = feasible(prog)
        assert result.feasible
        assert sum(result.assignment) >= 1


class TestStructureErrors:
    def test_bad_relation(self):
        prog = LinearProgram(1)
        prog.constraints.append(Constraint({0: Fraction(1)}, ">=", Fraction(0)))
        with pytest.raises(LPStructureError, match="relation"):
            feasible(prog)

    def test_variable_out_of_range(self):
        prog = lp(1, [({3: 1}, LE, 1)])
        with pytest.raises(LPStructureError, match="out of range"):
            feasible(prog)

    @pytest.mark.parametrize("index", ["x", None, 1.0, True, -1, 2])
    def test_column_index_not_an_int_in_range(self, index):
        prog = LinearProgram(2)
        prog.add({0: 1}, LE, 1)
        prog.add({index: 1}, LE, 1)
        with pytest.raises(LPStructureError, match="constraint 1: variable"):
            feasible(prog)

    @pytest.mark.parametrize("count", [True, 2.0, -1, "2", None])
    def test_var_count_not_a_nonnegative_int(self, count):
        with pytest.raises(LPStructureError, match="var_count"):
            LinearProgram(count)

    def test_crossed_bounds(self):
        prog = lp(1, [], lower=[1], upper=[0])
        with pytest.raises(LPStructureError, match="lower bound"):
            feasible(prog)

    @pytest.mark.parametrize("bad", [0.5, True])
    def test_add_refuses_float_and_bool(self, bad):
        with pytest.raises(LPStructureError, match="not an int or Fraction"):
            LinearProgram(2).add({0: bad, 1: 1}, LE, 1)
        with pytest.raises(LPStructureError, match="not an int or Fraction"):
            LinearProgram(2).add({0: 1, 1: 1}, LE, bad)

    @pytest.mark.parametrize("bad", [0.5, True])
    def test_feasible_refuses_float_and_bool(self, bad):
        prog = LinearProgram(2)
        prog.constraints.append(Constraint({0: bad, 1: 1}, LE, Fraction(1)))
        with pytest.raises(LPStructureError, match="constraint 0"):
            feasible(prog)
        prog = LinearProgram(2)
        prog.constraints.append(Constraint({0: 1, 1: 1}, LE, bad))
        with pytest.raises(LPStructureError, match="constraint 0"):
            feasible(prog)
        prog = LinearProgram(2)
        prog.upper = [Fraction(1), bad]
        with pytest.raises(LPStructureError, match="bounds"):
            feasible(prog)

    def test_add_stores_coefficients_as_given(self):
        prog = LinearProgram(3)
        prog.add({0: 2, 1: Fraction(1, 2), 2: 0}, LE, 1)
        (row,) = prog.constraints
        assert row.coeffs == {0: 2, 1: Fraction(1, 2)}
        assert type(row.coeffs[0]) is int and type(row.rhs) is int
        prog.add({0: 1}, EQ, Fraction(1, 3))
        assert prog.constraints[1].rhs == Fraction(1, 3)

    def test_bad_bound_lengths(self):
        prog = LinearProgram(2)
        prog.lower = [Fraction(0)]
        with pytest.raises(LPStructureError, match="var_count"):
            feasible(prog)


class TestPretty:
    def test_lists_constraints_and_bounds(self):
        text = lp(1, [({0: 2}, LE, 1)]).pretty()
        assert "2*x0 <= 1" in text
        assert "0 <= x0 <= 1" in text

    def test_keyed_rows_show_their_key(self):
        prog = lp(2, [({0: 1}, LE, 1)])
        prog.add({0: 1, 1: 1}, EQ, 1, ("supply", 3))
        lines = prog.pretty().splitlines()
        assert lines[:2] == ["1*x0 <= 1", "[supply 3] 1*x0 + 1*x1 = 1"]

    def test_keys_that_are_not_tuples_print_whole(self):
        prog = lp(1, [])
        prog.add({0: 1}, LE, 1, key=3)
        prog.add({0: 2}, EQ, 1, key="cap")
        lines = prog.pretty().splitlines()
        assert lines[:2] == ["[3] 1*x0 <= 1", "[cap] 2*x0 = 1"]


coeff = st.integers(-3, 3)


@st.composite
def random_lps(draw):
    k = draw(st.integers(1, 4))
    rows = draw(st.integers(0, 5))
    prog = LinearProgram(k)
    for _ in range(rows):
        coeffs = {j: draw(coeff) for j in range(k)}
        rel = draw(st.sampled_from([LE, EQ]))
        rhs = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
        prog.add(coeffs, rel, rhs)
    return prog


class TestAgainstVertexOracle:
    @settings(max_examples=150, deadline=None)
    @given(random_lps())
    def test_matches_brute_force(self, prog):
        result = feasible(prog)
        assert result.feasible == lp_feasible_brute(prog)

    @settings(max_examples=150, deadline=None)
    @given(random_lps())
    def test_returned_point_is_exactly_feasible(self, prog):
        result = feasible(prog)
        if not result.feasible:
            return
        x = result.assignment
        assert all(0 <= v <= 1 for v in x)
        for c in prog.constraints:
            lhs = sum((coef * x[j] for j, coef in c.coeffs.items()), Fraction(0))
            assert lhs == c.rhs if c.relation == EQ else lhs <= c.rhs

    @settings(max_examples=60, deadline=None)
    @given(random_lps())
    def test_deterministic(self, prog):
        assert feasible(prog).assignment == feasible(prog).assignment


@st.composite
def scaled_lps(draw):
    """Programs that exercise the integer tableau's scalings: fractional
    coefficients (denominators up to 7), rational boxes of which some are
    fixed, and coefficients up to 10**6 in magnitude.  Three rows in four
    take their value at a point of the box plus a small shift, so that
    feasible programs are common; the others have a small right-hand side
    of their own."""
    k = draw(st.integers(1, 4))
    rows = draw(st.integers(0, 5))
    big = draw(st.sampled_from([3, 10**6]))
    prog = LinearProgram(k)
    rational = lambda lo, hi: st.builds(
        Fraction, st.integers(lo, hi), st.integers(1, 7)
    )
    prog.lower = [draw(rational(-6, 6)) for _ in range(k)]
    prog.upper = [lo + draw(rational(0, 6)) for lo in prog.lower]
    inner = [
        lo + (up - lo) * Fraction(draw(st.integers(0, 4)), 4)
        for lo, up in zip(prog.lower, prog.upper)
    ]
    for _ in range(rows):
        coeffs = {j: draw(rational(-big, big)) for j in range(k)}
        rel = draw(st.sampled_from([LE, EQ]))
        if draw(st.integers(0, 3)):
            rhs = sum((c * inner[j] for j, c in coeffs.items()), draw(rational(-2, 1)))
        else:
            rhs = draw(rational(-6, 6))
        prog.add(coeffs, rel, rhs)
    return prog


class TestScaledProgramsAgainstVertexOracle:
    @settings(max_examples=150, deadline=None)
    @given(scaled_lps())
    def test_matches_brute_force_with_exact_points(self, prog):
        result = feasible(prog)
        assert result.feasible == lp_feasible_brute(prog)
        if not result.feasible:
            return
        x = result.assignment
        assert all(lo <= v <= up for lo, v, up in zip(prog.lower, x, prog.upper))
        for c in prog.constraints:
            lhs = sum((coef * x[j] for j, coef in c.coeffs.items()), Fraction(0))
            assert lhs == c.rhs if c.relation == EQ else lhs <= c.rhs


class TestIntegerPivot:
    """_pivot(tab, r, col, beta, step, column, cost): rows keep their own
    integer scales; column lists the (i, tab[i][col]) pairs to combine, and
    the cost row, which carries no beta, is passed on its own."""

    def test_row_without_the_column_is_left_alone(self):
        untouched = {1: 4, 4: 6}
        tab = [{0: 2, 1: 2, 3: 1}, {0: 4, 2: 2}, untouched]
        beta = [5, 3, 7]
        _pivot(tab, 0, 0, beta, 1, [(0, 2), (1, 4)], {0: -2, 1: 1})
        assert tab[2] is untouched
        assert untouched == {1: 4, 4: 6} and beta[2] == 7

    def test_unlisted_row_is_not_read_or_written(self):
        # Row 2 holds column 0 but is not in column: only listed rows change.
        unlisted = {0: 6, 4: 1}
        tab = [{0: 2, 1: 2, 3: 1}, {0: 4, 2: 2}, unlisted]
        beta = [5, 3, 7]
        _pivot(tab, 0, 0, beta, 1, [(0, 2), (1, 4)], {0: -2, 1: 1})
        assert tab[2] is unlisted
        assert unlisted == {0: 6, 4: 1} and beta[2] == 7
        assert tab[1] == {1: -4, 2: 2, 3: -2} and beta[1] == 1

    def test_touched_rows_come_out_primitive(self):
        tab = [{0: 2, 1: 2, 3: 1}, {0: 4, 2: 2}, {1: 4, 4: 6}]
        cost = {0: -2, 1: 1}
        beta = [5, 3, 7]
        _pivot(tab, 0, 0, beta, 1, [(0, 2), (1, 4)], cost)
        # 2 * row - 4 * pivot row, beta 2 * 3 - 4 * 1, all divided by 2.
        assert tab[1] == {1: -4, 2: 2, 3: -2} and beta[1] == 1
        assert gcd(*tab[1].values(), beta[1]) == 1
        # The cost row 2 * cost + 2 * pivot row, divided by 2; no beta.
        assert cost == {1: 3, 3: 1}
        assert tab[0] == {0: 2, 1: 2, 3: 1} and beta[0] == 5

    def test_negative_pivot_negates_the_pivot_row(self):
        tab = [{0: -3, 1: 1, 2: 2}, {0: 1, 3: 1}]
        cost = {0: -1}
        beta = [4, 2]
        _pivot(tab, 0, 0, beta, 1, [(0, -3), (1, 1)], cost)
        assert tab[0] == {0: 3, 1: -1, 2: -2}
        # 3 * row - 1 * pivot row, beta 3 * 2 - 1 * 1.
        assert tab[1] == {1: 1, 2: 2, 3: 3} and beta[1] == 5
        # 3 * cost + 1 * pivot row.
        assert cost == {1: -1, 2: -2}

    def test_entries_stay_small_on_a_threshold_ladder(self, monkeypatch):
        """The gcd reduction keeps every tableau entry of this solve within
        36 bits.  Over one variable per (agent, supported good), entries
        reached 22 bits with it, 36 over one common denominator for all
        rows, and thousands of bits with no reduction at all; over the
        edge amounts they reach 21 with it."""
        widest = 0
        real_pivot = lp_module._pivot

        def measuring_pivot(rows, *args):
            nonlocal widest
            real_pivot(rows, *args)
            bits = max(abs(v).bit_length() for row in rows for v in row.values())
            widest = max(widest, bits)

        monkeypatch.setattr(lp_module, "_pivot", measuring_pivot)
        divisible_fef(gen_random(7, 5, 12))
        assert 0 < widest <= 36

