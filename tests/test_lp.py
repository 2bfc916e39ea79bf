"""LP feasibility tests: hand cases, structure errors, and agreement with
a vertex-enumeration oracle on random small programs, solved cold and
warm-started from a smaller program."""

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
    resume,
)
from oracles import _point_ok, grow, lp_feasible_brute


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
        assert type(row.coeffs[0]) is int and type(row.rhs) is Fraction

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
        36 bits; they reach 22 with it, 36 over one common denominator for
        all rows, and thousands of bits with no reduction at all."""
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


HALF, THIRD = Fraction(1, 2), Fraction(1, 3)


def keyed(var_count, rows, upper=None):
    """A program whose rows are keyed ("r", i) in order, and its column keys."""
    prog = lp(var_count, [], upper=upper)
    for i, (coeffs, rel, rhs) in enumerate(rows):
        prog.add(coeffs, rel, rhs, ("r", i))
    return prog, [("x", j) for j in range(var_count)]


def from_empty(prog, cols):
    """The step of resume() that grows the empty program into prog."""
    return (
        [(key, lo, up, {}) for key, lo, up in zip(cols, prog.lower, prog.upper)],
        (),
        [
            (c.key, {cols[j]: a for j, a in c.coeffs.items()}, c.relation, c.rhs)
            for c in prog.constraints
        ],
    )


class TestWarmStart:
    def test_all_slack_start_makes_no_pivot(self, monkeypatch):
        pivots = []
        monkeypatch.setattr(lp_module, "_pivot", lambda *args: pivots.append(args))
        prog, cols = keyed(2, [({0: 1, 1: 2}, LE, 3), ({1: 1}, LE, 0)])
        assert resume(None, *from_empty(prog, cols)) is not None
        assert pivots == []

    def test_resume_leaves_the_parent_alone(self):
        prog, cols = keyed(2, [({0: 1, 1: 1}, LE, 1)])
        parent = resume(None, *from_empty(prog, cols))
        tab = [dict(row) for row in parent.tab]
        step = [], [("r", 0)], [(("r", 1), {("x", 0): -1}, LE, Fraction(-1, 2))]
        tight, _ = grow(prog, cols, step)
        assert resume(parent, *step).point(tight, cols) == (HALF, HALF)
        assert parent.tab == tab
        assert resume(parent, *step) is not None

    @pytest.mark.parametrize(
        "upper, rows, grown_rows",
        [
            # x2 enters both rows at a fraction, which rescales a row.
            (
                [2, 1, 2],
                [({0: -THIRD, 1: -1}, LE, HALF), ({0: -HALF, 1: HALF}, EQ, HALF)],
                [
                    ({0: -THIRD, 1: -1, 2: 3 * HALF}, EQ, HALF),
                    ({0: -HALF, 1: HALF, 2: HALF}, EQ, HALF),
                ],
            ),
            # The new rows hold basic columns at fractional values.
            (
                [HALF, 2, 1],
                [({0: -THIRD, 1: -1}, EQ, -1), ({0: HALF, 1: 2}, LE, 2)],
                [
                    ({0: -THIRD, 1: -1, 2: -1}, EQ, -1),
                    ({0: HALF, 1: 2, 2: -2 * THIRD}, EQ, 2),
                    ({0: -THIRD, 1: -2, 2: 1}, LE, 1),
                    ({0: 3, 1: -THIRD, 2: 1}, LE, 0),
                ],
            ),
        ],
    )
    def test_fractional_entries_keep_rows_integral(self, upper, rows, grown_rows):
        parent = resume(None, *from_empty(*keyed(2, rows, upper[:2])))
        grown, cols = keyed(3, grown_rows, upper)
        # The step: x2's entries in the old rows, those turned =, new rows.
        old = list(enumerate(grown_rows[: len(rows)]))
        entries = {("r", i): c[2] for i, (c, _, _) in old if 2 in c}
        tighten = [("r", i) for i, (_, rel, _) in old if rel == EQ]
        added = from_empty(grown, cols)[2][len(rows) :]
        state = resume(parent, [(("x", 2), 0, upper[2], entries)], tighten, added)
        assert (state is not None) == lp_feasible_brute(grown)
        if state is not None:
            assert _point_ok(grown, state.point(grown, cols))


small = st.builds(Fraction, st.integers(-3, 4), st.integers(1, 2))
entry = st.builds(Fraction, st.integers(-2, 3), st.sampled_from([1, 1, 2, 3]))


@st.composite
def keyed_chains(draw):
    """A keyed program and a step that grows it the way a threshold trial
    grows its parent: a new column x_k entering some rows, one <= row
    turned into =, and new <= rows that may hold x_k."""
    k = draw(st.integers(1, 3))
    upper = [draw(st.sampled_from([1, 2, Fraction(1, 2)])) for _ in range(k + 1)]
    rows = []
    for _ in range(draw(st.integers(0, 3))):
        coeffs = {j: draw(entry) for j in range(k)}
        rows.append((coeffs, draw(st.sampled_from([LE, LE, EQ])), draw(small)))
    base, cols = keyed(k, rows, upper[:k])
    entries = {("r", i): draw(entry) for i in range(len(rows))}
    le_rows = [("r", i) for i, (_, rel, _) in enumerate(rows) if rel == LE]
    tighten = [draw(st.sampled_from(le_rows))] if le_rows else []
    added = []
    for i in range(len(rows), len(rows) + draw(st.integers(0, 2))):
        coeffs = {("x", j): draw(entry) for j in range(k + 1)}
        added.append((("r", i), coeffs, LE, draw(small)))
    return (base, cols), ([(("x", k), 0, upper[k], entries)], tighten, added)


class TestWarmStartAgainstVertexOracle:
    @settings(max_examples=150, deadline=None)
    @given(keyed_chains())
    def test_resume_matches_brute_force(self, chain):
        (base, cols), step = chain
        parent = resume(None, *from_empty(base, cols))
        assert (parent is not None) == lp_feasible_brute(base)
        if parent is None:
            return
        grown, grown_cols = grow(base, cols, step)
        state = resume(parent, *step)
        assert (state is not None) == lp_feasible_brute(grown)
        if state is not None:
            assert _point_ok(grown, state.point(grown, grown_cols))
