"""Exact rational linear-program feasibility via phase-1 simplex.

Only feasibility is decided (no optimization interface): the threshold
loop of the divisible solver asks nothing else.  Variables carry native
box bounds (bounded-variable simplex) and the pivot rule is Bland's, so
the solve terminates without perturbation.

The simplex runs on integers, and each tableau row keeps its own scale:
the coefficient of its basic variable is its denominator.  A pivot
combines only the rows that hold the entering column and divides each of
them, together with its basic value, by their gcd.
fractions.Fraction is used only outside the simplex loop: in presolve
where a singleton row divides, for the values a row added to a warm
start is measured at, and for the returned point.  The exact self-check
of every returned point compares integers.

resume() is the one way into the tableau: it copies the final tableau of
a program decided before, or starts from the empty one, applies a step
(new columns with their entries in the existing rows, <= rows turned into
= rows, new rows) and runs phase 1 from there.  feasible() presolves a
program and enters with every column and row new; a chain of programs,
each growing the last, enters one step at a time and is never presolved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Hashable, Optional

from .instance import InternalError

LE = "<="
EQ = "="

_RELATIONS = (LE, EQ)
# Added to the rank of a slack or artificial: they come after every variable.
_AFTER = 1 << 62
_EXACT = frozenset((int, Fraction))


class LPStructureError(ValueError):
    """Malformed program (bad dimensions, bad relation, crossed bounds)."""


@dataclass
class Constraint:
    coeffs: dict[int, int | Fraction]
    relation: str
    rhs: Fraction
    key: Optional[Hashable] = None


@dataclass
class LinearProgram:
    var_count: int
    constraints: list[Constraint] = field(default_factory=list)
    lower: list[Fraction] = field(default_factory=list)
    upper: list[Fraction] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.lower:
            self.lower = [Fraction(0)] * self.var_count
        if not self.upper:
            self.upper = [Fraction(1)] * self.var_count

    def add(
        self,
        coeffs: dict[int, int | Fraction],
        relation: str,
        rhs,
        key: Optional[Hashable] = None,
    ) -> None:
        """Append a row; nonzero coefficients are stored as given.

        key names the row; pretty() prints it."""
        values = coeffs.values()
        _check_exact((*values, rhs), "constraint", len(self.constraints))
        nonzero = {j: c for j, c in coeffs.items() if c} if 0 in values else dict(coeffs)
        if type(rhs) is not Fraction:
            rhs = Fraction(rhs)
        self.constraints.append(Constraint(nonzero, relation, rhs, key))

    def pretty(self, names: Optional[list[str]] = None) -> str:
        """Human-readable constraint listing (CLI debug dump); a keyed row
        is prefixed with its key, e.g. [supply 3]."""
        name = (lambda j: names[j]) if names else (lambda j: f"x{j}")
        lines = []
        for c in self.constraints:
            terms = " + ".join(
                f"{c.coeffs[j]}*{name(j)}" for j in sorted(c.coeffs)
            ) or "0"
            key = c.key
            if isinstance(key, tuple):
                key = " ".join(map(str, key))
            label = "" if key is None else f"[{key}] "
            lines.append(f"{label}{terms} {c.relation} {c.rhs}")
        for j in range(self.var_count):
            lines.append(f"{self.lower[j]} <= {name(j)} <= {self.upper[j]}")
        return "\n".join(lines)


@dataclass(frozen=True)
class FeasibilityResult:
    assignment: Optional[tuple[Fraction, ...]]

    @property
    def feasible(self) -> bool:
        return self.assignment is not None


INFEASIBLE = FeasibilityResult(None)


def _check_exact(values, what: str, index: Optional[int] = None) -> None:
    # A float would be coerced to its binary expansion, and bool is an int.
    if not _EXACT.issuperset(map(type, values)):
        bad = next(v for v in values if type(v) not in _EXACT)
        where = what if index is None else f"{what} {index}"
        raise LPStructureError(f"{where}: {bad!r} is not an int or Fraction")


def _validate(lp: LinearProgram) -> None:
    n = lp.var_count
    if len(lp.lower) != n or len(lp.upper) != n:
        raise LPStructureError("bound vectors must match var_count")
    _check_exact((*lp.lower, *lp.upper), "bounds")
    for j, (lo, up) in enumerate(zip(lp.lower, lp.upper)):
        if lo.numerator * up.denominator > up.numerator * lo.denominator:
            raise LPStructureError(f"variable {j}: lower bound exceeds upper")
    for idx, c in enumerate(lp.constraints):
        if c.relation not in _RELATIONS:
            raise LPStructureError(f"constraint {idx}: bad relation {c.relation!r}")
        _check_exact((*c.coeffs.values(), c.rhs), "constraint", idx)
        if c.coeffs and (min(c.coeffs) < 0 or max(c.coeffs) >= n):
            j = next(j for j in c.coeffs if j < 0 or j >= n)
            raise LPStructureError(f"constraint {idx}: variable {j} out of range")


def _satisfies(lp: LinearProgram, point: tuple[Fraction, ...]) -> bool:
    # In integers over the point's common denominator den: point[j] is
    # num[j] / den, and each bound and right-hand side is cross-multiplied.
    den = lcm(*(v.denominator for v in point))
    num = [v.numerator * (den // v.denominator) for v in point]
    for j in range(lp.var_count):
        lo, up = lp.lower[j], lp.upper[j]
        if num[j] * lo.denominator < lo.numerator * den:
            return False
        if num[j] * up.denominator > up.numerator * den:
            return False
    for c in lp.constraints:
        lhs = sum(coef * num[j] for j, coef in c.coeffs.items()) * c.rhs.denominator
        rhs = c.rhs.numerator * den
        if c.relation == EQ and lhs != rhs:
            return False
        if c.relation == LE and lhs > rhs:
            return False
    return True


def _exact(v):
    """v as an int when it is integral."""
    return v.numerator if v.denominator == 1 else v


def feasible(lp: LinearProgram) -> FeasibilityResult:
    """Decide whether the polyhedron is nonempty.

    Returns a point satisfying all constraints exactly when feasible;
    deterministic for a fixed input.  Structural problems raise
    LPStructureError instead of reporting Infeasible.
    """
    _validate(lp)
    lo = [_exact(v) for v in lp.lower]
    up = [_exact(v) for v in lp.upper]
    rows = [
        ({j: c for j, c in c.coeffs.items() if c}, c.relation, _exact(c.rhs))
        for c in lp.constraints
    ]

    presolved = _presolve(rows, lo, up)
    if presolved is None:
        return INFEASIBLE
    columns = [(j, v, w, {}) for j, (v, w) in enumerate(zip(lo, up))]
    tableau = resume(None, columns, (), [(None, *row) for row in presolved])
    if tableau is None:
        return INFEASIBLE
    return FeasibilityResult(tableau.point(lp, range(lp.var_count)))


def resume(
    parent: Optional[_Tableau], columns, tighten, rows
) -> Optional[_Tableau]:
    """Decide the program parent was decided on, grown by one step.

    parent is a tableau that resume() returned, or None for the empty
    program; it is not changed.  The step, applied in this order:
    - columns: (key, lower, upper, coeffs) per new column, coeffs being
      its {row key: coefficient} in parent's rows (lower must then be 0);
    - tighten: keys of parent's rows that turn from <= into = (an = row
      stays as it is);
    - rows: (key, coeffs, relation, rhs) per new row, coeffs keyed by
      column key.
    Entries are ints or Fractions and are not validated.  Returns
    the final tableau when the grown program is feasible, None otherwise.
    """
    t = _Tableau() if parent is None else parent._copy()
    for key, lo, up, coeffs in columns:
        t._clear(lcm(lo.denominator, up.denominator))
        q = t.q
        qlo, qup = (v.numerator * (q // v.denominator) for v in (lo, up))
        col = t.cols[key] = t._add_column(qlo, qup, True)
        if coeffs:
            t._enter(col, coeffs)
    for key in tighten:
        t._tighten(t.rows[key])
    row_of = {bv: i for i, bv in enumerate(t.basis)}
    for key, coeffs, rel, rhs in rows:
        t.rows[key] = len(t.tab)
        t._add_row({t.cols[c]: a for c, a in coeffs.items() if a}, rel, rhs, row_of)
    if not t.phase1():
        return None
    # An artificial out of the basis never enters again; unless it is a
    # unit column, it is dropped.
    dead = t.artificial.keys() - t.basis - {u for u, _ in t.unit}
    if dead:
        for row in t.tab:
            for a in dead.intersection(row):
                del row[a]
        for a in dead:
            del t.artificial[a]
    return t


def _presolve(rows, lo, up):
    """Fold fixed variables and singleton rows into the bounds.

    Mutates lo/up in place.  Returns the surviving rows (each with at
    least two free variables), or None if infeasibility is detected.
    """
    while True:
        changed = False
        kept = []
        for coeffs, rel, rhs in rows:
            for j in list(coeffs):
                if lo[j] == up[j]:
                    rhs -= coeffs.pop(j) * lo[j]
                    changed = True
            if not coeffs:
                if rel == EQ and rhs != 0:
                    return None
                if rel == LE and rhs < 0:
                    return None
                changed = True
                continue
            if len(coeffs) == 1:
                (j, c), = coeffs.items()
                b = Fraction(rhs, c)
                if rel == EQ:
                    if b < lo[j] or b > up[j]:
                        return None
                    lo[j] = up[j] = b
                else:
                    if c > 0:
                        if b < up[j]:
                            up[j] = b
                    else:
                        if b > lo[j]:
                            lo[j] = b
                    if lo[j] > up[j]:
                        return None
                changed = True
                continue
            kept.append((coeffs, rel, rhs))
        rows = kept
        if not changed:
            return rows


class _Tableau:
    """Phase-1 bounded-variable simplex state, on integers.

    Each row i is a dict {column: int} at its own scale: the coefficient
    d_i = tab[i][basis[i]] > 0 of its basic column is its denominator, and
    beta[i] is d_i * q times the value of basis[i], where q clears the
    denominators of the bounds and scaled right-hand sides.  qlo/qup hold
    q times each column's bounds (qup None: unbounded); a nonbasic column
    sits at its upper bound iff at_upper.  Bland's rule orders columns by
    rank: the caller's variables first, then slacks and artificials, each
    in the order they were added.

    Columns are the caller's variables, one slack per <= row and one
    artificial per row that needs it.  A row enters as sign * s * m times
    the given row, s clearing its coefficients' denominators, with a new
    slack or artificial basic at coefficient m > 0.  In the system of rows
    as they entered, the row's slack column (sign * m) or, in an = row, its
    artificial column (m) is a multiple of a unit vector, so the tableau's
    entries in it are a column of the inverse basis, scaled.  unit[i]
    holds that column of row i and the factor that turns a new column's
    coefficient in row i into a multiplier of it (see _enter).  artificial
    maps each artificial to the scale s that weights it in the phase-1
    cost; rows and cols map the keys resume() was given to rows and
    columns.
    """

    def __init__(self, q: int = 1) -> None:
        self.q = q
        self.qlo, self.qup, self.at_upper, self.rank = [], [], [], []  # per column
        self.tab, self.basis, self.beta, self.unit, self.slack = [], [], [], [], []
        self.artificial, self.rows, self.cols = {}, {}, {}

    def _copy(self) -> _Tableau:
        t = _Tableau(self.q)
        t.qlo, t.qup, t.at_upper = list(self.qlo), list(self.qup), list(self.at_upper)
        t.rank = list(self.rank)
        t.tab = [dict(row) for row in self.tab]
        t.basis, t.beta = list(self.basis), list(self.beta)
        t.unit, t.slack = list(self.unit), list(self.slack)
        t.artificial, t.rows = dict(self.artificial), dict(self.rows)
        t.cols = dict(self.cols)
        return t

    def _add_column(self, qlo=0, qup=None, variable=False) -> int:
        j = len(self.qlo)
        self.qlo.append(qlo)
        self.qup.append(qup)
        self.at_upper.append(False)
        self.rank.append(j if variable else j + _AFTER)
        return j

    def _clear(self, den: int) -> None:
        """Grow q to a multiple of den."""
        f = den // gcd(self.q, den)
        if f > 1:
            self.q *= f
            self.beta[:] = [b * f for b in self.beta]
            self.qlo[:] = [v * f for v in self.qlo]
            self.qup[:] = [None if v is None else v * f for v in self.qup]

    def _add_row(self, coeffs, rel, rhs, row_of) -> None:
        """Append the row coeffs rel rhs, coeffs keyed by column, with a new
        basic slack or artificial.

        The row is expressed in the nonbasic columns: a basic column in it
        is eliminated with its row; row_of maps each basic column to its
        row and gains the new one.
        """
        s = lcm(*(c.denominator for c in coeffs.values()))
        self._clear(rhs.denominator // gcd(s, rhs.denominator))
        row = {j: c.numerator * (s // c.denominator) for j, c in coeffs.items()}
        # q * s times the right-hand side minus the row at the current point;
        # a Fraction when a basic column in the row has a fractional value.
        at = [
            (self.qup if self.at_upper[j] else self.qlo)[j]
            if (i := row_of.get(j)) is None
            else Fraction(self.beta[i], self.tab[i][j])
            for j in row
        ]
        residual = rhs.numerator * (s * self.q // rhs.denominator) - sum(
            map(mul, row.values(), at)
        )
        m = residual.denominator
        if m != 1:
            row = {j: m * c for j, c in row.items()}
        residual = residual.numerator
        sign = -1 if residual < 0 else 1
        slack = None
        if rel == LE:
            slack = first = self._add_column()
            row[slack] = m
        if rel == EQ or sign < 0:
            if sign < 0:
                row = {j: -v for j, v in row.items()}
            first = self._add_column()
            row[first] = m
            self.artificial[first] = s
        beta = abs(residual)
        for j in [j for j in row if j in row_of]:
            prow = self.tab[row_of[j]]
            beta = _combine(row, row[j], prow[j], prow, prow[j] * beta)
        row_of[first] = len(self.tab)
        self.tab.append(row)
        self.basis.append(first)
        self.beta.append(beta)
        self.unit.append((slack, s) if slack is not None else (first, sign * s))
        self.slack.append(slack)

    def _enter(self, col: int, coeffs) -> None:
        """Give the new column col, nonbasic at 0, its entries in the rows.

        coeffs holds col's {row key: coefficient} in the rows as they
        entered.  Each such row r contributes tab[i][unit] * f * coefficient
        to row i's entry, with (unit, f) = unit[r].
        """
        terms = []
        for key, a in coeffs.items():
            unit, f = self.unit[self.rows[key]]
            terms.append((unit, f * a))
        for i, row in enumerate(self.tab):
            e = 0
            for unit, mult in terms:
                v = row.get(unit)
                if v:
                    e += v * mult
            if e:
                if e.denominator != 1:  # rescale the row to keep it integral
                    for j in row:
                        row[j] *= e.denominator
                    self.beta[i] *= e.denominator
                row[col] = e.numerator

    def _tighten(self, i: int) -> None:
        """Turn row i's <= into = by fixing its slack at 0; an = row is left
        as it is.  If the slack is basic above 0, an artificial with the same
        column takes its place."""
        slack = self.slack[i]
        if slack is None or self.qup[slack] is not None:
            return
        self.qup[slack] = 0
        if slack in self.basis:
            r = self.basis.index(slack)
            if self.beta[r] > 0:
                art = self.basis[r] = self._add_column()
                self.artificial[art] = 1
                self.tab[r][art] = self.tab[r][slack]

    def point(self, lp: LinearProgram, keys) -> tuple[Fraction, ...]:
        """The current values of the columns keyed keys, once they pass an
        exact check against lp, the program with variables keys."""
        where = {bv: i for i, bv in enumerate(self.basis)}
        q = self.q
        point = tuple(
            Fraction((self.qup if self.at_upper[j] else self.qlo)[j], q)
            if (i := where.get(j)) is None
            else Fraction(self.beta[i], self.tab[i][j] * q)
            for j in map(self.cols.__getitem__, keys)
        )
        # A failure here is an internal bug.
        if not _satisfies(lp, point):
            raise InternalError("simplex returned an infeasible point")
        return point

    def phase1(self) -> bool:
        """Bland's rule from the current basis until no column may enter;
        True iff every artificial is then at 0."""
        tab, basis, beta = self.tab, self.basis, self.beta
        qlo, qup, at_upper, rank = self.qlo, self.qup, self.at_upper, self.rank
        artificial = self.artificial
        # Phase-1 cost row, scaled to integers: minus the sum of the rows of
        # the basic artificials, each over its scale and its denominator, so
        # each column keeps the sign it has in the unscaled program.  It
        # omits the artificials' own unit cost, so it is the reduced-cost row
        # only on the non-artificial columns, the only ones that may enter.
        # _pivot keeps it current apart from tab, at a positive scale of its
        # own and with no beta.
        art_rows = [
            (i, artificial[bv] * tab[i][bv])
            for i, bv in enumerate(basis)
            if bv in artificial
        ]
        weight = lcm(*(w for _, w in art_rows))
        cost: dict[int, int] = {}
        for i, w in art_rows:
            w = weight // w
            for j, c in tab[i].items():
                cost[j] = cost.get(j, 0) - w * c

        while True:
            # An artificial never enters: once it has left, it stays at 0.
            eligible = [
                j
                for j, d in cost.items()
                if j not in artificial and (d > 0 if at_upper[j] else d < 0)
            ]
            if not eligible:
                return not any(b for b, bv in zip(beta, basis) if bv in artificial)
            entering = min(eligible, key=rank.__getitem__)
            direction = -1 if at_upper[entering] else 1
            column = [(i, c) for i, row in enumerate(tab) if (c := row.get(entering))]

            # Ratio test: max step t >= 0 before some bound is hit.  A step is
            # t = num / (q * k), and steps are compared by cross-multiplying.
            best_num = None if qup[entering] is None else qup[entering] - qlo[entering]
            best_k = 1
            leaving_row = -1
            leaving_to_upper = False
            for i, c in column:
                bvar = basis[i]
                d = tab[i][bvar]
                if direction * c > 0:  # beta[i] falls as the entering one moves
                    num = beta[i] - d * qlo[bvar]
                    hits_upper = False
                elif qup[bvar] is not None:
                    num = d * qup[bvar] - beta[i]
                    hits_upper = True
                else:
                    continue
                k = abs(c)
                if (
                    best_num is None
                    or num * best_k < best_num * k
                    or (
                        num * best_k == best_num * k
                        and leaving_row >= 0
                        and rank[bvar] < rank[basis[leaving_row]]
                    )
                ):
                    best_num, best_k = num, k
                    leaving_row = i
                    leaving_to_upper = hits_upper
            if best_num is None:
                raise InternalError("phase-1 objective unbounded below")

            # The step moves the entering variable by t = best_num / (q * best_k).
            step = direction * best_num
            if leaving_row == -1:  # bound flip: the entering variable crosses its box
                for i, c in column:
                    beta[i] -= c * step
                at_upper[entering] = not at_upper[entering]
                continue
            # It becomes basic in the pivot row, at coefficient |p| = best_k.
            origin = qup[entering] if at_upper[entering] else qlo[entering]
            _pivot(tab, leaving_row, entering, beta, step, column, cost)
            beta[leaving_row] = best_k * origin + step  # type: ignore[operator]
            at_upper[basis[leaving_row]] = leaving_to_upper
            basis[leaving_row] = entering


def _pivot(tab, r, col, beta, step, column, cost):
    """Pivot on tab[r][col], each row at its own integer scale.

    column holds the (i, tab[i][col]) pairs of the rows that hold col; cost,
    the reduced-cost row, holds col too and has no beta.  tab[r] is negated
    if need be so that p = tab[r][col] > 0.  Each other listed row and cost
    become p * row - c * tab[r], with c the row's entry in col, and a row's
    beta p * beta - c * step; each row, with its beta, is then divided by
    their gcd.  No other row is read or written.
    """
    prow = tab[r]
    p = prow[col]
    if p < 0:
        p = -p
        for j, v in prow.items():
            prow[j] = -v
    for i, c in column:
        if i != r:
            beta[i] = _combine(tab[i], c, p, prow, p * beta[i] - c * step)
    _combine(cost, cost[col], p, prow, 0)


def _combine(row, c, p, prow, b):
    """Set row to p * row - c * prow; divide it and b by their gcd; return b."""
    if p != 1:
        for j, v in row.items():
            row[j] = p * v
    for j, v in prow.items():
        nv = row.get(j, 0) - c * v
        if nv:
            row[j] = nv
        else:
            del row[j]
    g = gcd(b, *row.values())
    if g > 1:
        for j, v in row.items():
            row[j] = v // g
        b //= g
    return b
