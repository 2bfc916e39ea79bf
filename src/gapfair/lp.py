"""Exact rational linear-program feasibility via phase-1 simplex.

Only feasibility is decided (no optimization interface): the threshold
loop of the divisible solver asks nothing else.  Variables carry native
box bounds (bounded-variable simplex) and the pivot rule is Bland's, so
the solve terminates without perturbation.

The simplex runs on integers, and each tableau row keeps its own scale:
the coefficient of its basic variable is its denominator.  A pivot
combines only the rows that hold the entering column and divides each of
them, together with its basic value, by their gcd.
fractions.Fraction is used only outside the simplex loop: in presolve,
for the returned point, and in the self-check that the point satisfies
every constraint exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Optional

from .instance import InternalError

LE = "<="
EQ = "="

_RELATIONS = (LE, EQ)


class LPStructureError(ValueError):
    """Malformed program (bad dimensions, bad relation, crossed bounds)."""


@dataclass
class Constraint:
    coeffs: dict[int, int | Fraction]
    relation: str
    rhs: Fraction


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

    def add(self, coeffs: dict[int, int | Fraction], relation: str, rhs) -> None:
        """Append a row; nonzero coefficients are stored as given."""
        _check_exact([*coeffs.values(), rhs], f"constraint {len(self.constraints)}")
        nonzero = {j: c for j, c in coeffs.items() if c != 0}
        self.constraints.append(Constraint(nonzero, relation, Fraction(rhs)))

    def pretty(self, names: Optional[list[str]] = None) -> str:
        """Human-readable constraint listing (CLI debug dump)."""
        name = (lambda j: names[j]) if names else (lambda j: f"x{j}")
        lines = []
        for c in self.constraints:
            terms = " + ".join(
                f"{c.coeffs[j]}*{name(j)}" for j in sorted(c.coeffs)
            ) or "0"
            lines.append(f"{terms} {c.relation} {c.rhs}")
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


def _check_exact(values: list, what: str) -> None:
    # A float would be coerced to its binary expansion, and bool is an int.
    if not {int, Fraction}.issuperset(map(type, values)):
        bad = next(v for v in values if type(v) not in (int, Fraction))
        raise LPStructureError(f"{what}: {bad!r} is not an int or Fraction")


def _validate(lp: LinearProgram) -> None:
    if len(lp.lower) != lp.var_count or len(lp.upper) != lp.var_count:
        raise LPStructureError("bound vectors must match var_count")
    _check_exact([*lp.lower, *lp.upper], "bounds")
    for j in range(lp.var_count):
        if lp.lower[j] > lp.upper[j]:
            raise LPStructureError(f"variable {j}: lower bound exceeds upper")
    for idx, c in enumerate(lp.constraints):
        if c.relation not in _RELATIONS:
            raise LPStructureError(f"constraint {idx}: bad relation {c.relation!r}")
        _check_exact([*c.coeffs.values(), c.rhs], f"constraint {idx}")
        for j in c.coeffs:
            if j < 0 or j >= lp.var_count:
                raise LPStructureError(f"constraint {idx}: variable {j} out of range")


def _satisfies(lp: LinearProgram, point: tuple[Fraction, ...]) -> bool:
    for j in range(lp.var_count):
        if not (lp.lower[j] <= point[j] <= lp.upper[j]):
            return False
    for c in lp.constraints:
        lhs = sum((coef * point[j] for j, coef in c.coeffs.items()), Fraction(0))
        if c.relation == EQ and lhs != c.rhs:
            return False
        if c.relation == LE and lhs > c.rhs:
            return False
    return True


def feasible(lp: LinearProgram) -> FeasibilityResult:
    """Decide whether the polyhedron is nonempty.

    Returns a point satisfying all constraints exactly when feasible;
    deterministic for a fixed input.  Structural problems raise
    LPStructureError instead of reporting Infeasible.
    """
    _validate(lp)
    lo = list(lp.lower)
    up = list(lp.upper)
    rows = [(dict(c.coeffs), c.relation, c.rhs) for c in lp.constraints]

    presolved = _presolve(rows, lo, up)
    if presolved is None:
        return INFEASIBLE
    point = _simplex(presolved, lo, up)
    if point is None:
        return INFEASIBLE
    # Exact soundness self-check; a failure here is an internal bug.
    if not _satisfies(lp, point):
        raise InternalError("simplex returned an infeasible point")
    return FeasibilityResult(point)


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
                if rel == EQ:
                    v = rhs / c
                    if v < lo[j] or v > up[j]:
                        return None
                    lo[j] = up[j] = v
                else:
                    b = rhs / c
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


def _simplex(rows, lo, up):
    """Phase-1 bounded-variable simplex with Bland's rule, on integers.

    rows: list of (coeffs, relation, rhs) with >= 2 free variables each.
    Returns the point over all len(lo) variables, or None if infeasible.
    """
    n = len(lo)
    # Integer tableau rows, each at its own scale.  Columns 0..n-1 are the
    # caller's variables; after them, row by row, one slack per LE row and one
    # artificial per row that needs it.  Row i starts scaled by scales[i], the
    # lcm of its coefficient denominators, and its slack and artificial by the
    # same factor, so they start at coefficient 1.  The coefficient
    # d_i = tab[i][basis[i]] > 0 of the basic variable is the row's
    # denominator: beta[i] is d_i * q times the value of basis[i], where q
    # clears the denominators of the bounds and scaled right-hand sides;
    # qlo/qup hold q times each column's bounds (None: unbounded).
    scales = [lcm(*(c.denominator for c in coeffs.values())) for coeffs, _, _ in rows]
    used = {j for coeffs, _, _ in rows for j in coeffs}
    q = lcm(
        *(lo[j].denominator for j in used),
        *(up[j].denominator for j in used),
        *(
            rhs.denominator // gcd(s, rhs.denominator)
            for (_, _, rhs), s in zip(rows, scales)
        ),
    )
    qlo: list[int] = [0] * n
    qup: list[Optional[int]] = [None] * n
    for j in used:
        qlo[j] = lo[j].numerator * (q // lo[j].denominator)
        qup[j] = up[j].numerator * (q // up[j].denominator)
    tab: list[dict[int, int]] = []
    basis: list[int] = []
    beta: list[int] = []
    is_artificial: set[int] = set()

    for (coeffs, rel, rhs), s in zip(rows, scales):
        row = {j: c.numerator * (s // c.denominator) for j, c in coeffs.items()}
        residual = rhs.numerator * (s * q // rhs.denominator) - sum(
            c * qlo[j] for j, c in row.items()
        )
        if rel == LE:
            row[len(qlo)] = 1
            qlo.append(0)
            qup.append(None)
        if rel == EQ or residual < 0:
            if residual < 0:
                row = {k: -v for k, v in row.items()}
            row[len(qlo)] = 1
            is_artificial.add(len(qlo))
            qlo.append(0)
            qup.append(None)
        basis.append(len(qlo) - 1)
        beta.append(abs(residual))
        tab.append(row)

    # Phase-1 cost row, scaled to integers: minus the sum of the artificial
    # rows, row i weighted by weight // scales[i], so each column keeps the
    # sign it has in the unscaled program.  It omits the artificials' own
    # unit cost, so it is the reduced-cost row only on the non-artificial
    # columns, the only ones that may enter.  _pivot keeps it current apart
    # from tab, at a positive scale of its own and with no beta.
    art_rows = [i for i, bvar in enumerate(basis) if bvar in is_artificial]
    weight = lcm(*(scales[i] for i in art_rows))
    cost: dict[int, int] = {}
    for i in art_rows:
        w = weight // scales[i]
        for j, c in tab[i].items():
            cost[j] = cost.get(j, 0) - w * c
    at_upper = [False] * len(qlo)

    while True:
        # An artificial never enters: once it has left, it stays at 0.
        eligible = [
            j
            for j, d in cost.items()
            if j not in is_artificial and (d > 0 if at_upper[j] else d < 0)
        ]
        if not eligible:
            if any(b for b, bv in zip(beta, basis) if bv in is_artificial):
                return None
            point = [up[j] if at_upper[j] else lo[j] for j in range(n)]
            for row, bv, b in zip(tab, basis, beta):
                if bv < n:
                    point[bv] = Fraction(b, row[bv] * q)
            return tuple(point)
        entering = min(eligible)
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
                    and bvar < basis[leaving_row]
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
        start = qup[entering] if at_upper[entering] else qlo[entering]
        _pivot(tab, leaving_row, entering, beta, step, column, cost)
        beta[leaving_row] = best_k * start + step  # type: ignore[operator]
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
