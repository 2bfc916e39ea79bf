"""Exact rational linear-program feasibility via phase-1 simplex.

Only feasibility is decided (no optimization interface): the threshold
loop of the divisible solver asks nothing else.  Variables carry native
box bounds (bounded-variable simplex) and the pivot rule is Bland's, so
the solve terminates without perturbation.  All arithmetic is on
fractions.Fraction; a returned point satisfies every constraint exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .instance import InternalError

LE = "<="
EQ = "="

_RELATIONS = (LE, EQ)


class LPStructureError(ValueError):
    """Malformed program (bad dimensions, bad relation, crossed bounds)."""


@dataclass
class Constraint:
    coeffs: dict[int, Fraction]
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

    def add(self, coeffs: dict[int, Fraction | int], relation: str, rhs) -> None:
        self.constraints.append(
            Constraint(
                {j: Fraction(c) for j, c in coeffs.items() if c != 0},
                relation,
                Fraction(rhs),
            )
        )

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


def _validate(lp: LinearProgram) -> None:
    if len(lp.lower) != lp.var_count or len(lp.upper) != lp.var_count:
        raise LPStructureError("bound vectors must match var_count")
    for j in range(lp.var_count):
        if lp.lower[j] > lp.upper[j]:
            raise LPStructureError(f"variable {j}: lower bound exceeds upper")
    for idx, c in enumerate(lp.constraints):
        if c.relation not in _RELATIONS:
            raise LPStructureError(f"constraint {idx}: bad relation {c.relation!r}")
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
    """Phase-1 bounded-variable simplex with Bland's rule.

    rows: list of (coeffs, relation, rhs) with >= 2 free variables each.
    Returns the point over all len(lo) variables, or None if infeasible.
    """
    n = len(lo)
    # Sparse tableau rows.  Columns 0..n-1 are the caller's variables; after
    # them, row by row, one slack per LE row and one artificial per row that
    # needs it.  beta[i] is the value of the basic variable basis[i].
    lows: list[Fraction] = list(lo)
    ups: list[Optional[Fraction]] = list(up)
    tab: list[dict[int, Fraction]] = []
    basis: list[int] = []
    beta: list[Fraction] = []
    is_artificial: set[int] = set()

    for coeffs, rel, rhs in rows:
        row = {j: Fraction(c) for j, c in coeffs.items()}
        residual = rhs - sum((c * lo[j] for j, c in coeffs.items()), Fraction(0))
        if rel == LE:
            row[len(lows)] = Fraction(1)
            lows.append(Fraction(0))
            ups.append(None)
        if rel == EQ or residual < 0:
            if residual < 0:
                row = {k: -v for k, v in row.items()}
            row[len(lows)] = Fraction(1)
            is_artificial.add(len(lows))
            lows.append(Fraction(0))
            ups.append(None)
        basis.append(len(lows) - 1)
        beta.append(abs(residual))
        tab.append(row)

    # Phase-1 reduced costs, started as minus the sum of the artificial rows
    # and kept current by _pivot as one more row.  They are exact on every
    # non-artificial column, and zero on the basic ones.
    cost: dict[int, Fraction] = {}
    for row, bvar in zip(tab, basis):
        if bvar in is_artificial:
            for j, c in row.items():
                cost[j] = cost.get(j, Fraction(0)) - c
    at_upper = [False] * len(lows)

    while True:
        # An artificial never enters: once it has left, it stays at 0.
        eligible = [
            j
            for j, d in cost.items()
            if j not in is_artificial and (d > 0 if at_upper[j] else d < 0)
        ]
        if not eligible:
            if sum(b for b, bv in zip(beta, basis) if bv in is_artificial) != 0:
                return None
            point = [up[j] if at_upper[j] else lo[j] for j in range(n)]
            for bv, b in zip(basis, beta):
                if bv < n:
                    point[bv] = b
            return tuple(point)
        entering = min(eligible)
        direction = -1 if at_upper[entering] else 1
        column = [(i, c) for i, row in enumerate(tab) if (c := row.get(entering))]

        # Ratio test: max step t >= 0 before some bound is hit.
        t_best: Optional[Fraction] = None
        leaving_row = -1
        leaving_to_upper = False
        if ups[entering] is not None:
            t_best = ups[entering] - lows[entering]  # type: ignore[operator]
        for i, c in column:
            rate = -direction * c  # change of beta[i] per unit step
            bvar = basis[i]
            if rate < 0:
                t = (beta[i] - lows[bvar]) / (-rate)
                hits_upper = False
            elif ups[bvar] is not None:
                t = (ups[bvar] - beta[i]) / rate  # type: ignore[operator]
                hits_upper = True
            else:
                continue
            if (
                t_best is None
                or t < t_best
                or (t == t_best and leaving_row >= 0 and bvar < basis[leaving_row])
            ):
                t_best = t
                leaving_row = i
                leaving_to_upper = hits_upper
        if t_best is None:
            raise InternalError("phase-1 objective unbounded below")

        for i, c in column:
            beta[i] -= direction * c * t_best
        if leaving_row == -1:  # bound flip: the entering variable crosses its box
            at_upper[entering] = not at_upper[entering]
            continue
        start = ups[entering] if at_upper[entering] else lows[entering]
        leaving = basis[leaving_row]
        _pivot([*tab, cost], leaving_row, entering)
        basis[leaving_row] = entering
        beta[leaving_row] = start + direction * t_best  # type: ignore[operator]
        at_upper[leaving] = leaving_to_upper


def _pivot(rows, r, col):
    """Scale rows[r] to 1 at col and eliminate col from every other row."""
    prow = rows[r]
    piv = prow[col]
    if piv != 1:
        for j, c in prow.items():
            prow[j] = c / piv
    for i, row in enumerate(rows):
        if i == r:
            continue
        factor = row.get(col)
        if not factor:
            continue
        for j, c in prow.items():
            nv = row.get(j, Fraction(0)) - factor * c
            if nv:
                row[j] = nv
            else:
                row.pop(j, None)
