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
    rows = presolved

    values = _simplex(rows, lo, up)
    if values is None:
        return INFEASIBLE

    point = tuple(values[j] if j in values else lo[j] for j in range(lp.var_count))
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
    Returns {var: value} for the structural variables involved, or None.
    """
    if not rows:
        return {}

    # Structural variables appearing in the rows, in index order.
    struct = sorted({j for coeffs, _, _ in rows for j in coeffs})
    col_of = {j: i for i, j in enumerate(struct)}
    p = len(struct)

    lows: list[Fraction] = [lo[j] for j in struct]
    ups: list[Optional[Fraction]] = [up[j] for j in struct]

    # Sparse tableau rows over columns: structural 0..p-1, then one slack
    # per LE row, then one artificial per row that needs it; RHS keyed -1.
    tab: list[dict[int, Fraction]] = []
    basis: list[int] = []
    is_artificial: set[int] = set()
    next_col = p

    for coeffs, rel, rhs in rows:
        row = {col_of[j]: Fraction(c) for j, c in coeffs.items()}
        residual = rhs - sum(
            (c * lows[col_of[j]] for j, c in coeffs.items()), Fraction(0)
        )
        row[-1] = Fraction(rhs)
        if rel == LE:
            slack = next_col
            next_col += 1
            lows.append(Fraction(0))
            ups.append(None)
            row[slack] = Fraction(1)
            if residual >= 0:
                basis.append(slack)
                tab.append(row)
                continue
        art = next_col
        next_col += 1
        lows.append(Fraction(0))
        ups.append(None)
        sign = Fraction(1) if residual >= 0 else Fraction(-1)
        row[art] = sign
        is_artificial.add(art)
        if sign < 0:
            row = {k: -v for k, v in row.items()}
        basis.append(art)
        tab.append(row)

    total = next_col
    at_upper = [False] * total
    in_basis = [False] * total
    for v in basis:
        in_basis[v] = True
    dead = [False] * total  # artificials barred from re-entering

    def nb_value(j: int) -> Fraction:
        return ups[j] if at_upper[j] else lows[j]  # type: ignore[return-value]

    while True:
        # Current basic values given nonbasic variables at their bounds.
        nonzero_nb = {
            j: nb_value(j)
            for j in range(total)
            if not in_basis[j] and nb_value(j) != 0
        }
        beta = []
        for row in tab:
            v = row.get(-1, Fraction(0))
            for j, val in nonzero_nb.items():
                c = row.get(j)
                if c is not None:
                    v -= c * val
            beta.append(v)

        # Phase-1 reduced costs: d_j = c_j - sum over artificial basic rows.
        y: dict[int, Fraction] = {}
        for i, bvar in enumerate(basis):
            if bvar in is_artificial:
                for j, c in tab[i].items():
                    y[j] = y.get(j, Fraction(0)) + c

        entering = -1
        for j in range(total):
            if in_basis[j] or dead[j]:
                continue
            d = (Fraction(1) if j in is_artificial else Fraction(0)) - y.get(
                j, Fraction(0)
            )
            if (not at_upper[j] and d < 0) or (at_upper[j] and d > 0):
                entering = j
                break
        if entering == -1:
            obj = sum(
                beta[i] for i, bv in enumerate(basis) if bv in is_artificial
            )
            if obj != 0:
                return None
            values = {}
            for i, bv in enumerate(basis):
                if bv < p:
                    values[struct[bv]] = beta[i]
            for j in range(p):
                if not in_basis[j]:
                    values[struct[j]] = nb_value(j)
            return values

        direction = -1 if at_upper[entering] else 1

        # Ratio test: max step t >= 0 before some bound is hit.
        t_best: Optional[Fraction] = None
        leaving_row = -1
        leaving_to_upper = False
        if ups[entering] is not None:
            t_best = ups[entering] - lows[entering]  # type: ignore[operator]
        for i, row in enumerate(tab):
            c = row.get(entering)
            if not c:
                continue
            rate = -direction * c  # change of beta[i] per unit step
            bvar = basis[i]
            if rate < 0:
                t = (beta[i] - lows[bvar]) / (-rate)
                hits_upper = False
            elif rate > 0 and ups[bvar] is not None:
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

        if leaving_row == -1:
            at_upper[entering] = not at_upper[entering]
            continue

        leaving = basis[leaving_row]
        _pivot(tab, leaving_row, entering)
        basis[leaving_row] = entering
        in_basis[entering] = True
        in_basis[leaving] = False
        at_upper[entering] = False
        at_upper[leaving] = leaving_to_upper
        if leaving in is_artificial:
            dead[leaving] = True


def _pivot(tab, r, col):
    prow = tab[r]
    piv = prow[col]
    if piv != 1:
        tab[r] = prow = {j: c / piv for j, c in prow.items()}
    for i, row in enumerate(tab):
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
