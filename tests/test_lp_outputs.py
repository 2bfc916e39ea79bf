"""Pinned outputs of the exact LP feasibility solver.

The points were recorded from the solver as it stood when every simplex
iteration rebuilt the basic values and the phase-1 reduced costs from
scratch and the tableau renumbered the variables it saw; a solver that
only changes how it keeps that state must return the same points.  The
programs reach past the 0/1 threshold programs of the divisible solver:
negative and fractional boxes, fixed variables, fractional coefficients,
LE rows whose right-hand side lies below the row at the lower bounds (a
slack and an artificial in one row; seeds 1, 5, 6, ...), and solves in
which the entering variable crosses its box without a pivot (a bound
flip; seeds 6, 9, 10, ...).  A point lists its coordinates in order.
"""

import random
from fractions import Fraction

import pytest

from gapfair.lp import EQ, LE, LinearProgram, feasible


def pinned_program(seed):
    """Seeded program with 3-7 variables and 2-6 rows, mostly feasible."""
    rng = random.Random(seed)
    nv, nr = rng.randint(3, 7), rng.randint(2, 6)
    prog = LinearProgram(nv)
    bounds = [Fraction(-2), Fraction(-1, 2), Fraction(0), Fraction(1, 3)]
    widths = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3)]
    prog.lower = [rng.choice(bounds) for _ in range(nv)]
    prog.upper = [lo + rng.choice(widths) for lo in prog.lower]
    # A point of the box; every row holds there unless its shift breaks it.
    inner = [
        lo + (up - lo) * Fraction(rng.randint(0, 4), 4)
        for lo, up in zip(prog.lower, prog.upper)
    ]
    for _ in range(nr):
        coeffs = {
            j: rng.choice([-3, -1, Fraction(1, 2), 1, 2])
            for j in rng.sample(range(nv), rng.randint(2, nv))
        }
        rel = rng.choice([LE, LE, EQ])
        if rel == LE:
            shift = rng.choice([0, 0, 0, Fraction(1, 2), 2, -1])
        else:
            shift = rng.choice([0, 0, 0, 0, 1])
        prog.add(coeffs, rel, sum(c * inner[j] for j, c in coeffs.items()) + shift)
    return prog


def encode(result):
    if result.assignment is None:
        return "infeasible"
    return " ".join(map(str, result.assignment))


# seed: assignment, or "infeasible"
PINNED = {
    0: '-1 0 71/96 1/3 0 1/3',
    1: 'infeasible',
    2: '-2 1/8 -1/2',
    3: 'infeasible',
    4: '-2 1/3 1/3 1/4',
    5: '0 11/48 113/192 1/4 -2 -1/2 -2',
    6: '3/4 0 -1 -1/3 -1/2 1/3 0',
    7: '1/3 -2 -2 -2 3',
    8: '1/3 -1/2 -1/8 -43/24',
    9: '9/4 0 1/2 -1/2 -5/4 0',
    10: '1/3 1/3 -2 1/2 1/3 1/3 3/16',
    11: '1/3 7/4 1/4 -1/2 1/3 -1/2',
    12: '1/124 -1/2 431/744 -2 43/248 4873/1488',
    13: '-1/8 -1/2 0 -1/2 -1/2',
    14: 'infeasible',
    15: '-2 -3/8 -1/2 -2',
    16: '1/3 3/2 17/24 -1/2 1/3',
    17: '0 2/9 7/12 -1/2 25/36 41/72 -2',
    18: '10/3 13/6 0 -1/6',
    19: '-1 0 1/3',
    20: '-5/4 3/2 -1/2 -2',
    21: 'infeasible',
    22: '-2 1/3 -1/2 -2',
    23: '-2 7/16 1/3 1/3 0',
    24: '-1/2 -1/2 -1/2 1 5/4 -2',
    25: '1/2 23/12 1/3 -2 0 -2',
    26: '1/3 -15/8 -1/2 11/24',
    27: 'infeasible',
    28: '11/8 1/3 -1/2',
    29: '0 0 -2 1/4 1/3 1/3 -2',
    30: 'infeasible',
    31: 'infeasible',
    32: '-1/2 0 -1/2',
    33: '-1/2 0 5/6 -1/2 0 13/12 1/3',
    34: '-13/12 -1/2 -2 5/6 0 -2 1/3',
    35: '-1/2 0 -1/2 5/24 1/3 0 -2',
    36: '-2 1 -1/2 -2 -1/2',
    37: '1/4 0 5/6 -2 1/3 2 1/3',
    38: 'infeasible',
    39: 'infeasible',
    40: 'infeasible',
    41: '-1/2 -3/8 1/3 0 1/2 1/3',
    42: '1/2 -1/2 -1/2',
    43: 'infeasible',
    44: '-13/8 -1/2 1/3 -1/2 1/4 -2',
    45: '1/3 0 -1/2 0 0',
    46: 'infeasible',
    47: '1/3 1/3 9/4 0 1/3',
    48: '-1/2 3/8 -1/2 1/3 55/32 -11/32 -2',
    49: 'infeasible',
    50: 'infeasible',
    51: 'infeasible',
    52: '1/3 9/4 1/3 -2 -1/2',
    53: '31/48 1/3 1/16 1/3 -2 -2 -1/2',
    54: '0 43/39 9/26 823/312',
    55: '-1/4 3/4 -2',
    56: '17/24 3/4 1/3 -1/2 -2 0 -2',
    57: 'infeasible',
    58: '1/2 7/20 -2 -1/2 77/60 1/3 0',
    59: '1/3 -2 1 0',
}


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_pinned_point(seed):
    assert encode(feasible(pinned_program(seed))) == PINNED[seed]
