"""Pinned pivot sequences of the exact LP.

Every pivot the simplex makes is recorded as (row, entering column), and
a group of solves is pinned by its pivot count and the SHA-256 of the
sequence.  Bland's rule and the ratio test's tie-break read only the
signs and order of exact values, so a change to the number representation
alone must make the same pivots in the same order; the "lp-outputs"
sequence was recorded when the tableau held fractions.Fraction entries.

The "divisible" group pins every program divisible_fef decides, LP1 and
the threshold trials alike, over the edge amounts; "lp-outputs" pins the
programs of tests/test_lp_outputs.py.
"""

import hashlib

import pytest

from gapfair import divisible_fef, lp
from gapfair.cli import gen_random
from gapfair.lp import feasible
from test_lp_outputs import PINNED, pinned_program


def _divisible_solves():
    for seed in range(1, 21):
        divisible_fef(gen_random(seed, 3, 5))


def _lp_output_programs():
    for seed in sorted(PINNED):
        feasible(pinned_program(seed))


# group: (pivot count, SHA-256 of "row,col;" per pivot).  "divisible" made
# 1873 pivots in its LP1 programs alone, and 516 more in its trials, when
# each program held one variable per (agent, supported good).
PINNED_SEQUENCES = {
    "divisible": (
        111,
        "9b6dd810c6df48766bb557ad56914898263828af9c27e29764023d85608552c6",
    ),
    "lp-outputs": (
        90,
        "851cc4f50b84cc14018451eea5335cb50d5d62c9227895682c5636af63048429",
    ),
}
_SOLVES = {
    "divisible": _divisible_solves,
    "lp-outputs": _lp_output_programs,
}


def _record_pivots(monkeypatch, solves):
    """Run solves; return their pivots in order."""
    pivots = []
    real_pivot = lp._pivot

    def recording_pivot(rows, r, col, *args):
        pivots.append(f"{r},{col};")
        return real_pivot(rows, r, col, *args)

    monkeypatch.setattr(lp, "_pivot", recording_pivot)
    solves()
    return pivots


@pytest.mark.parametrize("group", sorted(PINNED_SEQUENCES))
def test_pivot_sequence_unchanged(group, monkeypatch):
    pivots = _record_pivots(monkeypatch, _SOLVES[group])
    digest = hashlib.sha256("".join(pivots).encode()).hexdigest()
    assert (len(pivots), digest) == PINNED_SEQUENCES[group]
