"""Pinned pivot sequences of the exact LP.

Every pivot the simplex makes is recorded as (row, entering column), and
a group of solves is pinned by its pivot count and the SHA-256 of the
sequence.  The sequences were recorded when the tableau held
fractions.Fraction entries; a change to the number representation alone
must make the same pivots in the same order, because Bland's rule and the
ratio test's tie-break read only the signs and order of exact values.
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


# group: (pivot count, SHA-256 of "row,col;" per pivot)
PINNED_SEQUENCES = {
    "divisible": (
        5030,
        "2cba1aedbf41d20ae20a570743b1d48d774eb2daf1413a44a30a580c78bdb55e",
    ),
    "lp-outputs": (
        90,
        "851cc4f50b84cc14018451eea5335cb50d5d62c9227895682c5636af63048429",
    ),
}
_SOLVES = {"divisible": _divisible_solves, "lp-outputs": _lp_output_programs}


@pytest.mark.parametrize("group", sorted(PINNED_SEQUENCES))
def test_pivot_sequence_unchanged(group, monkeypatch):
    pivots = []
    real_pivot = lp._pivot

    def recording_pivot(rows, r, col, *args):
        pivots.append(f"{r},{col};")
        return real_pivot(rows, r, col, *args)

    monkeypatch.setattr(lp, "_pivot", recording_pivot)
    _SOLVES[group]()
    digest = hashlib.sha256("".join(pivots).encode()).hexdigest()
    assert (len(pivots), digest) == PINNED_SEQUENCES[group]
