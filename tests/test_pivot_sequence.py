"""Pinned pivot sequences of the exact LP.

Every pivot the simplex makes is recorded as (row, entering column), and
a group of solves is pinned by its pivot count and the SHA-256 of the
sequence.  The sequences were recorded when the tableau held
fractions.Fraction entries; a change to the number representation alone
must make the same pivots in the same order, because Bland's rule and the
ratio test's tie-break read only the signs and order of exact values.

The "divisible" and "lp-outputs" groups pin cold solves, through
feasible(); in divisible_fef those are the LP1 programs.  The "warm"
group pins the pivots of the threshold trials, which divisible_fef
decides through lp.resume() from the last accepted tableau, grown by one
step; their count is also bounded against the cold solves they replace.
"""

import hashlib

import pytest

from gapfair import divisible, divisible_fef, lp
from gapfair.cli import gen_random
from gapfair.lp import feasible
from test_lp_outputs import PINNED, pinned_program


def _divisible_solves():
    for seed in range(1, 21):
        divisible_fef(gen_random(seed, 3, 5))


def _lp_output_programs():
    for seed in sorted(PINNED):
        feasible(pinned_program(seed))


# group: (pivot count, SHA-256 of "row,col;" per pivot).  "divisible" holds
# the LP1 programs only: 1873 of the 5030 pivots made when every threshold
# trial was also solved cold.  "warm" holds the threshold trials of the
# same solves, as first recorded when each trial's program was diffed
# against its parent's to find the step.
PINNED_SEQUENCES = {
    "divisible": (
        1873,
        "d233cf147bb7b5212d251dbb1fdd25cb64b966a16c212afbc8ab835b5aa5d1c1",
    ),
    "lp-outputs": (
        90,
        "851cc4f50b84cc14018451eea5335cb50d5d62c9227895682c5636af63048429",
    ),
    "warm": (
        516,
        "7f52c4000e7ef6e35037478774b9a12cc2d953fc0eb5ca44708132bbe79896b3",
    ),
}
_SOLVES = {
    "divisible": _divisible_solves,
    "lp-outputs": _lp_output_programs,
    "warm": _divisible_solves,
}

# The threshold trials of the "divisible" solves made 3157 pivots when each
# was solved cold; warm starts must need at most a quarter of that.
WARM_TRIAL_PIVOTS = 3157 // 4


def _record_pivots(monkeypatch, solves):
    """Run solves; return the pivots of cold and of warm-started programs."""
    pivots = {"cold": [], "warm": []}
    mode = ["cold"]
    real_pivot = lp._pivot

    def recording_pivot(rows, r, col, *args):
        pivots[mode[0]].append(f"{r},{col};")
        return real_pivot(rows, r, col, *args)

    real_resume = divisible.resume

    def resume_warm(*args):
        mode[0] = "warm"
        try:
            return real_resume(*args)
        finally:
            mode[0] = "cold"

    monkeypatch.setattr(lp, "_pivot", recording_pivot)
    monkeypatch.setattr(divisible, "resume", resume_warm)
    solves()
    return pivots


@pytest.mark.parametrize("group", sorted(PINNED_SEQUENCES))
def test_pivot_sequence_unchanged(group, monkeypatch):
    mode = "warm" if group == "warm" else "cold"
    pivots = _record_pivots(monkeypatch, _SOLVES[group])[mode]
    digest = hashlib.sha256("".join(pivots).encode()).hexdigest()
    assert (len(pivots), digest) == PINNED_SEQUENCES[group]


def test_warm_trials_pivot_at_most_a_quarter_as_often(monkeypatch):
    warm = _record_pivots(monkeypatch, _divisible_solves)["warm"]
    assert 0 < len(warm) <= WARM_TRIAL_PIVOTS
