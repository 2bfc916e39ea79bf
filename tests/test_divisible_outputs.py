"""Pinned outputs of the divisible FEF solver.

The threshold histories and allocations were recorded from the solver as
it stood when each threshold program still carried one variable per
(agent, good) pair and zero-fixing rows outside each agent's support; the
support-only programs must reproduce them exactly.  A history lists every
threshold vector as one digit per agent; an allocation lists the base-good
fractions of each agent, agents separated by "|".  The 240-instance ladder
is pinned by one SHA-256 over all of its outputs.
"""

import hashlib
import random

import pytest

from gapfair import Instance, divisible_fef
from gapfair.cli import gen_random


def pinned_instance(seed):
    """Seeded instance with n <= 3, m <= 4 and sizes >= 1."""
    rng = random.Random(seed)
    n, m = rng.randint(1, 3), rng.randint(1, 4)
    return Instance(
        n=n,
        m=m,
        values=tuple(tuple(rng.randint(0, 30) for _ in range(m)) for _ in range(n)),
        sizes=tuple(tuple(rng.randint(1, 9) for _ in range(m)) for _ in range(n)),
        budgets=tuple(rng.randint(1, 10) for _ in range(n)),
    )


def encode_history(result):
    return " ".join("".join(map(str, tau)) for tau in result.tau_history)


def encode_allocation(result):
    return " | ".join(" ".join(str(v) for v in row) for row in result.allocation.x)


# seed: (tau_history, allocation.x)
PINNED = {
    0: (
        '11 12 13 14',
        '0 0 1/3 0 | 2/27 1 2/3 1',
    ),
    1: (
        '1 2',
        '1',
    ),
    2: (
        '1',
        '1/2',
    ),
    3: (
        '1 2',
        '1 1',
    ),
    4: (
        '1',
        '0 2/3 0',
    ),
    5: (
        '111 211 221 231 241 242 342 343 344',
        '1/9 1/3 1/3 | 4/9 1/3 1/3 | 4/9 1/3 1/3',
    ),
    6: (
        '111 211 221 222',
        '1/3 | 1/3 | 1/3',
    ),
    7: (
        '11 21 22 32 33',
        '1/2 1/2 | 1/2 1/2',
    ),
    8: (
        '1 2',
        '1/2 1 0',
    ),
    9: (
        '11 21',
        '1/2 0 7/8 | 1/2 0 0',
    ),
    10: (
        '111 211 221 222',
        '1/3 | 1/3 | 1/3',
    ),
    11: (
        '11 21 22',
        '0 0 1/2 0 | 0 0 1/2 1',
    ),
    12: (
        '11 21 31',
        '1 1 1/4 | 0 0 1/4',
    ),
    13: (
        '11 12 22 23 24',
        '0 1/2 0 | 1 1/2 1',
    ),
    14: (
        '1',
        '0 2/5',
    ),
    15: (
        '1 2',
        '1',
    ),
    16: (
        '11 21 31 41 42 43',
        '1/2 11/12 5/6 1/2 | 1/2 0 1/6 1/2',
    ),
    17: (
        '111 211 311 321 322 323',
        '6/7 1/2 11/56 0 | 0 0 1/9 1/2 | 1/7 1/2 0 1/2',
    ),
    18: (
        '1',
        '3/4',
    ),
    19: (
        '111 211 221 222',
        '1/3 | 1/3 | 1/3',
    ),
    20: (
        '111 121 221 222 232 233',
        '1/6 1/3 | 5/12 1/3 | 5/12 1/3',
    ),
    21: (
        '1',
        '0 3/4 0 0',
    ),
    22: (
        '1',
        '0 2/3',
    ),
    23: (
        '11 21 22',
        '1/2 | 1/2',
    ),
    24: (
        '111 211 311 411 421 431 432 433',
        '1/2 1/2 464/1067 951/2134 | 0 1/2 464/1067 67/1067 | 1/2 0 139/1067 1049/2134',
    ),
    25: (
        '11',
        '1/5 | 5/8',
    ),
    26: (
        '111 211 221 231 232 332 333',
        '1/3 1/3 | 1/3 1/3 | 1/3 1/3',
    ),
    27: (
        '111 211 212 312 313',
        '1/2 0 1/2 3/8 | 0 0 0 1/2 | 1/2 4/7 1/2 0',
    ),
    28: (
        '1',
        '1 0',
    ),
    29: (
        '111 211 221 222',
        '1/3 | 1/3 | 1/3',
    ),
    30: (
        '111 211 221 231 241 242 342 343 344',
        '1/3 0 1/3 | 1/3 1/2 1/3 | 1/3 1/2 1/3',
    ),
    31: (
        '1 2',
        '0 1 1/2 0',
    ),
    32: (
        '1',
        '0 1/8',
    ),
    33: (
        '111 211 221 321 331 332',
        '1/3 1/3 | 1/3 1/3 | 1/3 1/3',
    ),
    34: (
        '111 211 221 321 331 341',
        '1/3 17/42 1/2 | 1/3 25/42 1/2 | 1/3 0 0',
    ),
    35: (
        '111 112',
        '1/5 0 0 | 0 1/3 0 | 0 2/3 22/27',
    ),
    36: (
        '11 12',
        '1/5 | 4/5',
    ),
    37: (
        '111 211 221',
        '1/3 | 1/3 | 1/3',
    ),
    38: (
        '111 211 212',
        '1/2 1/4 0 0 | 0 0 7/8 0 | 1/2 0 0 7/8',
    ),
    39: (
        '1 2',
        '1 0 1',
    ),
}


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_divisible_outputs_match_pinned(seed):
    history, allocation = PINNED[seed]
    result = divisible_fef(pinned_instance(seed))
    assert encode_history(result) == history
    assert encode_allocation(result) == allocation
    assert result.tau == result.tau_history[-1]


# SHA-256 over repr((allocation.x, tau_history)) of gen_random(seed, n, m),
# seed-major, as recorded when every threshold program held one variable
# per (agent, supported good).
LADDER_SIZES = ((2, 4), (3, 5), (3, 6), (4, 6))
LADDER_SHA256 = "587a475ef6780b85a699a4c9c29266286acd1f676b96fd1d5fd9f938c0937b91"


def test_ladder_outputs_match_pinned():
    digest = hashlib.sha256()
    for seed in range(1, 61):
        for n, m in LADDER_SIZES:
            result = divisible_fef(gen_random(seed, n, m))
            digest.update(repr((result.allocation.x, result.tau_history)).encode())
    assert digest.hexdigest() == LADDER_SHA256
