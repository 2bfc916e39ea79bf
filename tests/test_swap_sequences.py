"""Pinned swap sequences of the FEFx and (1-eps)-FEFx solvers.

The sequences were recorded from the solvers as they stood when the exact
and approximate swap loops were separate copies; the single eps-driven
loop must reproduce them swap for swap.  Each swap is written
"agent:goods:welfare" with 0-based indices.
"""

import random
from fractions import Fraction

import pytest

from gapfair import Instance, compute_approx_fefx, compute_fefx
from oracles import fefx_among_agents_brute, replay_swaps


def pinned_instance(seed):
    """Seeded instance; sizes may be 0, values reach 60 so the FPTAS
    rounding changes some swaps."""
    rng = random.Random(seed)
    n, m = rng.randint(1, 3), rng.randint(1, 6)
    return Instance(
        n=n,
        m=m,
        values=tuple(tuple(rng.randint(0, 60) for _ in range(m)) for _ in range(n)),
        sizes=tuple(tuple(rng.randint(0, 4) for _ in range(m)) for _ in range(n)),
        budgets=tuple(rng.randint(1, 8) for _ in range(n)),
    )


def encode(result):
    return " ".join(
        f"{r.agent}:{','.join(map(str, sorted(r.goods)))}:{r.welfare}"
        for r in result.swaps
    )


# seed: (exact, eps = 1/10, eps = 1/4)
PINNED = {
    0: (
        '1:3:53 0:2:85',
        '1:3:53 0:2:85',
        '1:3:53 0:2:85',
    ),
    1: (
        '0:4:16 0:2:48 0:1:51 0:0:54',
        '0:4:16 0:2:48 0:1:51 0:0:54',
        '0:4:16 0:2:48 0:0,4:70',
    ),
    2: (
        '0:0:5',
        '0:0:5',
        '0:0:5',
    ),
    3: (
        '0:4:38 0:3:58 0:2,4:61 0:1,3:66 0:0,4:72 0:2,3:81',
        '0:4:38 0:3:58 0:1,2,4:69 0:0,3:92',
        '0:4:38 0:3:58 0:1,2,4:69 0:0,3:92',
    ),
    4: (
        '0:2:25 0:1:46',
        '0:2:25 0:1:46',
        '0:2:25 0:1:46',
    ),
    5: (
        '0:2:50 1:1:110 2:0:157',
        '0:2:50 1:1:110 2:0:157',
        '0:2:50 1:1:110 2:0:157',
    ),
    6: (
        '0:0:31',
        '0:0:31',
        '0:0:31',
    ),
    7: (
        '0:1:41 1:0:44',
        '0:1:41 1:0:44',
        '0:1:41 1:0:44',
    ),
    8: (
        '0:2:12 0:0:24',
        '0:2:12 0:0:24',
        '0:2:12 0:0:24',
    ),
    9: (
        '1:4:29 1:3:32 0:2:40 0:1:49 1:0:60',
        '1:4:29 1:3:32 0:2:40 0:1:49 1:0:60',
        '1:4:29 0:2:37 0:1:46 1:0:60',
    ),
    10: (
        '0:0:27',
        '0:0:27',
        '0:0:27',
    ),
    11: (
        '0:4:28 0:3:29 1:4:40 1:2:66 1:1:83 1:0,2:98',
        '0:4:28 1:3:40 1:2:65 1:1:82 1:0,2:97',
        '0:4:28 1:3:40 1:2:65 1:1:82 1:0,2:97',
    ),
    12: (
        '0:2:42 0:0,1:75',
        '0:2:42 0:0,1:75',
        '0:2:42 0:0,1:75',
    ),
    13: (
        '0:2:43 0:1:58 1:2:114',
        '0:2:43 0:1:58 1:2:114',
        '0:2:43 0:1:58 1:2:114',
    ),
    14: (
        '0:4:60 0:2,3:74 0:1,4:108 0:0,2,3:118',
        '0:4:60 0:2,3:74 0:1,4:108 0:0,2,3:118',
        '0:4:60 0:2,3:74 0:1,4:108',
    ),
    15: (
        '0:0:33',
        '0:0:33',
        '0:0:33',
    ),
    16: (
        '0:3:14 0:2:26 1:3:80 0:0:84 0:1,2:98',
        '0:3:14 0:2:26 1:3:80 0:0:84 0:1,2:98',
        '0:3:14 0:2:26 1:3:80 0:0:84 0:1,2:98',
    ),
    17: (
        '0:3:18 0:2:23 1:3:68 2:1:110 0:0:138',
        '0:3:18 0:2:23 1:3:68 2:1:110 0:0:138',
        '0:3:18 0:2:23 1:3:68 2:1:110 0:0:138',
    ),
    18: (
        '0:0:42',
        '0:0:42',
        '0:0:42',
    ),
    19: (
        '0:0:50',
        '0:0:50',
        '0:0:50',
    ),
    20: (
        '0:5:16 1:4:22 0:3:63 1:5:112 2:4:113 2:2:169 0:1,4:170 1:3:172 0:0,5:180',
        '0:5:16 1:4:22 0:3:63 1:5:112 2:4:113 2:2:169 0:0,1:211 1:3,4:219',
        '0:5:16 1:4:22 0:3:63 1:5:112 2:4:113 2:2:169 0:0,1:211 1:3,4:219',
    ),
    21: (
        '0:2:40 0:0:44',
        '0:2:40 0:0:44',
        '0:2:40',
    ),
    22: (
        '0:1:39',
        '0:1:39',
        '0:1:39',
    ),
    23: (
        '0:0:1',
        '0:0:1',
        '0:0:1',
    ),
    24: (
        '0:3:13 1:2:23 0:1:47 2:3:95 0:0:111 1:1:113',
        '0:3:13 1:2:23 0:1:47 2:3:95 0:0:111 1:1:113',
        '0:3:13 1:2:23 0:1:47 2:3:95 0:0:111 1:1:113',
    ),
    25: (
        '1:0:59',
        '1:0:59',
        '1:0:59',
    ),
    26: (
        '0:1:13 0:0:42 1:1:80',
        '0:1:13 0:0:42 1:1:80',
        '0:1:13 0:0:42 1:1:80',
    ),
    27: (
        '0:3:12 0:2:18 1:3:70 0:0:96',
        '0:3:12 0:2:18 1:3:70 0:0:96',
        '0:3:12 0:2:18 1:3:70 0:0:96',
    ),
    28: (
        '0:5:14 0:3:45 0:2,5:52 0:3,4:56 0:1,2:72 0:0,3,4,5:78',
        '0:5:14 0:3:45 0:2,5:52 0:3,4:56 0:1,2:72 0:0,3,4,5:78',
        '0:5:14 0:3:45 0:2,5:52 0:1,3:79',
    ),
    29: (
        '0:0:22',
        '0:0:22',
        '0:0:22',
    ),
}


def test_pins_cover_zero_sizes_and_fptas_rounding():
    assert sum(
        any(0 in row for row in pinned_instance(seed).sizes) for seed in PINNED
    ) >= 10
    assert sum(len(set(runs)) > 1 for runs in PINNED.values()) >= 5


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_swap_sequences_unchanged(seed):
    inst = pinned_instance(seed)
    exact, tenth, quarter = PINNED[seed]
    result = compute_fefx(inst)
    assert encode(result) == exact
    assert all(
        fefx_among_agents_brute(inst, a) for a in replay_swaps(inst, result.swaps)
    )
    assert encode(compute_approx_fefx(inst, Fraction(1, 10))) == tenth
    assert encode(compute_approx_fefx(inst, Fraction(1, 4))) == quarter
