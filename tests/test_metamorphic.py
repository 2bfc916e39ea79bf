"""Metamorphic relations, checked at sizes the brute-force oracles cannot
reach.

- Per-agent scaling.  Multiply agent a's values by c_a, and her sizes and
  budget by d_a.  Every comparison the solvers make is within one agent,
  so no density order, envy verdict or pivot choice changes, and every
  output must stay identical.  With c_a near 10**30 a float anywhere in a
  decision breaks this relation.
- Relabelling goods.  Permuting the goods of an instance and of a verified
  allocation together must give an allocation that still verifies.
"""

import functools
import random
from fractions import Fraction

import pytest

from gapfair import (
    FractionalAllocation,
    Instance,
    IntegralAllocation,
    compute_approx_fefx,
    compute_fefx,
    divisible_fef,
    verify_approx_fefx,
    verify_fef,
    verify_fefx,
)
from gapfair.cli import gen_random

EPS = Fraction(1, 10)

# pipeline -> (seeded instance, solver, verifier of an allocation)
PIPELINES = {
    "fefx": (
        lambda seed: gen_random(seed, 4, 40),
        compute_fefx,
        verify_fefx,
    ),
    "approx-fefx": (
        lambda seed: gen_random(seed, 3, 12, max_value=10**5),
        lambda inst: compute_approx_fefx(inst, EPS),
        lambda inst, alloc: verify_approx_fefx(inst, alloc, EPS),
    ),
    "divisible": (
        lambda seed: gen_random(seed, 4, 10),
        divisible_fef,
        verify_fef,
    ),
}
SEEDS = {"fefx": range(1, 11), "approx-fefx": range(1, 21), "divisible": range(1, 11)}
CASES = [(name, seed) for name, seeds in SEEDS.items() for seed in seeds]


@functools.cache
def solved(name, seed):
    make, solve, _ = PIPELINES[name]
    inst = make(seed)
    return inst, solve(inst)


def outputs(result):
    """Everything a solve reports that does not depend on the value unit:
    welfare, a sum over agents, is left out."""
    if hasattr(result, "swaps"):
        return result.allocation, [(rec.agent, rec.goods) for rec in result.swaps]
    return result.allocation, result.tau, result.iterations, result.tau_history


def scaled(inst, c, d):
    return Instance(
        inst.n,
        inst.m,
        tuple(tuple(c[a] * v for v in row) for a, row in enumerate(inst.values)),
        tuple(tuple(d[a] * s for s in row) for a, row in enumerate(inst.sizes)),
        tuple(d[a] * b for a, b in enumerate(inst.budgets)),
    )


@pytest.mark.parametrize("huge", [False, True], ids=["factors-2-9", "factors-1e30"])
@pytest.mark.parametrize("name, seed", CASES)
def test_per_agent_scaling_keeps_every_output(name, seed, huge):
    inst, result = solved(name, seed)
    rng = random.Random(seed)
    if huge:
        c = [rng.randint(10**29, 10**30) for _ in range(inst.n)]
        d = [rng.randint(10**24, 10**25) for _ in range(inst.n)]
    else:
        c = [rng.randint(2, 9) for _ in range(inst.n)]
        d = [rng.randint(2, 9) for _ in range(inst.n)]
    _, solve, _ = PIPELINES[name]
    assert outputs(solve(scaled(inst, c, d))) == outputs(result)


@pytest.mark.parametrize("name, seed", CASES)
def test_relabelling_goods_keeps_a_verified_allocation_verified(name, seed):
    inst, result = solved(name, seed)
    _, _, verify = PIPELINES[name]
    assert verify(inst, result.allocation)
    new = list(range(inst.m))
    random.Random(seed).shuffle(new)  # good g becomes good new[g]
    old = sorted(range(inst.m), key=new.__getitem__)

    def permute(rows):
        return tuple(tuple(row[g] for g in old) for row in rows)

    relabelled = Instance(
        inst.n, inst.m, permute(inst.values), permute(inst.sizes), inst.budgets
    )
    allocation = result.allocation
    if isinstance(allocation, IntegralAllocation):
        bundles = (frozenset(new[g] for g in bundle) for bundle in allocation.bundles)
        allocation = IntegralAllocation(inst.m, tuple(bundles))
    else:
        allocation = FractionalAllocation(permute(allocation.x))
    assert verify(relabelled, allocation)
