"""Release acceptance gate: one self-contained check per criterion.

Every check is exact (rational arithmetic, zero tolerance) and prints a
single `criterion N: PASS/FAIL` line; run with

    pytest tests/test_acceptance.py -v -s

The whole module runs in well under a minute on a laptop.
"""

import random
from fractions import Fraction

import pytest

from gapfair import (
    Instance,
    augment,
    build_lp,
    check_density_domination,
    compute_approx_fefx,
    compute_fefx,
    divisible_fef,
    fef_witness,
    kns_exact,
    apx_kns,
    mnw_fixture,
    query_for_agent,
    solve_knapsack_via_fefx,
    verify_approx_fefx,
    verify_fef,
    verify_fefx,
)
from gapfair.cli import gen_random
from gapfair.instance import IntegralAllocation
from gapfair.knapsack import KnapsackQuery
from gapfair.lp import LE, feasible
from gapfair.reductions import KnapsackProblem, parity_probe
from oracles import (
    best_subset_value_brute,
    fef_integral_exists,
    fefx_among_agents_brute,
    fefx_brute,
    kns_brute,
    replay_swaps,
)


def report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def random_instance(seed: int, max_n, max_m, max_value, max_size, max_budget):
    rng = random.Random(seed)
    n = rng.randint(1, max_n)
    m = rng.randint(1, max_m)
    return gen_random(seed * 7 + 1, n, m, max_value, max_size, max_budget)


@pytest.fixture(scope="module")
def divisible_suite():
    """200 seeded instances solved by the divisible pipeline."""
    suite = []
    for seed in range(200):
        inst = random_instance(seed, 4, 6, 10, 5, 20)
        suite.append((inst, divisible_fef(inst)))
    return suite


@pytest.fixture(scope="module")
def fefx_suite():
    """200 seeded instances solved by the exact indivisible pipeline."""
    suite = []
    for seed in range(200):
        inst = random_instance(1000 + seed, 3, 6, 8, 5, 10)
        suite.append((inst, compute_fefx(inst)))
    return suite


def test_criterion_1_divisible_correctness(divisible_suite):
    total_iterations = 0
    for inst, result in divisible_suite:
        assert result.iterations <= inst.n * (inst.m + 1)
        total_iterations += result.iterations
        aug = augment(inst)
        assert check_density_domination(aug, result.augmented_allocation, result.tau)
        assert verify_fef(inst, result.allocation)
    report(
        1,
        True,
        f"200 instances FEF-verified exactly, {total_iterations} loop "
        "iterations, all within the n(m+1) bound",
    )


def test_criterion_2_loop_invariant(divisible_suite):
    # Part 1: the relaxed program at the initial tau is solved here; every
    # later tau was accepted by the selection step only after feasible()
    # returned a point of its relaxed program, which feasible() checks
    # exactly.
    for inst, _ in divisible_suite:
        assert feasible(build_lp(augment(inst), [1] * inst.n, LE)[0]).feasible
    starts = sum(r.iterations + 1 for _, r in divisible_suite)
    # Part 2: any threshold vector with an entry at m+2 is infeasible.
    rng = random.Random(4242)
    for seed in range(20):
        inst = random_instance(5000 + seed, 4, 6, 10, 5, 20)
        aug = augment(inst)
        tau = [rng.randint(1, inst.m + 2) for _ in range(inst.n)]
        tau[rng.randrange(inst.n)] = inst.m + 2
        assert not feasible(build_lp(aug, tau, LE)[0]).feasible
    report(
        2,
        True,
        f"relaxed program feasible at all {starts} loop starts; "
        "infeasible at saturated thresholds on 20 instances",
    )


def test_criterion_3_nash_welfare_fixture():
    fx = mnw_fixture()
    witness = fef_witness(fx.instance, fx.nsw_allocation)
    assert witness is not None
    scale = fx.value_scale
    assert witness.own_value / scale == Fraction(31, 60)
    assert witness.best_value / scale == Fraction(465, 480)
    result = divisible_fef(fx.instance)
    assert verify_fef(fx.instance, result.allocation)
    report(
        3,
        True,
        "Nash-welfare optimum rejected with witness 31/60 vs 465/480; "
        "solver output on the same instance is FEF",
    )


def test_criterion_4_knapsack_oracles():
    rng = random.Random(99)
    epsilons = (Fraction(1, 2), Fraction(1, 10), Fraction(1, 100))
    for _ in range(500):
        k = rng.randint(0, 12)
        q = KnapsackQuery(
            items=tuple(range(k)),
            weights=tuple(rng.randint(0, 9) for _ in range(k)),
            values=tuple(rng.randint(0, 12) for _ in range(k)),
            capacity=rng.randint(0, 15),
        )
        opt = kns_brute(q).value
        assert kns_exact(q).value == opt
        for eps in epsilons:
            sol = apx_kns(q, eps)
            assert sol.weight <= q.capacity
            assert (1 - eps) * opt <= sol.value <= opt
    report(
        4,
        True,
        "exact DP equals brute force on 500 queries; FPTAS bounds hold "
        "for eps in {1/2, 1/10, 1/100}",
    )


def test_criterion_5_fefx_correctness(fefx_suite):
    rng = random.Random(77)
    for inst, result in fefx_suite:
        alloc = result.allocation
        assert verify_fefx(inst, alloc)
        assert fefx_brute(inst, alloc)  # oracle agreement on the output
        # No allocation along the way, the empty start included, lets an
        # agent envy a strict subset of another agent's bundle.
        assert all(
            fefx_among_agents_brute(inst, a) for a in replay_swaps(inst, result.swaps)
        )
        # Oracle agreement on an arbitrary feasible allocation as well.
        bundles = [set() for _ in range(inst.n)]
        for g in range(inst.m):
            who = rng.randint(0, inst.n)
            if who < inst.n:
                bundles[who].add(g)
        other = IntegralAllocation(inst.m, tuple(frozenset(b) for b in bundles))
        if other.is_feasible(inst):
            assert verify_fefx(inst, other) == fefx_brute(inst, other)
        welfares = [rec.welfare for rec in result.swaps]
        assert all(w2 > w1 for w1, w2 in zip(welfares, welfares[1:]))
        assert len(result.swaps) <= inst.n * max(sum(row) for row in inst.values)
        for a in range(inst.n):
            best = kns_exact(query_for_agent(inst, a, alloc.charity)).value
            assert best <= inst.bundle_value(a, alloc.bundles[a])
    report(
        5,
        True,
        "200 instances FEFx-verified, matched the enumeration oracle, "
        "FEFx among agents after every swap, welfare strictly increased, "
        "iteration and charity bounds held",
    )


def test_criterion_6_minimality_certificates(fefx_suite):
    checked = 0
    for inst, result in fefx_suite:
        bundles = [frozenset()] * inst.n
        for rec in result.swaps:
            own = [inst.bundle_value(a, bundles[a]) for a in range(inst.n)]
            goods = sorted(rec.goods)
            if len(goods) <= 10:
                checked += 1
                for drop in goods:  # every strict subset lies in T minus a good
                    smaller = [g for g in goods if g != drop]
                    for a in range(inst.n):
                        assert best_subset_value_brute(inst, a, smaller) <= own[a]
            bundles[rec.agent] = rec.goods
    report(6, True, f"{checked} minimal envied sets certified by enumeration")


def test_criterion_7_approximate_pipeline(fefx_suite):
    updates_checked = 0
    for eps in (Fraction(1, 4), Fraction(1, 10)):
        growth = 1 / (1 - eps / 2)
        for inst, _ in fefx_suite:
            result = compute_approx_fefx(inst, eps)
            assert verify_approx_fefx(inst, result.allocation, eps)
            last = [Fraction(0)] * inst.n
            counts = [0] * inst.n
            for rec in result.swaps:
                new = Fraction(inst.bundle_value(rec.agent, rec.goods))
                assert new > growth * last[rec.agent]
                last[rec.agent] = new
                counts[rec.agent] += 1
                updates_checked += 1
            for a in range(inst.n):
                top = sum(inst.values[a])
                if counts[a] == 0:
                    continue
                assert top >= 1
                # value doubles by `growth` per update after the first, so
                # the count is logarithmically bounded by the value range.
                assert growth ** (counts[a] - 1) <= top
    report(
        7,
        True,
        f"outputs (1-eps)-FEFx for eps in {{1/4, 1/10}}; {updates_checked} "
        "bundle updates met the multiplicative growth and count bounds",
    )


def test_criterion_8_hardness_harness():
    rng = random.Random(2024)
    for _ in range(20):
        k = rng.randint(1, 8)
        kp = KnapsackProblem(
            weights=tuple(rng.randint(1, 8) for _ in range(k)),
            values=tuple(2 * rng.randint(0, 6) for _ in range(k)),
            capacity=rng.randint(1, 12),
        )
        q = KnapsackQuery(tuple(range(k)), kp.weights, kp.values, kp.capacity)
        v_star = kns_exact(q).value
        assert solve_knapsack_via_fefx(kp) == v_star
        for mu in range(sum(kp.values) + 1):  # exhaustive parity sweep
            expected = "odd" if mu >= v_star // 2 else "even"
            assert parity_probe(kp, mu) == expected
    report(
        8,
        True,
        "oracle reduction matched the exact optimum on 20 instances; "
        "parity sweeps flipped exactly at half the optimum",
    )


def test_criterion_9_zero_size_fixture():
    inst = Instance(2, 1, ((1,), (1,)), ((0,), (0,)), (1, 1))
    result = compute_fefx(inst)
    assert all(
        fefx_among_agents_brute(inst, a) for a in replay_swaps(inst, result.swaps)
    )
    assert verify_fefx(inst, result.allocation)
    assert not fef_integral_exists(inst)
    report(
        9,
        True,
        "zero-size good: FEFx allocation found while exhaustive search "
        "confirms no envy-free allocation exists",
    )
