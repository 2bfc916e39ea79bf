"""Indivisible-goods tests: envy queries, minimal envied sets, the FEFx
swap loop, the verifiers against brute force, and the approximate pipeline."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import instances
from gapfair import indivisible
from gapfair import (
    EnvyWitness,
    InfeasibleAllocationError,
    Instance,
    IntegralAllocation,
    InternalError,
    compute_approx_fefx,
    compute_fefx,
    envies,
    fefx_witness,
    find_minimal_envied_subset,
    verify_approx_fefx,
    verify_fefx,
)
from gapfair.cli import gen_random
from oracles import (
    best_strict_subset_value_brute,
    best_subset_value_brute,
    fefx_among_agents_brute,
    fefx_brute,
    minimal_envied_set_brute,
    replay_swaps,
    set_is_envied,
)


def zero_size_good():
    """One free (zero-size) good both agents value: FEFx exists, FEF doesn't."""
    return Instance(2, 1, ((1,), (1,)), ((0,), (0,)), (1, 1))


def empty_allocation(instance):
    return IntegralAllocation(instance.m, (frozenset(),) * instance.n)


@st.composite
def instance_with_allocation(draw, max_goods=4, max_value=8):
    inst = draw(
        instances(max_agents=3, max_goods=max_goods, max_value=max_value, min_size=0)
    )
    owners = [draw(st.integers(0, inst.n)) for _ in range(inst.m)]
    bundles = [
        frozenset(g for g in range(inst.m) if owners[g] == a) for a in range(inst.n)
    ]
    return inst, IntegralAllocation(inst.m, tuple(bundles))


class TestEnvies:
    def test_envy_reported_with_witness(self):
        inst = Instance(1, 2, ((3, 5),), ((1, 3),), (3,))
        w = envies(inst, empty_allocation(inst), 0, frozenset({0, 1}))
        assert w is not None
        assert w.value == 5 and w.subset == frozenset({1})

    def test_no_envy_when_own_bundle_wins(self):
        inst = Instance(2, 2, ((4, 1), (1, 4)), ((1, 1), (1, 1)), (1, 1))
        alloc = IntegralAllocation(2, (frozenset({0}), frozenset({1})))
        assert envies(inst, alloc, 0, alloc.bundles[1]) is None

    @settings(max_examples=80, deadline=None)
    @given(instance_with_allocation())
    def test_matches_brute_subset_search(self, pair):
        inst, alloc = pair
        for a in range(inst.n):
            own = inst.bundle_value(a, alloc.bundles[a])
            best = best_subset_value_brute(inst, a, alloc.charity)
            assert (envies(inst, alloc, a, alloc.charity) is not None) == (best > own)


class TestMinimalEnviedSubset:
    def test_unenvied_charity_gives_none(self):
        inst = Instance(1, 1, ((0,),), ((1,),), (1,))
        assert find_minimal_envied_subset(inst, empty_allocation(inst)) is None

    def test_minimal_set_example(self):
        inst = Instance(1, 3, ((2, 3, 4),), ((1, 1, 1),), (2,))
        mes = find_minimal_envied_subset(inst, empty_allocation(inst))
        assert mes.agent == 0
        assert inst.is_feasible_bundle(0, mes.subset)
        assert best_subset_value_brute(inst, 0, mes.subset) > 0

    @settings(max_examples=60, deadline=None)
    @given(instances(max_agents=2, max_goods=4, min_size=0))
    def test_no_strict_subset_is_envied(self, inst):
        alloc = empty_allocation(inst)
        own = [0] * inst.n
        mes = find_minimal_envied_subset(inst, alloc)
        if mes is None:
            return
        goods = sorted(mes.subset)
        for r in range(len(goods)):
            for combo in combinations(goods, r):
                for a in range(inst.n):
                    assert best_subset_value_brute(inst, a, combo) <= own[a]

    @settings(max_examples=150, deadline=None)
    @given(
        instance_with_allocation(), st.booleans(), st.sampled_from([0, Fraction(1, 4)])
    )
    def test_witness_agrees_with_envies(self, pair, empty, eps):
        """None exactly when no agent envies the charity; at eps = 0 the
        witness is the one `envies` gives for its envier and subset."""
        inst, alloc = pair
        if empty:
            alloc = empty_allocation(inst)
        mes = find_minimal_envied_subset(inst, alloc, eps)
        unenvied = all(
            envies(inst, alloc, a, alloc.charity, eps) is None for a in range(inst.n)
        )
        assert (mes is None) == unenvied
        if mes is not None and eps == 0:
            assert mes == envies(inst, alloc, mes.agent, mes.subset)

    @settings(max_examples=150, deadline=None)
    @given(instance_with_allocation(max_goods=6), st.booleans())
    def test_exact_search_matches_the_restart_scan(self, pair, empty):
        """At eps = 0 the one pass returns the restart scan's set and
        envier; the envier envies the set, and no agent envies it minus
        any one good."""
        inst, alloc = pair
        if empty:
            alloc = empty_allocation(inst)
        mes = find_minimal_envied_subset(inst, alloc)
        expected = minimal_envied_set_brute(inst, alloc)
        assert (None if mes is None else (mes.subset, mes.agent)) == expected
        if mes is None:
            return
        own = [inst.bundle_value(a, alloc.bundles[a]) for a in range(inst.n)]
        assert best_subset_value_brute(inst, mes.agent, mes.subset) > own[mes.agent]
        assert not any(set_is_envied(inst, own, mes.subset - {g}) for g in mes.subset)

    @settings(max_examples=150, deadline=None)
    @given(
        instance_with_allocation(max_goods=6, max_value=100),
        st.booleans(),
        st.sampled_from([Fraction(1, 10), Fraction(1, 4), Fraction(9, 10)]),
    )
    def test_approximate_search_is_sound(self, pair, empty, eps):
        """At eps > 0 some set S, between the witness's subset and the
        charity, gets exactly this witness from `envies`, and no agent b
        values a feasible subset of S minus any good g above her own value
        o_b at factor (1 - eps).  The pass's final set is such an S; the
        FPTAS's trim of it need not be one."""
        inst, alloc = pair
        if empty:
            alloc = empty_allocation(inst)
        mes = find_minimal_envied_subset(inst, alloc, eps)
        if mes is None:
            return
        own = [inst.bundle_value(a, alloc.bundles[a]) for a in range(inst.n)]
        rest = sorted(alloc.charity - mes.subset)
        supersets = (
            mes.subset | set(extra)
            for r in range(len(rest) + 1)
            for extra in combinations(rest, r)
        )
        assert any(
            envies(inst, alloc, mes.agent, s, eps) == mes
            and all(
                (1 - eps) * best_subset_value_brute(inst, b, s - {g}) <= own[b]
                for b in range(inst.n)
                for g in s
            )
            for s in supersets
        )


class TestIndexRanges:
    """Out-of-range agent and good indices are refused, not wrapped, and an
    allocation of another shape is refused before any bundle is read."""

    INSTANCE = Instance(2, 3, ((1, 2, 3), (3, 2, 1)), ((1, 1, 1), (1, 1, 1)), (2, 2))

    @pytest.mark.parametrize("agent", [-1, 2, True, 1.0])
    def test_envies_agent(self, agent):
        with pytest.raises(ValueError, match="agent index"):
            envies(self.INSTANCE, empty_allocation(self.INSTANCE), agent, frozenset({2}))

    @pytest.mark.parametrize("good", [-1, 3])
    def test_envies_good(self, good):
        with pytest.raises(ValueError, match="out of range"):
            envies(self.INSTANCE, empty_allocation(self.INSTANCE), 0, frozenset({good}))

    @pytest.mark.parametrize("m, n", [(2, 2), (3, 1), (3, 3)])
    def test_envies_allocation_shape(self, m, n):
        alloc = IntegralAllocation(m, (frozenset(),) * n)
        with pytest.raises(ValueError, match="dimensions"):
            envies(self.INSTANCE, alloc, 0, frozenset({0}))

    @pytest.mark.parametrize("m, n", [(2, 2), (4, 2), (3, 1), (3, 3)])
    def test_minimal_envied_subset_allocation_shape(self, m, n):
        alloc = IntegralAllocation(m, (frozenset(),) * n)
        with pytest.raises(ValueError, match="dimensions"):
            find_minimal_envied_subset(self.INSTANCE, alloc)


class TestComputeFefx:
    def test_zero_size_good_instance(self):
        inst = zero_size_good()
        result = compute_fefx(inst)
        assert all(
            fefx_among_agents_brute(inst, a) for a in replay_swaps(inst, result.swaps)
        )
        assert verify_fefx(inst, result.allocation)
        assert result.allocation.charity == frozenset()

    def test_single_agent_takes_best_bundle(self):
        inst = Instance(1, 2, ((3, 5),), ((2, 2),), (2,))
        result = compute_fefx(inst)
        assert result.allocation.bundles[0] == frozenset({1})

    def test_welfare_strictly_increases(self):
        inst = Instance(2, 3, ((4, 2, 1), (1, 5, 2)), ((1, 1, 1), (1, 1, 1)), (2, 2))
        result = compute_fefx(inst)
        welfares = [rec.welfare for rec in result.swaps]
        assert welfares == sorted(set(welfares))

    def test_growth_check_raises_internal_error(self, monkeypatch):
        # A search that hands back a worthless set breaks the growth guarantee.
        monkeypatch.setattr(
            indivisible,
            "find_minimal_envied_subset",
            lambda instance, allocation, eps: EnvyWitness(0, frozenset(), 0),
        )
        with pytest.raises(InternalError, match="growth"):
            compute_fefx(Instance(1, 1, ((1,),), ((1,),), (1,)))

    def test_invariant_check_catches_envy_among_agents(self):
        # Agent 0 holding both goods leaves agent 1 envying one of them.
        inst = Instance(2, 2, ((1, 1), (5, 5)), ((1, 1), (1, 1)), (2, 2))
        planted = IntegralAllocation(2, (frozenset({0, 1}), frozenset()))
        split = IntegralAllocation(2, (frozenset({0}), frozenset({1})))
        assert not fefx_among_agents_brute(inst, planted)
        assert fefx_among_agents_brute(inst, split)

    def test_trace_receives_every_swap(self):
        inst = Instance(2, 2, ((3, 1), (1, 3)), ((1, 1), (1, 1)), (1, 1))
        seen = []
        result = compute_fefx(inst, trace=seen.append)
        assert tuple(seen) == result.swaps

    @settings(max_examples=40, deadline=None)
    @given(instances(max_agents=3, max_goods=4, min_size=0))
    def test_random_outputs_pass_brute_fefx(self, inst):
        result = compute_fefx(inst)
        replayed = replay_swaps(inst, result.swaps)
        assert replayed[-1] == result.allocation
        assert all(fefx_among_agents_brute(inst, a) for a in replayed)
        assert result.allocation.is_feasible(inst)
        assert verify_fefx(inst, result.allocation)
        assert fefx_brute(inst, result.allocation)


class TestVerifiers:
    def test_eps_range_validated(self):
        inst = zero_size_good()
        alloc = empty_allocation(inst)
        for eps in (Fraction(-1, 2), Fraction(1), Fraction(3, 2)):
            with pytest.raises(ValueError, match="eps"):
                fefx_witness(inst, alloc, eps)

    def test_infeasible_allocation_rejected(self):
        inst = Instance(1, 1, ((1,),), ((5,),), (1,))
        with pytest.raises(InfeasibleAllocationError):
            verify_fefx(inst, IntegralAllocation(1, (frozenset({0}),)))

    def test_dimension_mismatch(self):
        inst = zero_size_good()
        with pytest.raises(ValueError, match="dimensions"):
            verify_fefx(inst, IntegralAllocation(1, (frozenset(),)))

    def test_witness_identifies_culprit(self):
        # Agent 1 holds nothing while two valuable goods sit in charity.
        inst = Instance(1, 2, ((5, 5),), ((1, 1),), (2,))
        w = fefx_witness(inst, empty_allocation(inst))
        assert w is not None
        assert w.agent == 0 and w.target == "charity"
        assert w.subset_value > w.own_value

    @settings(max_examples=80, deadline=None)
    @given(instance_with_allocation())
    def test_agrees_with_brute_force(self, pair):
        inst, alloc = pair
        if not alloc.is_feasible(inst):
            return
        assert verify_fefx(inst, alloc) == fefx_brute(inst, alloc)

    @settings(max_examples=50, deadline=None)
    @given(instance_with_allocation(), st.sampled_from([Fraction(1, 4), Fraction(1, 10)]))
    def test_approx_agrees_with_brute_force(self, pair, eps):
        inst, alloc = pair
        if not alloc.is_feasible(inst):
            return
        assert verify_approx_fefx(inst, alloc, eps) == fefx_brute(inst, alloc, eps)

    @settings(max_examples=150, deadline=None)
    @given(
        instance_with_allocation(),
        st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1, 10)]),
    )
    def test_witness_is_the_best_feasible_strict_subset(self, pair, eps):
        inst, alloc = pair
        if not alloc.is_feasible(inst):
            return
        w = fefx_witness(inst, alloc, eps)
        if w is None:
            return
        target = alloc.charity if w.target == "charity" else alloc.bundles[w.target]
        assert w.subset < target
        assert inst.is_feasible_bundle(w.agent, w.subset)
        assert w.subset_value == inst.bundle_value(w.agent, w.subset)
        assert w.subset_value == best_strict_subset_value_brute(inst, w.agent, target)

    @settings(max_examples=80, deadline=None)
    @given(instance_with_allocation())
    def test_one_knapsack_per_agent_and_target(self, pair):
        inst, alloc = pair
        if not alloc.is_feasible(inst):
            return
        scan = []  # (agent, goods) of every nonempty target, in scan order
        for a in range(inst.n):
            targets = [alloc.bundles[b] for b in range(inst.n) if b != a]
            scan += [(a, goods) for goods in targets + [alloc.charity] if goods]
        calls = []
        kns_exact = indivisible.kns_exact

        def counting(query):
            calls.append((query.capacity, frozenset(query.items)))
            return kns_exact(query)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(indivisible, "kns_exact", counting)
            fefx_witness(inst, alloc)
        expected = [(inst.budgets[a], goods) for a, goods in scan]
        assert calls == expected[: len(calls)]


class TestExactEps:
    """Every public entry refuses a float or bool eps instead of computing
    with it, and the envy tests check eps in [0, 1) themselves."""

    @staticmethod
    def envied():
        inst = Instance(1, 2, ((3, 5),), ((1, 3),), (3,))
        return inst, empty_allocation(inst)

    @pytest.mark.parametrize("bad", [0.1, 0.0, True, False])
    def test_float_or_bool_eps_is_refused(self, bad):
        inst, alloc = self.envied()
        calls = [
            lambda: envies(inst, alloc, 0, frozenset({0, 1}), eps=bad),
            lambda: find_minimal_envied_subset(inst, alloc, bad),
            lambda: compute_approx_fefx(inst, bad),
            lambda: fefx_witness(inst, alloc, bad),
            lambda: verify_approx_fefx(inst, alloc, bad),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="eps: .* is not an int or Fraction"):
                call()

    @pytest.mark.parametrize("eps", [Fraction(-1, 2), Fraction(1), 2, 3])
    def test_envy_tests_check_the_eps_range(self, eps):
        inst, alloc = self.envied()
        with pytest.raises(ValueError, match=r"eps must lie in \[0, 1\)"):
            envies(inst, alloc, 0, frozenset({0, 1}), eps=eps)
        with pytest.raises(ValueError, match=r"eps must lie in \[0, 1\)"):
            find_minimal_envied_subset(inst, alloc, eps)


class TestApproxPipeline:
    def test_eps_validated(self):
        inst = zero_size_good()
        for eps in (Fraction(0), Fraction(1)):
            with pytest.raises(ValueError, match="eps"):
                compute_approx_fefx(inst, eps)

    def test_unenvied_charity_gives_none(self):
        inst = Instance(1, 1, ((0,),), ((1,),), (1,))
        mes = find_minimal_envied_subset(inst, empty_allocation(inst), Fraction(1, 4))
        assert mes is None

    def test_trimmed_set_is_feasible_for_envier(self):
        inst = Instance(2, 3, ((6, 4, 2), (2, 6, 4)), ((2, 2, 2), (2, 2, 2)), (3, 3))
        mes = find_minimal_envied_subset(inst, empty_allocation(inst), Fraction(1, 4))
        assert inst.is_feasible_bundle(mes.agent, mes.subset)

    @settings(max_examples=30, deadline=None)
    @given(
        instances(max_agents=3, max_goods=4, min_size=0),
        st.sampled_from([Fraction(1, 4), Fraction(1, 10)]),
    )
    def test_random_outputs_verify(self, inst, eps):
        result = compute_approx_fefx(inst, eps)
        assert result.allocation.is_feasible(inst)
        assert verify_approx_fefx(inst, result.allocation, eps)

    @settings(max_examples=30, deadline=None)
    @given(
        instances(max_agents=2, max_goods=4, min_size=0),
        st.sampled_from([Fraction(1, 4), Fraction(1, 10)]),
    )
    def test_multiplicative_growth_per_update(self, inst, eps):
        result = compute_approx_fefx(inst, eps)
        last = {a: Fraction(0) for a in range(inst.n)}
        for rec in result.swaps:
            new = Fraction(inst.bundle_value(rec.agent, rec.goods))
            assert new * (1 - eps / 2) > last[rec.agent]
            last[rec.agent] = new


class TestOneEpsCheckPerSearch:
    """eps is checked once per minimal-envied-subset search, not once per
    envy test, and the knapsack traffic is pinned: the one-pass search
    makes one envy test per charity good after the whole-charity test."""

    INSTANCE = gen_random(1, 4, 12, max_value=100000)

    @staticmethod
    def counted(monkeypatch, name):
        calls = []
        inner = getattr(indivisible, name)
        monkeypatch.setattr(
            indivisible, name, lambda *args: calls.append(1) or inner(*args)
        )
        return calls

    def solve(self, eps):
        if eps is None:
            return compute_fefx(self.INSTANCE)
        return compute_approx_fefx(self.INSTANCE, eps)

    @pytest.mark.parametrize("eps", [None, Fraction(1, 10)], ids=["fefx", "approx-fefx"])
    def test_one_eps_check_per_search(self, monkeypatch, eps):
        checks = self.counted(monkeypatch, "_unit_eps")
        result = self.solve(eps)
        assert len(result.swaps) == 21
        assert len(checks) == len(result.swaps) + 1

    @pytest.mark.parametrize(
        "eps, exact_calls, apx_calls",
        [(None, 351, 0), (Fraction(1, 10), 0, 353)],
        ids=["fefx", "approx-fefx"],
    )
    def test_knapsack_calls_are_pinned(self, monkeypatch, eps, exact_calls, apx_calls):
        exact = self.counted(monkeypatch, "kns_exact")
        apx = self.counted(monkeypatch, "apx_kns")
        assert len(self.solve(eps).swaps) == 21
        assert (len(exact), len(apx)) == (exact_calls, apx_calls)


class TestSwapLimit:
    """At eps > 0 the swap loop stops at a bound polynomial in 1/eps: per
    agent, 1 + ceil(7 b q / (5 p)) swaps for eps = p/q, with b the bit
    length of the agent's total value."""

    # Agent 0's goods total 100 (bit length 7); agent 1 values nothing.
    INSTANCE = Instance(2, 2, ((60, 40), (0, 0)), ((1, 1), (1, 1)), (2, 2))

    @pytest.mark.parametrize(
        "eps, limit",
        # 1/10: 1 + ceil(7*7*10/5) = 99, plus 1; 1/4: 1 + ceil(39.2) = 41, plus 1;
        # 0: welfare bound n * max_a v_a([m]) + 1 = 2 * 100 + 1.
        [(Fraction(1, 10), 100), (Fraction(1, 4), 42), (0, 201)],
        ids=["1/10", "1/4", "exact"],
    )
    def test_hand_checked_limit(self, eps, limit):
        assert indivisible._swap_limit(self.INSTANCE, eps) == limit

    @pytest.mark.parametrize("eps", [Fraction(1, 10), Fraction(1, 4)], ids=str)
    def test_limit_covers_the_logarithmic_bound(self, eps):
        # 1 + ceil(log V / log(den/num)) for the one agent with V = 100 > 0,
        # with the ceiling found exactly: the least t with den^t >= V num^t.
        num, den = 2 * eps.denominator - eps.numerator, 2 * eps.denominator
        t = next(t for t in range(1000) if den**t >= 100 * num**t)
        assert t == {Fraction(1, 10): 90, Fraction(1, 4): 35}[eps]
        assert indivisible._swap_limit(self.INSTANCE, eps) >= 1 + t

    @pytest.mark.parametrize("seed", range(1, 9))
    @pytest.mark.parametrize("eps", [Fraction(1, 10), Fraction(1, 4)], ids=str)
    def test_seeded_runs_stay_within_it(self, seed, eps):
        inst = gen_random(seed, 3, 8, max_value=100000)
        swaps = compute_approx_fefx(inst, eps).swaps
        assert len(swaps) <= indivisible._swap_limit(inst, eps)
        # The argument per agent: after her first swap each of her c swaps
        # multiplies her value by more than den/num = 2q / (2q - p), so
        # (den/num)^(c-1) < V_a.
        num, den = 2 * eps.denominator - eps.numerator, 2 * eps.denominator
        for a in range(inst.n):
            c = sum(1 for rec in swaps if rec.agent == a)
            if c:
                assert den ** (c - 1) < sum(inst.values[a]) * num ** (c - 1)

    def test_pinned_runs_stay_within_it(self):
        from test_swap_sequences import PINNED, pinned_instance

        for seed in PINNED:
            inst = pinned_instance(seed)
            for eps in (Fraction(1, 10), Fraction(1, 4)):
                swaps = compute_approx_fefx(inst, eps).swaps
                assert len(swaps) <= indivisible._swap_limit(inst, eps)

    def test_loop_stops_at_the_limit(self, monkeypatch):
        monkeypatch.setattr(indivisible, "_swap_limit", lambda instance, eps: 0)
        with pytest.raises(InternalError, match="exceeded its bound"):
            compute_approx_fefx(self.INSTANCE, Fraction(1, 10))
