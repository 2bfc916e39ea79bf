"""Divisible-goods solver tests: threshold sets, LP construction, the
solver loop, and the envy verifier against a brute-force oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import instances
from gapfair import (
    FractionalAllocation,
    InfeasibleAllocationError,
    Instance,
    InternalError,
    augment,
    best_feasible_value,
    build_lp,
    check_density_domination,
    divisible_fef,
    fef_witness,
    internal_edge,
    verify_fef,
)
from gapfair import divisible
from gapfair.cli import gen_random
from gapfair.lp import EQ, LE, feasible
from oracles import best_fractional_value_brute, grow


def identical_pair():
    """Two identical agents fighting over one good."""
    return Instance(2, 1, ((1,), (1,)), ((1,), (1,)), (1, 1))


class TestInternalEdge:
    def test_tau_one_has_no_internals(self):
        aug = augment(identical_pair())
        sets = internal_edge(aug, (1, 1))
        assert sets.internal == ((), ())
        assert sets.edge == (0, 0)  # densest good for both agents

    def test_tau_top_has_no_edge(self):
        aug = augment(identical_pair())
        sets = internal_edge(aug, (3, 3))  # m + 2 with m = 1
        assert sets.internal == ((0, 1), (0, 1))
        assert sets.edge == (None, None)
        assert sets.support == ((0, 1), (0, 1))
        assert sets.internal_union == frozenset({0, 1})

    def test_follows_density_ordering(self):
        inst = Instance(1, 3, ((6, 1, 4),), ((2, 1, 1),), (3,))
        aug = augment(inst)
        # densities: 3, 1, 4, fictional 0 -> ordering (2, 0, 1, 3)
        sets = internal_edge(aug, (3,))
        assert sets.internal == ((2, 0),)
        assert sets.edge == (1,)
        assert sets.support == ((0, 1, 2),)

    def test_tau_out_of_range(self):
        aug = augment(identical_pair())
        for tau in ((0, 1), (1, 4), (1,)):
            with pytest.raises(ValueError):
                internal_edge(aug, tau)

    @pytest.mark.parametrize("bad", [True, 1.0, Fraction(1), "1"])
    def test_tau_entries_must_be_ints(self, bad):
        inst = gen_random(1, 2, 3)
        with pytest.raises(ValueError, match="threshold"):
            internal_edge(inst, (bad, 1))
        allocation = FractionalAllocation(((Fraction(0),) * 3,) * 2)
        with pytest.raises(ValueError, match="threshold"):
            check_density_domination(inst, allocation, (1, bad))


class TestLpConstruction:
    def test_constraint_counts(self):
        aug = augment(identical_pair())
        lp, cols = build_lp(aug, (2, 1), EQ)
        # Internal goods: agent 0 has {0}; dominance rows: 1.
        dom = [
            c
            for c in lp.constraints
            if c.rhs == 0 and len(c.coeffs) == 2 and c.relation == LE
        ]
        assert len(dom) == 1
        # Supports: agent 0 {0, fictional 1}, agent 1 {0}.
        support = internal_edge(aug, (2, 1)).support
        assert lp.var_count == sum(len(s) for s in support) == 3
        assert cols == [(0, 0), (0, 1), (1, 0)]
        # Every variable can be nonzero, so no row pins one to zero.
        assert not any(len(c.coeffs) == 1 and c.rhs == 0 for c in lp.constraints)

    def test_budget_relation_differs(self):
        aug = augment(identical_pair())
        lp1, _ = build_lp(aug, (1, 1), EQ)
        lp2, _ = build_lp(aug, (1, 1), LE)
        rel1 = sorted(c.relation for c in lp1.constraints)
        rel2 = sorted(c.relation for c in lp2.constraints)
        assert rel1.count(EQ) == rel2.count(EQ) + 2  # budgets relaxed

    def test_strict_solution_satisfies_relaxed(self):
        inst = Instance(2, 2, ((3, 1), (1, 2)), ((1, 2), (2, 1)), (2, 2))
        aug = augment(inst)
        result = divisible_fef(inst)
        lp2, cols = build_lp(aug, result.tau, LE)
        x = result.augmented_allocation.x
        z = [x[a][g] for a, g in cols]
        for c in lp2.constraints:
            lhs = sum((coef * z[j] for j, coef in c.coeffs.items()), Fraction(0))
            assert lhs == c.rhs if c.relation == EQ else lhs <= c.rhs

    def test_initial_relaxed_program_accepts_zero(self):
        aug = augment(identical_pair())
        result = feasible(build_lp(aug, (1, 1), LE)[0])
        assert result.feasible

    def test_saturated_threshold_is_infeasible(self):
        # With tau_a = m + 2 the fictional good is internal, so agent a
        # must take at least 1/n of it, which overruns every budget.
        inst = identical_pair()
        aug = augment(inst)
        assert not feasible(build_lp(aug, (3, 1), LE)[0]).feasible
        assert not feasible(build_lp(aug, (3, 3), LE)[0]).feasible


class TestSolver:
    def test_single_agent_takes_everything_affordable(self):
        inst = Instance(1, 1, ((5,),), ((1,),), (2,))
        result = divisible_fef(inst)
        assert result.allocation.x == ((Fraction(1),),)
        assert result.iterations <= 1 * 2

    def test_identical_agents_split_equally(self):
        result = divisible_fef(identical_pair())
        assert result.allocation.x == ((Fraction(1, 2),), (Fraction(1, 2),))
        assert result.tau == (2, 2)

    def test_history_and_trace_agree(self):
        seen = []
        result = divisible_fef(
            identical_pair(), trace=lambda it, tau: seen.append((it, tau))
        )
        assert result.tau_history[0] == (1, 1)
        assert result.tau_history[-1] == result.tau
        assert len(result.tau_history) == result.iterations + 1
        assert seen == [
            (i, tau) for i, tau in enumerate(result.tau_history[1:], start=1)
        ]

    def test_saturated_agents_are_skipped(self, monkeypatch):
        # A threshold of m+2 makes the fictional good internal, which no
        # budget can afford, so the loop never builds such a program.
        # Decided programs: LP1 through feasible, trials through resume
        # with a parent (the chain root has none).
        taus, calls = [], []
        real_build, real_step = divisible.build_lp, divisible._step
        real_feasible, real_resume = divisible.feasible, divisible.resume

        def recording_build(instance, tau, budget_relation):
            taus.append(tuple(tau))
            return real_build(instance, tau, budget_relation)

        def recording_step(instance, tau, k):
            taus.append(tuple(tau))
            return real_step(instance, tau, k)

        def counting_feasible(lp):
            calls.append(lp)
            return real_feasible(lp)

        def counting_resume(parent, *step):
            if parent is not None:
                calls.append(step)
            return real_resume(parent, *step)

        monkeypatch.setattr(divisible, "build_lp", recording_build)
        monkeypatch.setattr(divisible, "_step", recording_step)
        monkeypatch.setattr(divisible, "feasible", counting_feasible)
        monkeypatch.setattr(divisible, "resume", counting_resume)
        inst = gen_random(7, 3, 6)
        divisible_fef(inst)
        assert all(t <= inst.m + 1 for tau in taus for t in tau)
        assert len(calls) == 38

    def test_an_accepted_trial_is_checked_against_build_lp(self, monkeypatch):
        # LP2 programs past the root get a row no point satisfies, so the
        # first accepted trial's point fails the exact check.
        real_build = divisible.build_lp

        def strict_build(instance, tau, budget_relation):
            lp, cols = real_build(instance, tau, budget_relation)
            if budget_relation == LE and any(t > 1 for t in tau):
                lp.add({0: 1}, LE, -1)
            return lp, cols

        monkeypatch.setattr(divisible, "build_lp", strict_build)
        with pytest.raises(InternalError, match="infeasible point"):
            divisible_fef(gen_random(7, 3, 6))

    def test_density_orderings_computed_once_per_instance(self, monkeypatch):
        calls = []
        real = Instance.density

        def counting(self, agent, good):
            calls.append(agent)
            return real(self, agent, good)

        monkeypatch.setattr(Instance, "density", counting)
        inst = gen_random(7, 3, 6)
        result = divisible_fef(inst)
        assert len(calls) == 3 * 7  # n(m+1): one ordering per augmented agent
        calls.clear()
        verify_fef(inst, result.allocation)
        assert len(calls) == 3 * 6

    def test_zero_size_rejected(self):
        inst = Instance(1, 1, ((1,),), ((0,),), (1,))
        with pytest.raises(Exception, match="zero size"):
            divisible_fef(inst)

    def test_domination_holds_at_terminal_tau(self):
        inst = Instance(2, 2, ((3, 1), (1, 2)), ((1, 2), (2, 1)), (2, 2))
        result = divisible_fef(inst)
        aug = augment(inst)
        assert check_density_domination(aug, result.augmented_allocation, result.tau)

    @settings(max_examples=25, deadline=None)
    @given(instances(max_agents=3, max_goods=4))
    def test_random_instances_are_fef(self, inst):
        result = divisible_fef(inst)
        assert result.iterations <= inst.n * (inst.m + 1)
        assert verify_fef(inst, result.allocation)


class TestSelectionReplay:
    """Each selection step, replayed with cold solves of the public API:
    the accepted trial LP2(tau + e_k) is feasible, and the trial of every
    earlier agent not yet at m+1 is infeasible."""

    @pytest.mark.parametrize(
        "seed, n, m", [*((s, 3, 5) for s in range(1, 21)), (1, 5, 12), (3, 5, 12)]
    )
    def test_each_step_takes_the_first_feasible_trial(self, seed, n, m):
        inst = gen_random(seed, n, m)
        aug = augment(inst)
        history = divisible_fef(inst).tau_history
        for tau, after in zip(history, history[1:]):
            k = next(a for a in range(n) if after[a] != tau[a])
            assert after == tau[:k] + (tau[k] + 1,) + tau[k + 1 :]
            assert feasible(build_lp(aug, after, LE)[0]).feasible
            for a in range(k):
                if tau[a] < m + 1:
                    trial = tau[:a] + (tau[a] + 1,) + tau[a + 1 :]
                    assert not feasible(build_lp(aug, trial, LE)[0]).feasible


def _keyed_rows(lp, cols):
    """lp's rows as (key, coefficients by column key, relation, rhs)."""
    return [
        (c.key, {cols[j]: a for j, a in c.coeffs.items()}, c.relation, c.rhs)
        for c in lp.constraints
    ]


class TestStepsGrowBuildLp:
    """divisible_fef grows each trial program from its parent by _step,
    not by build_lp: the step applied to build_lp(tau - e_k)'s program
    must give build_lp(tau)'s, with the new rows in build_lp's order.
    Checked for every trial the solver may make along its tau path."""

    @pytest.mark.parametrize(
        "seed, n, m", [*((s, 3, 5) for s in range(1, 21)), (1, 5, 12), (3, 5, 12)]
    )
    def test_step_gives_build_lps_program(self, seed, n, m):
        inst = gen_random(seed, n, m)
        aug = augment(inst)
        for tau in divisible_fef(inst).tau_history:
            parent, cols = build_lp(aug, tau, LE)
            for k in range(n):
                if tau[k] == m + 1:
                    continue
                after = tau[:k] + (tau[k] + 1,) + tau[k + 1 :]
                step = divisible._step(aug, after, k)
                grown, grown_cols = grow(parent, cols, step)
                lp, lp_cols = build_lp(aug, after, LE)
                rows = _keyed_rows(lp, lp_cols)
                assert len({key for key, *_ in rows}) == len(rows)
                # Row by row and key by key, in build_lp's order.
                by_key = {row[0]: row for row in _keyed_rows(grown, grown_cols)}
                assert [by_key[key] for key, *_ in rows] == rows
                assert len(by_key) == len(rows)
                new = {key for key, *_ in step[2]}
                assert [key for key, *_ in step[2]] == [
                    key for key, *_ in rows if key in new
                ]
                bounds = dict(zip(grown_cols, zip(grown.lower, grown.upper)))
                assert [bounds[key] for key in lp_cols] == list(
                    zip(lp.lower, lp.upper)
                )


class TestDominationCheck:
    def test_rejects_unbalanced_budget(self):
        inst = identical_pair()
        aug = augment(inst)
        idle = FractionalAllocation(
            ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0)))
        )
        assert not check_density_domination(aug, idle, (2, 2))

    def test_dimension_mismatch(self):
        aug = augment(identical_pair())
        with pytest.raises(ValueError, match="dimensions"):
            check_density_domination(aug, FractionalAllocation(((Fraction(0),),)), (1, 1))


class TestVerifier:
    def test_best_feasible_value_splits_at_budget(self):
        inst = Instance(1, 2, ((4, 3),), ((2, 3),), (3,))
        # densities 2 and 1: take good 0 fully (size 2), half of good 1.
        target = (Fraction(1), Fraction(1))
        assert best_feasible_value(inst, 0, target) == 4 + Fraction(1) * 1

    @settings(max_examples=100, deadline=None)
    @given(instances(max_agents=2, max_goods=4), st.data())
    def test_best_feasible_value_matches_brute(self, inst, data):
        target = tuple(
            Fraction(data.draw(st.integers(0, 4)), 4) for _ in range(inst.m)
        )
        for a in range(inst.n):
            assert best_feasible_value(inst, a, target) == (
                best_fractional_value_brute(inst, a, target)
            )

    def test_witness_on_unfair_split(self):
        inst = identical_pair()
        unfair = FractionalAllocation(((Fraction(1),), (Fraction(0),)))
        witness = fef_witness(inst, unfair)
        assert witness is not None
        assert witness.agent == 1 and witness.target == 0
        assert witness.own_value == 0 and witness.best_value == 1

    def test_charity_envy_detected(self):
        inst = Instance(1, 1, ((3,),), ((1,),), (1,))
        idle = FractionalAllocation(((Fraction(0),),))
        witness = fef_witness(inst, idle)
        assert witness is not None and witness.target == "charity"

    def test_infeasible_allocation_rejected(self):
        inst = Instance(1, 1, ((1,),), ((5,),), (1,))
        with pytest.raises(InfeasibleAllocationError):
            verify_fef(inst, FractionalAllocation(((Fraction(1),),)))

    def test_dimension_mismatch(self):
        inst = identical_pair()
        with pytest.raises(ValueError, match="dimensions"):
            verify_fef(inst, FractionalAllocation(((Fraction(0),),)))

    def test_fair_split_passes(self):
        inst = identical_pair()
        fair = FractionalAllocation(((Fraction(1, 2),), (Fraction(1, 2),)))
        assert verify_fef(inst, fair)
