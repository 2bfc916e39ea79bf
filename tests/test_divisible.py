"""Divisible-goods solver tests: threshold sets, LP construction, the
solver loop, and the envy verifier against a brute-force oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gapfair.lp as lp_module
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
from oracles import best_fractional_value_brute


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
        # Every program the loop decides is an _edge_program.
        taus, calls = [], []
        real_edge_program = divisible._edge_program
        real_feasible = divisible.feasible

        def recording_edge_program(instance, tau, budget_relation):
            taus.append(tuple(tau))
            return real_edge_program(instance, tau, budget_relation)

        def counting_feasible(lp):
            calls.append(lp)
            return real_feasible(lp)

        monkeypatch.setattr(divisible, "_edge_program", recording_edge_program)
        monkeypatch.setattr(divisible, "feasible", counting_feasible)
        inst = gen_random(7, 3, 6)
        divisible_fef(inst)
        assert max(t for tau in taus for t in tau) == inst.m + 1
        assert len(taus) == len(calls) == 38

    def test_a_failed_terminal_check_is_an_internal_error(self, monkeypatch):
        # The allocation built from the edge amounts is checked once, exactly,
        # against build_lp's LP1 at the terminal tau, and for domination.
        inst = gen_random(7, 3, 6)
        result = divisible_fef(inst)
        lp, cols = build_lp(augment(inst), result.tau, EQ)
        point = tuple(result.augmented_allocation.x[a][g] for a, g in cols)
        checked = []

        def failing(lp, point):
            checked.append((lp, point))
            return False

        monkeypatch.setattr(divisible, "_satisfies", failing)
        with pytest.raises(InternalError, match="does not satisfy LP1"):
            divisible_fef(inst)
        assert checked == [(lp, point)]
        monkeypatch.undo()
        monkeypatch.setattr(divisible, "check_density_domination", lambda *_: False)
        with pytest.raises(InternalError, match="not density-dominated"):
            divisible_fef(inst)

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


class TestEdgeProgram:
    """_edge_program(aug, tau, rel), over the n edge amounts, decides
    build_lp(aug, tau, rel): on drawn instances and thresholds with every
    tau_a <= m + 1, both programs get the same verdict, and the allocation
    built from a point of the small one satisfies build_lp's."""

    @settings(max_examples=200, deadline=None)
    @given(instances(max_agents=3, max_goods=4, max_value=4, max_size=3), st.data())
    def test_agrees_with_build_lp(self, inst, data):
        aug = augment(inst)
        tau = tuple(data.draw(st.integers(1, inst.m + 1)) for _ in range(inst.n))
        for rel in (LE, EQ):
            lp, cols = build_lp(aug, tau, rel)
            result = feasible(divisible._edge_program(aug, tau, rel))
            assert result.feasible == feasible(lp).feasible
            if result.feasible:
                x = divisible._edge_allocation(aug, tau, result.assignment).x
                assert lp_module._satisfies(lp, tuple(x[a][g] for a, g in cols))


class TestStepsGrowBuildLp:
    """Each threshold step tau -> tau + e_k grows build_lp's program, as
    its row keys promise: the trial LP2(tau + e_k) keeps every row and
    column of LP2(tau) with its entries, turns rows only from <= into =,
    and adds columns only at lower bound 0.  Checked for every trial the
    solver may make along its tau path."""

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
                lp, lp_cols = build_lp(aug, after, LE)
                var = {key: j for j, key in enumerate(lp_cols)}
                rows = {c.key: c for c in lp.constraints}
                assert len(rows) == len(lp.constraints)
                assert set(cols) <= var.keys()
                assert [(lp.lower[var[key]], lp.upper[var[key]]) for key in cols] == [
                    *zip(parent.lower, parent.upper)
                ]
                assert all(lp.lower[var[key]] == 0 for key in var.keys() - set(cols))
                for c in parent.constraints:
                    assert c.key in rows
                    kept = rows[c.key]
                    assert kept.rhs == c.rhs
                    assert kept.relation in (c.relation, EQ)
                    assert [kept.coeffs.get(var[key], 0) for key in cols] == [
                        c.coeffs.get(j, 0) for j in range(len(cols))
                    ]


class TestDominationCheck:
    def test_rejects_unbalanced_budget(self):
        inst = identical_pair()
        aug = augment(inst)
        idle = FractionalAllocation(
            ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0)))
        )
        assert not check_density_domination(aug, idle, (2, 2))

    def test_rejects_dominance_violation(self):
        # At tau = (2, 1), good 0 is internal to agent 0, who holds less of
        # it than agent 1; both budgets are spent.
        aug = augment(identical_pair())
        x = FractionalAllocation(
            ((Fraction(0), Fraction(1, 4)), (Fraction(1), Fraction(0)))
        )
        assert not check_density_domination(aug, x, (2, 1))

    def test_rejects_unbalanced_internal_supply(self):
        # Good 0 is internal and the budget is spent, half on the fictional
        # good, but only half of good 0 is assigned.
        aug = augment(Instance(1, 1, ((1,),), ((1,),), (1,)))
        x = FractionalAllocation(((Fraction(1, 2), Fraction(1, 4)),))
        assert not check_density_domination(aug, x, (2,))
        x = FractionalAllocation(((Fraction(1), Fraction(0)),))
        assert check_density_domination(aug, x, (2,))

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

    @pytest.mark.parametrize("agent", [-1, 2, True, 1.0])
    def test_best_feasible_value_agent_out_of_range(self, agent):
        with pytest.raises(ValueError, match="agent index"):
            best_feasible_value(identical_pair(), agent, (Fraction(1),))

    @pytest.mark.parametrize(
        "target, match",
        [
            ((1, 1, 1, 1), "expected 3 entries"),
            ((Fraction(1),), "expected 3 entries"),
            ((Fraction(-1), 1, 1), r"outside \[0, 1\]"),
            ((0.5, 1, 1), "is not an int or Fraction"),
        ],
        ids=["long", "short", "negative", "float"],
    )
    def test_best_feasible_value_refuses_bad_target(self, target, match):
        inst = Instance(1, 3, ((3, 2, 1),), ((1, 1, 1),), (2,))
        with pytest.raises(ValueError, match=f"target: .*{match}"):
            best_feasible_value(inst, 0, target)

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
