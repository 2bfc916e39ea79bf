"""FEFx and (1-eps)-FEFx allocation of indivisible goods.

Both solvers run one swap loop: starting from empty bundles, it
repeatedly swaps a minimal envied subset of the charity, found in one
ascending pass, into the bundle of an agent who envies it.  Envy tests
are exact at eps = 0: the pass decides them by merging Pareto fronts of
the goods kept and of a suffix of the charity, and the set it keeps is
its own witness, so the solve asks the knapsack nothing.  At eps > 0
they are FPTAS queries at accuracy eps/2 with every comparison relaxed
by the exact rational factor (1 - eps/2), and minimal means that no
agent envies the set minus any good at factor (1 - eps).

Scan order everywhere is ascending good index, then ascending agent
index, first hit taken, so runs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Union

from .instance import (
    CHARITY,
    Instance,
    IntegralAllocation,
    InternalError,
    check_allocation,
    check_shape,
    require_agent,
    require_exact,
)
from .knapsack import _add, _best_within, _fronts, apx_kns, kns_exact, query_for_agent

Target = Union[int, str]


@dataclass(frozen=True)
class EnvyWitness:
    agent: int
    subset: frozenset[int]
    value: int


@dataclass(frozen=True)
class SwapRecord:
    iteration: int
    agent: int
    goods: frozenset[int]
    welfare: int


@dataclass(frozen=True)
class FefxResult:
    allocation: IntegralAllocation
    swaps: tuple[SwapRecord, ...]


def _unit_eps(eps) -> Union[int, Fraction]:
    if not 0 <= require_exact("eps", eps) < 1:
        raise ValueError("eps must lie in [0, 1)")
    return eps


def _envy_test(eps) -> tuple[Optional[Fraction], int, int]:
    """The FPTAS accuracy eps/2 (None for the exact knapsack at eps = 0)
    and the factor 1 - eps/2 as integers num/den: for eps = p/q,
    num = 2q - p and den = 2q, so (1 - eps/2) * value > own is compared
    as num * value > den * own."""
    p, q = eps.numerator, eps.denominator
    return (eps / 2 if p else None), 2 * q - p, 2 * q


def envies(
    instance: Instance,
    allocation: IntegralAllocation,
    agent: int,
    target_goods: frozenset[int],
    eps: Union[int, Fraction] = 0,
) -> Optional[EnvyWitness]:
    """Witness that the agent envies the target set, or None.

    The agent envies a set iff (1 - eps/2) times the value of her best
    feasible subset of it strictly beats her own bundle.  The best subset
    comes from the exact knapsack DP when eps = 0 and from the FPTAS at
    accuracy eps/2 otherwise.  eps is an int or Fraction in [0, 1).
    """
    check_shape(instance, allocation)
    require_agent(instance, agent)
    own = instance.bundle_value(agent, allocation.bundles[agent])
    test = _envy_test(_unit_eps(eps))
    return _first_envy(instance, [(agent, own)], target_goods, test)


def _first_envy(instance, owns, goods, test) -> Optional[EnvyWitness]:
    """First (agent, own value) in `owns` whose agent envies `goods`, at
    the accuracy and factors `test` from `_envy_test`."""
    half, num, den = test
    for agent, own in owns:
        query = query_for_agent(instance, agent, goods)
        best = kns_exact(query) if half is None else apx_kns(query, half)
        if num * best.value > den * own:
            return EnvyWitness(agent, best.subset, best.value)
    return None


def _front_envier(instance: Instance, owns, goods: list[int]):
    """The exact envy test of the one-pass search, on Pareto fronts.

    `envier(kept, i)` is the first agent in `owns` whose best feasible
    subset of `kept` + goods[i:] beats her own value, or None: one merge
    (`knapsack._best_within`) of her front of `kept` with her front of the
    suffix goods[i:].  Her suffix fronts are built in one pass over `goods`
    the first time she is asked, and her front of `kept` takes in, one
    `knapsack._add` each, the goods kept since she was last asked.
    """
    suffixes: dict[int, list] = {}
    kept_fronts: dict[int, tuple] = {}  # agent: (front of kept[:count], count)

    def envier(kept: list[int], i: int) -> Optional[int]:
        for a, own in owns:
            sizes, values, cap = instance.sizes[a], instance.values[a], instance.budgets[a]
            if a not in suffixes:
                suffixes[a] = _fronts([(sizes[g], values[g]) for g in reversed(goods)], cap)[::-1]
                kept_fronts[a] = suffixes[a][-1], 0
            front, count = kept_fronts[a]
            for g in kept[count:]:
                front = _add(front, sizes[g], values[g], cap)
            kept_fronts[a] = front, len(kept)
            if _best_within(front, suffixes[a][i], cap) > own:
                return a
        return None

    return envier


def find_minimal_envied_subset(
    instance: Instance,
    allocation: IntegralAllocation,
    eps: Union[int, Fraction] = 0,
) -> Optional[EnvyWitness]:
    """Witness of a minimal envied subset S of the charity, or None.

    None means that no agent envies the charity.  Otherwise one ascending
    pass drops each good g while some agent envies t - g, t the goods kept
    so far (envy as in `envies`), and returns the last hit.  At eps = 0 envy
    is monotone in the set, so a kept good stays undroppable and the pass
    drops what a scan restarted after each drop would; the witness is all
    of S.  At eps > 0 it is the FPTAS's trim of S, and each g in S was kept
    on some t containing S, where no agent b envied t - g: with o_b her own
    value, o_b >= (1 - eps/2) apx_b(t - g) >= (1 - eps/2)^2 OPT_b(t - g) >=
    (1 - eps) OPT_b(Y) for Y within S - g, as `fefx_witness` needs.

    Every t - g the pass asks about is the goods kept before g plus the
    goods after it.  At eps = 0 each question is one merge of Pareto
    fronts (`_front_envier`), and S is its own best feasible subset for
    the agent a who envies it: were her best subset T of S smaller, T
    would lie in S - g for some g in S, so a would envy S - g, and S would
    not be minimal.  So the witness is S with v_a(S), checked exactly
    (S fits a's budget and beats her own value), and no knapsack is asked.
    At eps > 0 each question runs the FPTAS for each agent asked.
    """
    test = _envy_test(_unit_eps(eps))
    check_shape(instance, allocation)
    owns = [instance.bundle_value(a, allocation.bundles[a]) for a in range(instance.n)]
    return _search(instance, owns, sorted(allocation.charity), test)


def _search(instance, owns: list[int], goods: list[int], test) -> Optional[EnvyWitness]:
    """The pass of `find_minimal_envied_subset`, given each agent's own
    value and the sorted charity `goods`."""
    pairs = list(enumerate(owns))
    exact = test[0] is None
    if exact:
        envier = _front_envier(instance, pairs, goods)
    else:
        def envier(kept, i):
            return _first_envy(instance, pairs, frozenset(kept + goods[i:]), test)
    kept: list[int] = []
    last = envier(kept, 0)
    if last is None:
        return None
    for i, g in enumerate(goods, 1):
        hit = envier(kept, i)
        if hit is None:
            kept.append(g)
        else:
            last = hit
    if not exact:
        return last
    # `last` is the agent who envies S, the goods kept: S is its own witness.
    if not instance.is_feasible_bundle(last, kept):
        raise InternalError("minimal envied set exceeds its agent's budget")
    value = instance.bundle_value(last, kept)
    if not value > owns[last]:
        raise InternalError("minimal envied set does not beat its agent's bundle")
    return EnvyWitness(last, frozenset(kept), value)


def _swap_limit(instance: Instance, eps) -> int:
    """Most swaps `_swap_loop` can make at this eps.

    Each swap leaves the receiving agent with a bundle worth strictly more
    than r = 1/(1 - eps/2) times her old one, and changes no other bundle.
    At eps = 0 that is strict growth of social welfare, an integer of at
    most n * max_a v_a([m]).  At eps = p/q > 0, agent a's first swap gives
    her a value of at least 1 and each later one multiplies it by more than
    r, so with V_a = v_a([m]) she takes at most 1 + ceil(ln V_a / ln r)
    swaps.  In integers: ln r >= eps/2 = p/(2q), and ln V_a < (7/10) b_a,
    where b_a is the bit length of V_a, so she takes at most
    1 + ceil(7 b_a q / (5 p)).  The limit is their sum.
    """
    if eps == 0:
        return instance.n * max(sum(row) for row in instance.values) + 1
    p, q = eps.numerator, eps.denominator
    return sum(
        1 - (-7 * sum(row).bit_length() * q // (5 * p)) for row in instance.values
    )


def _swap_loop(instance, eps, trace) -> FefxResult:
    """Grant minimal envied subsets of the charity until nobody envies it.

    The loop owns the solve's state: the bundles, each agent's own value
    and the charity.  A swap changes one bundle, so it updates one own
    value, and the welfare is their sum.  Each granted set must lie in the
    charity and fit its agent's budget, and each swap must pass the growth
    test of `_swap_limit`, compared in integers as num * new > den * old;
    the loop raises InternalError otherwise, and past that limit.  The
    allocation is built once, at the end.
    """
    test = _envy_test(_unit_eps(eps))
    _, num, den = test
    bundles: list[frozenset[int]] = [frozenset()] * instance.n
    owns = [0] * instance.n
    charity = set(range(instance.m))
    swaps: list[SwapRecord] = []
    limit = _swap_limit(instance, eps)
    while (hit := _search(instance, owns, sorted(charity), test)) is not None:
        if len(swaps) >= limit:
            raise InternalError("swap loop exceeded its bound")
        a, goods = hit.agent, hit.subset
        if not goods <= charity or not instance.is_feasible_bundle(a, goods):
            raise InternalError("granted set is not a feasible subset of the charity")
        value = instance.bundle_value(a, goods)
        if not num * value > den * owns[a]:
            raise InternalError("bundle update missed its growth guarantee")
        charity |= bundles[a]
        charity -= goods
        bundles[a], owns[a] = goods, value
        record = SwapRecord(len(swaps) + 1, a, goods, sum(owns))
        swaps.append(record)
        if trace is not None:
            trace(record)
    return FefxResult(IntegralAllocation(instance.m, tuple(bundles)), tuple(swaps))


def compute_fefx(
    instance: Instance,
    trace: Optional[Callable[[SwapRecord], None]] = None,
) -> FefxResult:
    """Compute an FEFx allocation by minimal-envied-subset swaps.

    Social welfare strictly increases each iteration, so the loop runs at
    most n * max_a v_a([m]) times.
    """
    return _swap_loop(instance, 0, trace)


def compute_approx_fefx(
    instance: Instance,
    eps: Fraction,
    trace: Optional[Callable[[SwapRecord], None]] = None,
) -> FefxResult:
    """Compute a (1-eps)-FEFx allocation in time polynomial in 1/eps.

    Each swap raises the receiving agent's value by a strict factor of
    1/(1 - eps/2), which bounds the per-agent update count
    logarithmically; the loop checks that bound (`_swap_limit`).
    """
    if not 0 < require_exact("eps", eps) < 1:
        raise ValueError("eps must lie in (0, 1)")
    return _swap_loop(instance, eps, trace)


# -- verifiers ---------------------------------------------------------------


@dataclass(frozen=True)
class FefxViolation:
    agent: int
    target: Target
    own_value: int
    subset: frozenset[int]
    subset_value: int


def _strict_subset_violation(
    instance, agent, own, target, goods, eps: Fraction
) -> Optional[FefxViolation]:
    """Best feasible strict subset of `goods`, compared at factor (1-eps).

    One knapsack over all of `goods` answers it.  An optimum that is a
    strict subset is the best strict subset.  An optimum equal to `goods`
    means the whole set fits the budget, so every strict subset fits too,
    and the best one drops a least-valued good (the lowest index on ties).
    """
    if not goods:
        return None
    subset = kns_exact(query_for_agent(instance, agent, goods)).subset
    if subset == goods:
        subset = goods - {min(goods, key=lambda g: (instance.value(agent, g), g))}
    value = instance.bundle_value(agent, subset)
    if (eps.denominator - eps.numerator) * value > eps.denominator * own:
        return FefxViolation(agent, target, own, subset, value)
    return None


def fefx_witness(
    instance: Instance,
    allocation: IntegralAllocation,
    eps: Union[int, Fraction] = 0,
) -> Optional[FefxViolation]:
    """First FEFx violation at relaxation factor (1-eps), or None.

    Scan order: per agent, the other bundles ascending, then the charity.
    The witness subset is the agent's best feasible strict subset of the
    target.
    """
    eps = _unit_eps(eps)
    check_allocation(instance, allocation)
    charity = allocation.charity
    for a in range(instance.n):
        own = instance.bundle_value(a, allocation.bundles[a])
        targets: list[tuple[Target, frozenset[int]]] = [
            (b, allocation.bundles[b]) for b in range(instance.n) if b != a
        ]
        targets.append((CHARITY, charity))
        for label, goods in targets:
            violation = _strict_subset_violation(instance, a, own, label, goods, eps)
            if violation:
                return violation
    return None


def verify_fefx(instance: Instance, allocation: IntegralAllocation) -> bool:
    """True iff no agent envies a feasible strict subset of any other
    bundle or of the charity."""
    return fefx_witness(instance, allocation) is None


def verify_approx_fefx(
    instance: Instance, allocation: IntegralAllocation, eps: Fraction
) -> bool:
    """verify_fefx with comparisons relaxed to v_a(A_a) >= (1-eps) v_a(S)."""
    return fefx_witness(instance, allocation, eps) is None
