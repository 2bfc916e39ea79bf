"""Core data model for fair division under generalized assignment constraints.

An instance consists of n agents and m goods; every agent a has an integer
value v_a(g) and an integer size s_a(g) for each good g, plus an integer
budget B_a.  A bundle is feasible for agent a iff its total size under s_a
is at most B_a.  All fractional quantities are exact rationals
(fractions.Fraction); no floating point is used anywhere.

Goods and agents are 0-indexed internally; the file format (see serialize)
uses 1-based good indices.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Any

#: Envy-witness label of the unassigned goods; other targets are agent indices.
CHARITY = "charity"


class ZeroSizeError(ValueError):
    """A zero-size good was supplied to a pipeline that needs densities."""


class InfeasibleAllocationError(ValueError):
    """An allocation violates budget or disjointness requirements."""


def require_ints(**fields: Iterable[Any]) -> None:
    """Refuse a float, bool or Fraction entry instead of computing with it;
    bool is a subclass of int, so the type must be int exactly."""
    for field, entries in fields.items():
        for v in entries:
            if type(v) is not int:
                raise ValueError(f"{field}: {v!r} is not an int")


def require_exact(field: str, v: Any) -> int | Fraction:
    """v as given; refuse anything but an int or a Fraction, so that a
    float's binary expansion or a bool is never computed with."""
    if type(v) not in (int, Fraction):
        raise ValueError(f"{field}: {v!r} is not an int or Fraction")
    return v


def _rows(field: str, rows: Iterable[Any]) -> tuple[tuple[Any, ...], ...]:
    rows = tuple(rows)
    for row in rows:
        if not isinstance(row, Sequence):
            raise ValueError(f"{field}: row {row!r} is not a sequence")
    return tuple(map(tuple, rows))


class InternalError(RuntimeError):
    """A solver broke one of its own guarantees; always a bug, never bad input.

    Raised instead of `assert` so the soundness checks also run under
    `python -O`.
    """


class LPStructureError(ValueError):
    """Malformed program (bad dimensions, bad relation, crossed bounds)."""


@dataclass(frozen=True)
class Instance:
    """A fair-division instance with agent-specific values, sizes and budgets.

    values[a][g] >= 0 and budgets[a] >= 1 always; sizes[a][g] >= 0 is
    permitted (a zero-size good is only meaningful for the indivisible
    pipeline -- the divisible solver requires sizes >= 1, checked in
    augment()).
    """

    n: int
    m: int
    values: tuple[tuple[int, ...], ...]
    sizes: tuple[tuple[int, ...], ...]
    budgets: tuple[int, ...]

    def __post_init__(self) -> None:
        require_ints(n=[self.n], m=[self.m])
        object.__setattr__(self, "values", _rows("values", self.values))
        object.__setattr__(self, "sizes", _rows("sizes", self.sizes))
        object.__setattr__(self, "budgets", tuple(self.budgets))
        if self.n < 1:
            raise ValueError("need at least one agent")
        if self.m < 1:
            raise ValueError("need at least one good")
        if len(self.values) != self.n or len(self.sizes) != self.n:
            raise ValueError("values/sizes must have one row per agent")
        if len(self.budgets) != self.n:
            raise ValueError("budgets must have one entry per agent")
        require_ints(budgets=self.budgets)
        for a in range(self.n):
            if len(self.values[a]) != self.m or len(self.sizes[a]) != self.m:
                raise ValueError(f"agent {a}: expected {self.m} goods per row")
            require_ints(values=self.values[a], sizes=self.sizes[a])
            if any(v < 0 for v in self.values[a]):
                raise ValueError(f"agent {a}: negative value")
            if any(s < 0 for s in self.sizes[a]):
                raise ValueError(f"agent {a}: negative size")
            if self.budgets[a] < 1:
                raise ValueError(f"agent {a}: budget must be >= 1")

    @cached_property
    def _orderings(self) -> dict[int, tuple[int, ...]]:
        """density_ordering's per-agent memo, filled on first use."""
        return {}

    # -- scalar accessors ---------------------------------------------------

    def value(self, agent: int, good: int) -> int:
        return self.values[agent][good]

    def size(self, agent: int, good: int) -> int:
        return self.sizes[agent][good]

    def density(self, agent: int, good: int) -> Fraction:
        """Per-unit-size value of a good; requires a positive size."""
        s = self.sizes[agent][good]
        if s == 0:
            raise ZeroSizeError(f"good {good} has zero size for agent {agent}")
        return Fraction(self.values[agent][good], s)

    # -- bundle / vector helpers --------------------------------------------

    def bundle_value(self, agent: int, goods: Iterable[int]) -> int:
        return sum(self.values[agent][g] for g in goods)

    def bundle_size(self, agent: int, goods: Iterable[int]) -> int:
        return sum(self.sizes[agent][g] for g in goods)

    def vector_value(self, agent: int, y: Sequence[Fraction]) -> Fraction:
        return sum((y[g] * self.values[agent][g] for g in range(self.m)), Fraction(0))

    def vector_size(self, agent: int, y: Sequence[Fraction]) -> Fraction:
        return sum((y[g] * self.sizes[agent][g] for g in range(self.m)), Fraction(0))

    def is_feasible_bundle(self, agent: int, goods: Iterable[int]) -> bool:
        return self.bundle_size(agent, goods) <= self.budgets[agent]


def augment(instance: Instance) -> Instance:
    """Append the fictional good to every agent's value/size rows.

    The fictional good is the last column (index instance.m).  It has
    value 0 for every agent and size 2*n*max(B), which strictly exceeds
    every budget; it lets budget constraints bind with equality in the
    divisible pipeline.  Rejects instances containing a zero size, since
    the divisible pipeline needs all densities defined.
    """
    for a in range(instance.n):
        for g in range(instance.m):
            if instance.sizes[a][g] == 0:
                raise ZeroSizeError(
                    f"good {g} has zero size for agent {a}; "
                    "the divisible pipeline requires sizes >= 1"
                )
    fict_size = 2 * instance.n * max(instance.budgets)
    values = tuple(row + (0,) for row in instance.values)
    sizes = tuple(row + (fict_size,) for row in instance.sizes)
    return Instance(
        n=instance.n,
        m=instance.m + 1,
        values=values,
        sizes=sizes,
        budgets=instance.budgets,
    )


def density_ordering(instance: Instance, agent: int) -> tuple[int, ...]:
    """Permutation of goods sorted by decreasing density for the agent.

    Ties are broken by ascending good index, so consecutive positions t
    satisfy either rho(pi(t)) > rho(pi(t+1)), or equal densities with
    pi(t) < pi(t+1).  Deterministic; requires the agent's sizes positive.
    Computed at most once per agent and instance.
    """
    require_agent(instance, agent)  # before the memo, where True is key 1
    memo = instance._orderings
    if agent not in memo:
        memo[agent] = tuple(
            sorted(range(instance.m), key=lambda g: (-instance.density(agent, g), g))
        )
    return memo[agent]


@dataclass(frozen=True)
class FractionalAllocation:
    """An n x m matrix of exact rationals in [0,1] with column sums <= 1."""

    x: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(
            tuple(Fraction(require_exact("x", v)) for v in row) for row in self.x
        )
        object.__setattr__(self, "x", rows)
        if not rows:
            raise ValueError("allocation needs at least one agent row")
        m = len(rows[0])
        for row in rows:
            if len(row) != m:
                raise ValueError("ragged allocation matrix")
            for v in row:
                if v < 0 or v > 1:
                    raise ValueError(f"entry {v} outside [0,1]")
        for g in range(m):
            if sum(row[g] for row in rows) > 1:
                raise ValueError(f"good {g} over-assigned")

    @property
    def n(self) -> int:
        return len(self.x)

    @property
    def m(self) -> int:
        return len(self.x[0])

    @property
    def charity(self) -> tuple[Fraction, ...]:
        """Unassigned fraction of every good, 1 - sum over agents."""
        return tuple(
            1 - sum((row[g] for row in self.x), Fraction(0)) for g in range(self.m)
        )

    def agent_value(self, instance: Instance, agent: int) -> Fraction:
        return instance.vector_value(agent, self.x[agent])

    def agent_size(self, instance: Instance, agent: int) -> Fraction:
        return instance.vector_size(agent, self.x[agent])

    def is_feasible(self, instance: Instance) -> bool:
        return all(
            self.agent_size(instance, a) <= instance.budgets[a]
            for a in range(self.n)
        )


def strip_fictional(allocation: FractionalAllocation) -> FractionalAllocation:
    """Drop the fictional (last) column; agents' values are unchanged."""
    return FractionalAllocation(tuple(row[:-1] for row in allocation.x))


@dataclass(frozen=True)
class IntegralAllocation:
    """Pairwise-disjoint bundles of good indices; the rest is charity."""

    m: int
    bundles: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "bundles", tuple(frozenset(b) for b in self.bundles))
        require_ints(m=[self.m])
        seen: set[int] = set()
        for a, bundle in enumerate(self.bundles):
            require_ints(goods=bundle)
            for g in bundle:
                if g < 0 or g >= self.m:
                    raise ValueError(f"good index {g} out of range")
                if g in seen:
                    raise InfeasibleAllocationError(f"good {g} assigned twice")
                seen.add(g)

    @property
    def n(self) -> int:
        return len(self.bundles)

    @property
    def charity(self) -> frozenset[int]:
        assigned = frozenset().union(*self.bundles) if self.bundles else frozenset()
        return frozenset(range(self.m)) - assigned

    def is_feasible(self, instance: Instance) -> bool:
        return all(
            instance.is_feasible_bundle(a, self.bundles[a]) for a in range(self.n)
        )

    def welfare(self, instance: Instance) -> int:
        return sum(instance.bundle_value(a, self.bundles[a]) for a in range(self.n))


def require_agent(instance: Instance, agent: int) -> None:
    """Refuse all but an int in [0, n): -1 would wrap, and True run as agent 1."""
    if type(agent) is not int or not 0 <= agent < instance.n:
        raise ValueError(f"agent index {agent!r} is not an int in [0, {instance.n})")


def check_shape(
    instance: Instance, allocation: FractionalAllocation | IntegralAllocation
) -> None:
    """Refuse an allocation not shaped like the instance."""
    if allocation.n != instance.n or allocation.m != instance.m:
        raise ValueError("allocation dimensions do not match the instance")


def check_allocation(
    instance: Instance, allocation: FractionalAllocation | IntegralAllocation
) -> None:
    """Refuse an allocation not shaped like the instance, or over a budget."""
    check_shape(instance, allocation)
    if not allocation.is_feasible(instance):
        raise InfeasibleAllocationError("some bundle exceeds its agent's budget")
