"""Independent checks of the allocation files the pipelines write.

These re-derive feasibility and (approximate) envy-freeness from the
instance document with brute force and exact fractions, without calling
into `gapfair`, so a verifier that wrongly prints PASS still shows up as
an incorrect run.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Optional

_HEADER = ("instance", "instance_sha256")


def canonical(output: dict) -> bytes:
    """Allocation content without the instance reference (whose path
    depends on where the benchmark runs)."""
    body = {k: v for k, v in output.items() if k not in _HEADER}
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode()


def check(inst: dict, output: dict, eps: Optional[Fraction]) -> Optional[str]:
    """None when the allocation is correct, else the first problem found.

    `eps is None` means a fractional FEF allocation; otherwise an integral
    allocation in which no agent values a budget-feasible strict subset of
    another bundle or of the charity above its own bundle after scaling by
    (1 - eps).
    """
    try:
        if eps is None:
            return _check_fractional(inst, output)
        return _check_integral(inst, output, eps)
    except (KeyError, TypeError, ValueError, ZeroDivisionError, IndexError) as exc:
        return f"malformed allocation: {exc!r}"


def _check_fractional(inst: dict, output: dict) -> Optional[str]:
    n, m = inst["n"], inst["m"]
    values, sizes, budgets = inst["values"], inst["sizes"], inst["budgets"]
    if output.get("type") != "fractional":
        return "expected a fractional allocation"
    x = [[Fraction(v) for v in row] for row in output["x"]]
    if len(x) != n or any(len(row) != m for row in x):
        return "allocation shape does not match the instance"
    if any(not 0 <= v <= 1 for row in x for v in row):
        return "assigned fraction outside [0, 1]"
    charity = [1 - sum(x[a][g] for a in range(n)) for g in range(m)]
    if any(c < 0 for c in charity):
        return "a good is assigned more than once"
    if [Fraction(c) for c in output["charity"]] != charity:
        return "charity does not equal the unassigned fractions"
    for a in range(n):
        if sum(x[a][g] * sizes[a][g] for g in range(m)) > budgets[a]:
            return f"agent {a + 1} exceeds its budget"
    for a in range(n):
        own = sum(x[a][g] * values[a][g] for g in range(m))
        order = sorted(range(m), key=lambda g: -Fraction(values[a][g], sizes[a][g]))
        targets = [x[b] for b in range(n) if b != a] + [charity]
        for target in targets:
            remaining, best = Fraction(budgets[a]), Fraction(0)
            for g in order:
                take = min(target[g], remaining / sizes[a][g])
                best += take * values[a][g]
                remaining -= take * sizes[a][g]
            if best > own:
                return f"agent {a + 1} feasibly envies a bundle ({best} > {own})"
    return None


def _check_integral(inst: dict, output: dict, eps: Fraction) -> Optional[str]:
    n, m = inst["n"], inst["m"]
    values, sizes, budgets = inst["values"], inst["sizes"], inst["budgets"]
    if output.get("type") != "integral":
        return "expected an integral allocation"
    bundles = [sorted(g - 1 for g in bundle) for bundle in output["bundles"]]
    if len(bundles) != n:
        return "allocation shape does not match the instance"
    assigned = [g for bundle in bundles for g in bundle]
    if len(set(assigned)) != len(assigned) or any(not 0 <= g < m for g in assigned):
        return "bundles overlap or name unknown goods"
    charity = sorted(set(range(m)) - set(assigned))
    if sorted(g - 1 for g in output["charity"]) != charity:
        return "charity does not equal the unassigned goods"
    for a in range(n):
        if sum(sizes[a][g] for g in bundles[a]) > budgets[a]:
            return f"agent {a + 1} exceeds its budget"
    for a in range(n):
        own = sum(values[a][g] for g in bundles[a])
        for goods in [bundles[b] for b in range(n) if b != a] + [charity]:
            best = _best_strict_subset(values[a], sizes[a], budgets[a], goods)
            if (1 - eps) * best > own:
                return f"agent {a + 1} envies a strict subset ({best} > {own})"
    return None


def _best_strict_subset(values, sizes, budget, goods) -> int:
    """Largest value of a budget-feasible strict subset, by enumeration."""
    full = (1 << len(goods)) - 1
    weight = [0] * (full + 1)
    value = [0] * (full + 1)
    best = 0
    for mask in range(1, full):
        low = mask & -mask
        g = goods[low.bit_length() - 1]
        weight[mask] = weight[mask ^ low] + sizes[g]
        value[mask] = value[mask ^ low] + values[g]
        if weight[mask] <= budget and value[mask] > best:
            best = value[mask]
    return best
