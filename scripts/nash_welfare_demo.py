#!/usr/bin/env python3
"""Show that maximizing Nash social welfare does not give envy-freeness
under assignment constraints.

Prints the two-agent counterexample instance, the Nash-welfare-optimal
fractional allocation with its envy witness, and the envy-free
allocation the threshold solver produces instead.

Example:
    python3 scripts/nash_welfare_demo.py
"""

import sys
from fractions import Fraction

from gapfair import divisible_fef, fef_witness, mnw_fixture, verify_fef


def main() -> None:
    fx = mnw_fixture()
    inst, x = fx.instance, fx.nsw_allocation
    scale = Fraction(fx.value_scale)

    print("instance (values stored x%d to stay integral):" % fx.value_scale)
    for a in range(inst.n):
        print(
            f"  agent {a + 1}: values {inst.values[a]}, "
            f"sizes {inst.sizes[a]}, budget {inst.budgets[a]}"
        )

    nash = x.agent_value(inst, 0) * x.agent_value(inst, 1) / scale**2
    print(f"\nNash-welfare optimum x* (product {nash}):")
    for a in range(inst.n):
        print(f"  agent {a + 1}: {tuple(str(v) for v in x.x[a])}")

    witness = fef_witness(inst, x)
    if witness is None:
        sys.exit("the Nash-welfare optimum unexpectedly passed verify_fef")
    print(
        f"\nx* is NOT envy-free: agent {witness.agent + 1} holds value "
        f"{witness.own_value / scale} but can extract "
        f"{witness.best_value / scale} from agent {witness.target + 1}'s bundle"
    )

    result = divisible_fef(inst)
    if not verify_fef(inst, result.allocation):
        sys.exit("threshold solver output failed verify_fef")
    print(f"\nthreshold solver output (tau* = {result.tau}) IS envy-free:")
    for a in range(inst.n):
        print(f"  agent {a + 1}: {tuple(str(v) for v in result.allocation.x[a])}")


if __name__ == "__main__":
    main()
