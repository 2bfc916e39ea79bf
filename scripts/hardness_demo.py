#!/usr/bin/env python3
"""Demonstrate the knapsack-to-FEFx reduction on a random instance.

Generates a random knapsack problem, sweeps the probe parameter mu to
show the parity flip at half the optimum, then runs the binary-search
reduction and compares against the exact DP; exits 1 if they differ.

Example:
    python3 scripts/hardness_demo.py --items 5 --seed 3
"""

import argparse
import random
import sys

from gapfair import KnapsackQuery, kns_exact, parity_probe, solve_knapsack_via_fefx


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--items", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    kp = KnapsackQuery(
        items=tuple(range(args.items)),
        weights=tuple(rng.randint(1, 8) for _ in range(args.items)),
        values=tuple(2 * rng.randint(1, 6) for _ in range(args.items)),
        capacity=rng.randint(2, 12),
    )
    print(f"weights  = {kp.weights}")
    print(f"values   = {kp.values}")
    print(f"capacity = {kp.capacity}")

    v_star = kns_exact(kp).value
    print(f"\nexact DP optimum: {v_star}")

    print("\nparity sweep (flip expected at mu = v*/2):")
    for mu in range(v_star // 2 + 3):
        marker = " <- flip" if mu == v_star // 2 else ""
        print(f"  mu={mu:3d}: {parity_probe(kp, mu)}{marker}")

    probes: list[tuple[int, str]] = []
    result = solve_knapsack_via_fefx(kp, probe_trace=lambda mu, p: probes.append((mu, p)))
    print(f"\nbinary search probed {[mu for mu, _ in probes]}")
    print(f"reduction result: {result} (matches DP: {result == v_star})")
    return 0 if result == v_star else 1


if __name__ == "__main__":
    sys.exit(main())
