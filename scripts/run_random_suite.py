#!/usr/bin/env python3
"""Solve a batch of seeded random instances and print summary statistics.

Runs every pipeline on every instance: the divisible solver (threshold
loop iterations, terminal thresholds), the indivisible FEFx solver (swap
counts, welfare, charity size) and the (1-eps)-FEFx solver at eps = 1/10
(swap counts).  Every output is re-verified.

Example:
    python3 scripts/run_random_suite.py --count 50 --agents 3 --goods 5
"""

import argparse
import random
import sys
import time
from fractions import Fraction

from gapfair import (
    compute_approx_fefx,
    compute_fefx,
    divisible_fef,
    verify_approx_fefx,
    verify_fef,
    verify_fefx,
)
from gapfair.cli import gen_random

EPS = Fraction(1, 10)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=50)
    parser.add_argument("--agents", type=int, default=3, help="max agents")
    parser.add_argument("--goods", type=int, default=5, help="max goods")
    parser.add_argument("--seed", type=int, default=0, help="base seed")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args()

    rng = random.Random(args.seed)
    div_iters: list[int] = []
    swap_counts: list[int] = []
    apx_swap_counts: list[int] = []
    start = time.perf_counter()
    for i in range(args.count):
        n = rng.randint(1, args.agents)
        m = rng.randint(1, args.goods)
        inst = gen_random(args.seed + 31 * i + 1, n, m)

        div = divisible_fef(inst)
        if not verify_fef(inst, div.allocation):
            sys.exit(f"instance {i}: divisible output failed verify_fef")
        div_iters.append(div.iterations)

        fefx = compute_fefx(inst)
        if not verify_fefx(inst, fefx.allocation):
            sys.exit(f"instance {i}: FEFx output failed verify_fefx")
        swap_counts.append(len(fefx.swaps))

        apx = compute_approx_fefx(inst, EPS)
        if not verify_approx_fefx(inst, apx.allocation, EPS):
            sys.exit(f"instance {i}: (1-{EPS})-FEFx output failed verify_approx_fefx")
        apx_swap_counts.append(len(apx.swaps))

        if args.verbose:
            print(
                f"[{i:3d}] n={n} m={m} "
                f"tau*={div.tau} iters={div.iterations} "
                f"swaps={len(fefx.swaps)} apx_swaps={len(apx.swaps)} "
                f"welfare={fefx.allocation.welfare(inst)} "
                f"charity={sorted(fefx.allocation.charity)}"
            )
    elapsed = time.perf_counter() - start

    print(f"\n{args.count} instances, all verified, {elapsed:.2f}s")
    print(
        f"divisible: iterations mean {sum(div_iters) / len(div_iters):.2f}, "
        f"max {max(div_iters)}"
    )
    print(
        f"fefx: swaps mean {sum(swap_counts) / len(swap_counts):.2f}, "
        f"max {max(swap_counts)}"
    )
    print(
        f"(1-{EPS})-fefx: swaps mean {sum(apx_swap_counts) / len(apx_swap_counts):.2f}, "
        f"max {max(apx_swap_counts)}"
    )


if __name__ == "__main__":
    main()
