"""Workload definitions and the benchmark's own seeded instance generator.

The generator is a frozen copy of the draw order of ``gapfair.cli.gen_random``
(values row by row, then sizes row by row, then budgets), so that a change
to the package's generator cannot change the benchmark's inputs.  The
program under test only ever sees the instance files written here.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

# The tail percentile needs at least ten samples beyond it.
MIN_POOL = 11


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    m: int
    max_value: int
    max_size: int
    max_budget: int
    solve: tuple[str, ...]  # subcommand and its options, before the instance path
    verify: tuple[str, ...]  # options of `verify` after the allocation path
    eps: Optional[Fraction]  # relaxation the outputs are checked against
    rate: float  # pipelines per second at the commit that defined the benchmark
    passes: int  # timed passes over the pool

    def pool_size(self, seconds: float) -> int:
        return max(MIN_POOL, round(self.rate * seconds / self.passes))


# `rate` sizes the pool so that the timed passes take about --seconds at
# the commit that defined the benchmark (2-core x86-64 VM, Python 3.11).
# Seed-to-seed spread falls with the number of distinct instances, so the
# slower workloads time each instance once; timing noise dominates on the
# fastest, which times two passes and keeps each instance's faster one.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fef",
            n=3, m=6, max_value=10, max_size=5, max_budget=20,
            solve=("solve-divisible",),
            verify=("--mode", "fef"),
            eps=None,
            rate=4.0,
            passes=1,
        ),
        Workload(
            name="fefx-wide-budget",
            n=3, m=8, max_value=10, max_size=1250, max_budget=5000,
            solve=("solve-fefx",),
            verify=("--mode", "fefx"),
            eps=Fraction(0),
            rate=15.0,
            passes=1,
        ),
        Workload(
            name="apx-fefx-wide-value",
            n=3, m=10, max_value=10**5, max_size=5, max_budget=20,
            solve=("solve-approx-fefx", "--eps", "1/10"),
            verify=("--mode", "apx-fefx", "--eps", "1/10"),
            eps=Fraction(1, 10),
            rate=25.0,
            passes=2,
        ),
    )
}


def generate(w: Workload, seed: int, count: int) -> list[dict]:
    """`count` instance documents drawn from one stream seeded by `seed`."""
    rng = random.Random(seed)
    docs = []
    for _ in range(count):
        values = [[rng.randint(0, w.max_value) for _ in range(w.m)] for _ in range(w.n)]
        sizes = [[rng.randint(1, w.max_size) for _ in range(w.m)] for _ in range(w.n)]
        budgets = [rng.randint(1, w.max_budget) for _ in range(w.n)]
        docs.append(
            {"n": w.n, "m": w.m, "budgets": budgets, "values": values, "sizes": sizes}
        )
    return docs


def instance_bytes(doc: dict) -> bytes:
    """The file form of an instance, in the layout `gapfair` itself writes."""
    return (json.dumps(doc, indent=2) + "\n").encode()


def write_pool(files: list[bytes], directory: Path) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, data in enumerate(files):
        path = directory / f"instance-{i:04d}.json"
        path.write_bytes(data)
        paths.append(path)
    return paths
