#!/usr/bin/env python3
"""Benchmark of the gapfair command-line pipelines.

Run from the repository root:

    python3 perfbench/run.py --workload fef --seed 1 --seconds 30 --trace 0

A run generates a pool of instance files from --seed, then sends them one
at a time through `gapfair solve-*` followed by `gapfair verify` (closed
loop, one client: the next instance starts only after the previous
`verify` returns).  Both calls go through `gapfair.cli.main` in the same
process, so interpreter start-up stays out of the timings.  --seconds sizes
the pool; the workload fixes how many passes over it are timed.  Every
allocation written is then checked independently of the package.

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
times each instance of the first half of the pool once untraced and once
with layer spans, and reports per-layer metrics.  The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import canonical, check  # noqa: E402
from tracing import UNITS, Tracer, layer_metrics, tail  # noqa: E402
from workloads import (  # noqa: E402
    MIN_POOL, WORKLOADS, Workload, generate, instance_bytes, write_pool,
)

SETUP_REPEATS = 9

E2E_UNITS = {
    "setup_s": "s",
    "pipeline_p50_s": "s",
    "pipeline_tail_s": "s",
    "instances_per_s": "1/s",
    "peak_rss_mb": "MiB",
}


def import_cli():
    """Import `gapfair.cli` afresh from this checkout's `src/`."""
    for name in [n for n in sys.modules if n == "gapfair" or n.startswith("gapfair.")]:
        del sys.modules[name]
    return importlib.import_module("gapfair.cli")


def set_up(w: Workload, seed: int, pool: int):
    """Import the package and generate the pool's instance files in memory.

    Writing the files is left out of the timing: on the virtual machine the
    benchmark was defined on, file creation time varied by 40% between
    runs and would have hidden any change to the import.
    """
    start = time.perf_counter()
    cli = import_cli()
    docs = generate(w, seed, pool)
    files = [instance_bytes(doc) for doc in docs]
    return time.perf_counter() - start, cli, docs, files


def run_pipeline(cli, w: Workload, instance: Path, output: Path):
    """Wall time of `solve-*` then `verify`, and why it failed (None if not)."""
    solve_log, verify_log = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(solve_log), redirect_stderr(solve_log):
            code = cli.main([*w.solve, str(instance), "-o", str(output)])
        if code == 0:
            with redirect_stdout(verify_log), redirect_stderr(verify_log):
                code = cli.main(["verify", str(output), *w.verify])
            stage = "verify"
        else:
            stage = w.solve[0]
    except (Exception, SystemExit) as exc:
        return time.perf_counter() - start, f"raised {exc!r}"
    elapsed = time.perf_counter() - start
    if code != 0:
        log = (solve_log.getvalue() + verify_log.getvalue()).strip()
        return elapsed, f"{stage} exited {code}: {log[-200:]}"
    if not verify_log.getvalue().startswith("PASS"):
        return elapsed, f"verify did not print PASS: {verify_log.getvalue()[:200]!r}"
    return elapsed, None


@dataclass
class Loop:
    times: list[list[float]]  # per pool instance, one entry per pass
    outputs: list[Optional[bytes]]  # allocation file of the first pass
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    @classmethod
    def of(cls, size: int) -> "Loop":
        return cls([[] for _ in range(size)], [None] * size)

    def run(self, cli, w: Workload, i: int, instance: Path, output: Path) -> None:
        """Time one pipeline on pool instance `i` and record the outcome."""
        elapsed, problem = run_pipeline(cli, w, instance, output)
        self.attempted += 1
        self.times[i].append(elapsed)
        if problem is None:
            written = output.read_bytes()
            if self.outputs[i] is None:
                self.outputs[i] = written
            elif self.outputs[i] != written:
                problem = "output differs from the first pass"
        if problem is not None:
            self.failed += 1
            self.problems.append(f"instance {i}: {problem}")

    def per_instance(self) -> list[float]:
        """Each instance's fastest pass: interference only ever adds time."""
        return [min(t) for t in self.times]


def output_path(out_dir: Path, i: int) -> Path:
    return out_dir / f"output-{i:04d}.json"


def closed_loop(cli, w, paths, out_dir, passes) -> Loop:
    """Time `passes` whole passes over the pool, one pipeline at a time."""
    loop = Loop.of(len(paths))
    start = time.perf_counter()
    for _ in range(passes):
        for i, path in enumerate(paths):
            loop.run(cli, w, i, path, output_path(out_dir, i))
    loop.wall_s = time.perf_counter() - start
    return loop


def check_outputs(w: Workload, docs, loop: Loop) -> tuple[list[str], str]:
    """Independent correctness problems, and the SHA-256 of the outputs."""
    problems = []
    digest = hashlib.sha256()
    for i, (doc, written) in enumerate(zip(docs, loop.outputs)):
        if written is None:
            digest.update(b"missing\n")
            continue
        try:
            output = json.loads(written)
        except ValueError:
            output = None
        if not isinstance(output, dict):
            digest.update(written + b"\n")
            problems.append(f"instance {i}: allocation file is not a JSON object")
            continue
        digest.update(canonical(output) + b"\n")
        problem = check(doc, output, w.eps)
        if problem is not None:
            problems.append(f"instance {i}: {problem}")
    return problems, digest.hexdigest()


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "gapfair" / "__init__.py").is_file():
        print(f"error: no gapfair sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    w = WORKLOADS[args.workload]
    pool = w.pool_size(args.seconds)
    work = HERE / ".work" / f"{w.name}-{args.seed}-{os.getpid()}"
    try:
        # Untimed warm-up: compiles bytecode and loads the standard library.
        import_cli()
        setup_times = []
        for _ in range(SETUP_REPEATS):
            gc.collect()  # each set-up starts from a collected heap
            elapsed, cli, docs, files = set_up(w, args.seed, pool)
            setup_times.append(elapsed)
        paths = write_pool(files, work / "instances")
        if not Path(cli.__file__).resolve().is_relative_to(src):
            print(f"error: gapfair imported from {cli.__file__}", file=sys.stderr)
            return 2
        instances_sha = hashlib.sha256(b"".join(files)).hexdigest()
        out_dir = work / "outputs"
        out_dir.mkdir()
        if args.trace:
            return _traced(args, w, cli, docs, paths, out_dir, instances_sha)
        return _untraced(args, w, cli, docs, paths, out_dir, instances_sha,
                         statistics.median(setup_times))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _untraced(args, w, cli, docs, paths, out_dir, instances_sha, setup_s) -> int:
    loop = closed_loop(cli, w, paths, out_dir, w.passes)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems, outputs_sha = check_outputs(w, docs, loop)
    per_instance = loop.per_instance()
    tail_s, tail_pct, beyond = tail(per_instance)
    values = {
        "setup_s": setup_s,
        "pipeline_p50_s": statistics.median(per_instance),
        "pipeline_tail_s": tail_s,
        "instances_per_s": (loop.attempted - loop.failed) / loop.wall_s,
        "peak_rss_mb": peak_rss_mib,
    }
    metrics = {name: metric(v, E2E_UNITS[name]) for name, v in values.items()}
    print(f"workload {w.name}, seed {args.seed}: {len(paths)} instances x {w.passes}"
          f" passes in {loop.wall_s:.2f} s (closed loop, one client)")
    for name, m in metrics.items():
        print(f"  {name:<16} {m['value']:.6g} {m['unit']}")
    print(f"  pipeline_tail_s is p{tail_pct:.1f} of {len(per_instance)} instances,"
          f" {beyond} beyond it")
    print(f"  setup_s is the median of {SETUP_REPEATS} set-ups")
    print(f"  failed_frac      {loop.failed / loop.attempted:.6g}"
          f" ({loop.failed} of {loop.attempted})")
    print(f"  instances_sha256 {instances_sha}")
    print(f"  outputs_sha256   {outputs_sha}")
    return _finish(loop.attempted, loop.failed, loop.problems + problems, metrics)


def _traced(args, w, cli, docs, paths, out_dir, instances_sha) -> int:
    half = max(MIN_POOL, len(paths) // 2)
    docs, paths = docs[:half], paths[:half]
    # Each instance runs once untraced and once traced, back to back and in
    # alternating order, so that drift in machine speed cancels out of
    # trace.overhead_frac.
    plain, traced, tracer = Loop.of(len(paths)), Loop.of(len(paths)), Tracer()
    for i, path in enumerate(paths):
        for with_trace in (i % 2 == 0, i % 2 == 1):
            if with_trace:
                tracer.instance = i
                with tracer:
                    traced.run(cli, w, i, path, output_path(out_dir, i))
            else:
                plain.run(cli, w, i, path, output_path(out_dir, i))
    problems, outputs_sha = check_outputs(w, docs, plain)
    if traced.outputs != plain.outputs:
        problems.append("traced outputs differ from untraced outputs")
    values = layer_metrics(tracer.spans, tracer.present)
    values["trace.overhead_frac"] = statistics.median(
        t / p for t, p in zip(traced.per_instance(), plain.per_instance())
    ) - 1
    metrics = {name: metric(v, UNITS[name]) for name, v in values.items()}

    spans_file = HERE / ".out" / f"spans-{w.name}-{args.seed}.jsonl"
    spans_file.parent.mkdir(exist_ok=True)
    with open(spans_file, "w") as fh:
        for s in tracer.spans:
            fh.write(json.dumps([s.sid, s.parent, s.layer, s.kind, s.name, s.instance,
                                 s.start_ns, s.end_ns, s.attrs]) + "\n")

    pipeline_s = sum(sum(t) for t in traced.times)
    print(f"workload {w.name}, seed {args.seed}: {len(paths)} instances, traced"
          f" pipelines {pipeline_s:.2f} s, {len(tracer.spans)} spans -> {spans_file}")
    for name, m in metrics.items():
        print(f"  {name:<30} {m['value']:.6g} {m['unit']}")
    for name in sorted(set(UNITS) - set(metrics)):
        print(f"  {name:<30} absent")
    for name in tracer.absent:
        print(f"  binding {name} absent")
    print(f"  instances_sha256 {instances_sha}")
    print(f"  outputs_sha256   {outputs_sha}")
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    return _finish(attempted, failed, plain.problems + traced.problems + problems, metrics)


def _finish(attempted, failed, problems, metrics) -> int:
    for problem in problems[:20]:
        print(f"  problem: {problem}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
