#!/usr/bin/env python3
"""Paired, same-process timing of this checkout against a parent checkout.

    python3 scripts/paired_bench.py PARENT_DIR [--workload W] [--seed S]
        [--count N] [--repeats R] [--imports K]

One long-lived worker process per checkout imports `gapfair` from that
checkout's `src/`.  The instance pool comes from this checkout's
`perfbench/workloads.generate`, and each pipeline is timed by
`perfbench/run.run_pipeline`: solve, then verify, through `gapfair.cli.main`.
Every instance runs R times in both workers, alternating which runs first,
and both must write byte-identical allocation files.  Then each worker
times K fresh imports of `gapfair.cli` (`perfbench/run.import_cli`, as a
benchmark set-up does), alternating; these imports read no cached bytecode,
so every module they load is compiled.

Prints, for the pipelines, the median over instances of the change/parent
ratio of per-instance medians, its IQR and how many instances got faster;
then the same over import rounds.  Exits 1 if any run fails or any output
differs.  Machine drift hits both sides of a pair alike, so the ratio is
much steadier than two separate benchmark runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, generate, instance_bytes, write_pool  # noqa: E402


def serve(src: str) -> int:
    """Worker: answer one JSON request per stdin line, on one stdout line."""
    sys.path.insert(0, src)
    import run  # perfbench/run.py

    cli = run.import_cli()
    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        print(json.dumps({"error": f"gapfair imported from {cli.__file__}"}), flush=True)
        return 2
    with tempfile.TemporaryDirectory() as empty:
        for line in sys.stdin:
            req = json.loads(line)
            if req["op"] == "import":
                # An empty cache prefix: no bytecode is found, so each module compiles.
                saved = sys.dont_write_bytecode, sys.pycache_prefix
                sys.dont_write_bytecode, sys.pycache_prefix = True, empty
                start = time.perf_counter()
                cli = run.import_cli()
                reply = {"s": time.perf_counter() - start, "error": None}
                sys.dont_write_bytecode, sys.pycache_prefix = saved
            else:
                elapsed, problem = run.run_pipeline(
                    cli, WORKLOADS[req["workload"]], Path(req["instance"]), Path(req["output"])
                )
                reply = {"s": elapsed, "error": problem}
            print(json.dumps(reply), flush=True)
    return 0


class Worker:
    def __init__(self, name: str, checkout: Path):
        self.name = name
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--serve", str(checkout / "src")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def call(self, **req) -> float:
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        reply = json.loads(line) if line else {"error": "worker exited"}
        if reply["error"]:
            raise RuntimeError(f"{self.name}: {reply['error']}")
        return reply["s"]

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=30)


def summary(label: str, items: str, parent, change) -> str:
    """Median, IQR and faster count of the per-item ratios of medians."""
    ratios = [statistics.median(c) / statistics.median(p) for p, c in zip(parent, change)]
    q1, mid, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    p_all = statistics.median(t for ts in parent for t in ts)
    c_all = statistics.median(t for ts in change for t in ts)
    return (
        f"{label} change/parent ratio {mid:.3f} (IQR {q3 - q1:.3f}),"
        f" faster on {sum(r < 1 for r in ratios)} of {len(ratios)} {items};"
        f" median {p_all * 1e3:.2f} ms parent, {c_all * 1e3:.2f} ms change"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, metavar="PARENT_DIR")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="fef")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--count", type=int, default=20, help="instances in the pool")
    parser.add_argument("--repeats", type=int, default=5, help="runs per instance")
    parser.add_argument("--imports", type=int, default=21, help="import rounds")
    args = parser.parse_args(argv)
    if not (args.parent / "src" / "gapfair" / "__init__.py").is_file():
        parser.error(f"no gapfair sources under {args.parent / 'src'}")
    if min(args.count, args.repeats, args.imports) < 2:
        parser.error("--count, --repeats and --imports must be at least 2")

    w = WORKLOADS[args.workload]
    workers = [Worker("parent", args.parent), Worker("change", ROOT)]
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_pool(
            [instance_bytes(d) for d in generate(w, args.seed, args.count)],
            Path(tmp) / "instances",
        )
        outs = {}
        for wk in workers:
            (Path(tmp) / wk.name).mkdir()
            outs[wk.name] = [Path(tmp) / wk.name / p.name for p in paths]
        times = {wk.name: [[] for _ in paths] for wk in workers}
        imports = {wk.name: [] for wk in workers}
        try:
            for wk in workers:  # untimed: loads the solver modules
                wk.call(op="run", workload=w.name, instance=str(paths[0]),
                        output=str(outs[wk.name][0]))
            for r in range(args.repeats):
                for i, path in enumerate(paths):
                    for wk in workers[:: 1 if (i + r) % 2 == 0 else -1]:
                        times[wk.name][i].append(
                            wk.call(op="run", workload=w.name, instance=str(path),
                                    output=str(outs[wk.name][i]))
                        )
                    if outs["parent"][i].read_bytes() != outs["change"][i].read_bytes():
                        raise RuntimeError(f"outputs differ on {path.name}")
            for j in range(args.imports):
                for wk in workers[:: 1 if j % 2 == 0 else -1]:
                    imports[wk.name].append([wk.call(op="import")])
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        finally:
            for wk in workers:
                wk.close()

    print(f"workload {w.name}, seed {args.seed}: {len(paths)} instances x {args.repeats}"
          f" runs per side, outputs identical")
    print(summary("pipeline", "instances", times["parent"], times["change"]))
    print(summary("import  ", "rounds", imports["parent"], imports["change"]))
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--serve"]:
        sys.exit(serve(sys.argv[2]))
    sys.exit(main())
