"""Tests of the benchmark harness itself (not of gapfair).

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import hashlib
import importlib
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from checks import canonical, check  # noqa: E402
from run import E2E_UNITS, Loop, check_outputs, closed_loop  # noqa: E402
from tracing import BINDINGS, UNITS, Span, Tracer, layer_metrics, tail  # noqa: E402
from workloads import WORKLOADS, Workload, generate, instance_bytes, write_pool  # noqa: E402

TINY = Workload(
    name="tiny", n=2, m=3, max_value=6, max_size=3, max_budget=5,
    solve=("solve-fefx",), verify=("--mode", "fefx"), eps=Fraction(0), rate=1.0,
    passes=1,
)


def files(w, seed, count):
    return [instance_bytes(doc) for doc in generate(w, seed, count)]


@pytest.fixture
def cli():
    return importlib.import_module("gapfair.cli")


class TestTail:
    def test_ten_samples_beyond_and_percentile_recorded(self):
        value, pct, beyond = tail(range(1, 101))
        assert (value, pct, beyond) == (90, 90.0, 10)

    def test_is_the_highest_such_percentile(self):
        xs = list(range(37))
        value, pct, beyond = tail(xs)
        assert beyond == 10 and sum(x > value + 1 for x in xs) < 10
        assert pct == pytest.approx(100 * 27 / 37)

    def test_ties_at_the_cut_move_it_down(self):
        value, pct, beyond = tail([1] * 5 + [2] * 20)
        assert (value, pct, beyond) == (1, 20.0, 20)

    def test_needs_eleven_samples(self):
        with pytest.raises(ValueError):
            tail(range(10))


def _span(spans, parent, layer, kind, name, start, end, attrs=None):
    spans.append(Span(len(spans), parent, layer, kind, name, 0, start, end, attrs))
    return len(spans) - 1


class TestSelfTime:
    def spans(self):
        s = []
        main = _span(s, None, "cli", "main", "main", 0, 1000)
        load = _span(s, main, "serialize", "load", "load_allocation", 0, 100, {"bytes": 7})
        _span(s, load, "serialize", "load", "load_instance", 20, 60, {"bytes": 5})
        verify = _span(s, main, "indivisible", "verify", "verify_fefx", 100, 900)
        witness = _span(s, verify, "indivisible", "verify", "fefx_witness", 110, 890)
        _span(s, witness, "knapsack", "exact", "kns_exact", 200, 300, {"cells": 4})
        _span(s, witness, "knapsack", "exact", "kns_exact", 400, 700, {"cells": 6})
        solve_main = _span(s, None, "cli", "main", "main", 1000, 2000)
        solve = _span(s, solve_main, "indivisible", "solve", "compute_fefx", 1100, 1900,
                      {"swaps": 2})
        _span(s, solve, "knapsack", "exact", "kns_exact", 1200, 1300, {"cells": 1})
        return s

    def test_same_layer_nesting_counts_once(self):
        m = layer_metrics(self.spans())
        assert m["serialize.calls"] == 1
        assert m["serialize.busy_s"] == pytest.approx(100e-9)
        assert m["serialize.bytes"] == 12
        assert m["indivisible.verify_busy_s"] == pytest.approx(800e-9)
        assert m["indivisible.verify_kns_calls"] == 2

    def test_self_time_subtracts_children_of_other_layers(self):
        m = layer_metrics(self.spans())
        # 2000 ns of pipelines, of which serialize 100, verify 800, solve 800.
        assert m["cli.self_s"] == pytest.approx(300e-9)
        assert m["indivisible.solve_self_s"] == pytest.approx(700e-9)
        assert m["knapsack.exact_busy_s"] == pytest.approx(500e-9)
        assert m["knapsack.exact_calls"] == 3
        assert m["knapsack.exact_cells"] == 11
        assert m["indivisible.kns_per_swap"] == pytest.approx(0.5)

    def test_layers_never_called_read_zero(self):
        m = layer_metrics(self.spans())
        assert m["lp.calls"] == 0 and m["lp.busy_s"] == 0


class TestMissingBinding:
    def test_missing_name_is_absent_not_fatal(self, cli, tmp_path, monkeypatch):
        indivisible = importlib.import_module("gapfair.indivisible")
        monkeypatch.delattr(indivisible, "apx_kns")
        paths = write_pool(files(TINY, 3, 2), tmp_path / "in")
        (tmp_path / "out").mkdir()
        with Tracer() as tracer:
            loop = closed_loop(cli, TINY, paths, tmp_path / "out", 1)
        assert loop.failed == 0
        assert tracer.absent == ["gapfair.indivisible.apx_kns"]
        m = layer_metrics(tracer.spans, tracer.present)
        assert "knapsack.apx_calls" not in m and "indivisible.kns_per_swap" not in m
        assert m["knapsack.exact_calls"] > 0 and m["serialize.calls"] == 6

    def test_unreadable_probe_attribute_is_absent(self):
        s = []
        _span(s, None, "lp", "feasible", "feasible", 0, 10, {})
        m = layer_metrics(s)
        assert m["lp.calls"] == 1 and "lp.vars_mean" not in m

    def test_originals_restored(self, cli):
        names = {(b.module, b.name): getattr(importlib.import_module(b.module), b.name)
                 for b in BINDINGS}
        with Tracer():
            assert cli.main is not names[("gapfair.cli", "main")]
        for (module, name), fn in names.items():
            assert getattr(importlib.import_module(module), name) is fn


class TestGenerator:
    def test_same_seed_same_bytes(self, tmp_path):
        w = WORKLOADS["fefx-wide-budget"]
        a = write_pool(files(w, 11, 4), tmp_path / "a")
        b = write_pool(files(w, 11, 4), tmp_path / "b")
        assert [p.read_bytes() for p in a] == [p.read_bytes() for p in b]
        assert generate(w, 12, 4) != generate(w, 11, 4)

    def test_pinned_distribution(self):
        # Changes whenever the benchmark's inputs change.
        digest = hashlib.sha256(b"".join(files(WORKLOADS["fef"], 1, 3))).hexdigest()
        assert digest == PINNED_FEF_SEED_1

    def test_bounds_and_loadable(self, tmp_path):
        serialize = importlib.import_module("gapfair.serialize")
        w = WORKLOADS["apx-fefx-wide-value"]
        for path in write_pool(files(w, 5, 3), tmp_path):
            inst = serialize.load_instance(path)
            assert (inst.n, inst.m) == (w.n, w.m)
            assert all(0 <= v <= w.max_value for row in inst.values for v in row)
            assert all(1 <= s <= w.max_size for row in inst.sizes for s in row)
            assert all(1 <= b <= w.max_budget for b in inst.budgets)


PINNED_FEF_SEED_1 = "a50a11606761e765d57ba5aa12efbdda6d2aae4d8aa0d51a50ef172149c06de3"


class TestFailures:
    def run_tiny(self, cli, tmp_path, passes=1):
        paths = write_pool(files(TINY, 4, 3), tmp_path / "in")
        (tmp_path / "out").mkdir()
        return closed_loop(cli, TINY, paths, tmp_path / "out", passes)

    def test_verify_fail_is_counted(self, cli, tmp_path, monkeypatch):
        def failing_verify(args):
            print("FAIL: simulated")
            return cli.EXIT_FAIL

        monkeypatch.setitem(cli._COMMANDS, "verify", failing_verify)
        loop = self.run_tiny(cli, tmp_path)
        assert (loop.attempted, loop.failed) == (3, 3)
        assert loop.failed / loop.attempted == 1  # the printed failed_frac
        assert all("verify exited 1" in p for p in loop.problems)

    def test_missing_pass_line_is_counted(self, cli, tmp_path, monkeypatch):
        monkeypatch.setitem(cli._COMMANDS, "verify", lambda args: cli.EXIT_OK)
        loop = self.run_tiny(cli, tmp_path)
        assert loop.failed == 3 and "did not print PASS" in loop.problems[0]

    def test_raising_call_is_counted(self, cli, tmp_path, monkeypatch):
        def boom(args):
            raise RuntimeError("simulated")

        monkeypatch.setitem(cli._COMMANDS, "solve-fefx", boom)
        loop = self.run_tiny(cli, tmp_path)
        assert loop.failed == 3 and "raised" in loop.problems[0]

    def test_passing_pipeline(self, cli, tmp_path):
        loop = self.run_tiny(cli, tmp_path, passes=2)
        assert (loop.attempted, loop.failed) == (6, 0)
        assert all(out is not None for out in loop.outputs)
        assert loop.per_instance() == [min(t) for t in loop.times]

    def test_output_changing_between_passes_is_counted(self, cli, tmp_path, monkeypatch):
        solve, calls = cli._COMMANDS["solve-fefx"], []

        def drifting_solve(args):
            code = solve(args)
            calls.append(args)
            if len(calls) > 3:
                args.output.write_text(args.output.read_text() + "\n")
            return code

        monkeypatch.setitem(cli._COMMANDS, "solve-fefx", drifting_solve)
        loop = self.run_tiny(cli, tmp_path, passes=2)
        assert (loop.attempted, loop.failed) == (6, 3)
        assert "differs from the first pass" in loop.problems[0]


class TestChecks:
    INST = {"n": 2, "m": 2, "budgets": [2, 2], "values": [[5, 5], [5, 5]],
            "sizes": [[1, 1], [1, 1]]}

    def test_integral(self):
        good = {"type": "integral", "bundles": [[1], [2]], "charity": []}
        bad = {"type": "integral", "bundles": [[1, 2], []], "charity": []}
        assert check(self.INST, good, Fraction(0)) is None
        assert "envies" in check(self.INST, bad, Fraction(0))
        assert check(self.INST, bad, Fraction(1, 2)) is not None

    def test_fractional(self):
        good = {"type": "fractional", "x": [["1/2", "1/2"], ["1/2", "1/2"]],
                "charity": ["0/1", "0/1"]}
        bad = {"type": "fractional", "x": [["1", "1"], ["0", "0"]], "charity": ["0", "0"]}
        assert check(self.INST, good, None) is None
        assert "envies" in check(self.INST, bad, None)

    def test_malformed(self):
        assert "malformed" in check(self.INST, {"type": "integral"}, Fraction(0))


def test_output_digest_ignores_instance_path():
    a = {"instance": "/x/i.json", "instance_sha256": "0", "type": "integral", "bundles": []}
    b = dict(a, instance="/y/i.json")
    assert canonical(a) == canonical(b)
    assert json.loads(canonical(a)) == {"type": "integral", "bundles": []}


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == UNITS
    spans = TestSelfTime().spans()
    _span(spans, None, "lp", "feasible", "feasible", 0, 1,
          {"feasible": True, "vars": 1, "rows": 1, "nnz": 1})
    _span(spans, None, "divisible", "solve", "divisible_fef", 0, 1, {"iterations": 0})
    assert set(layer_metrics(spans)) == set(UNITS) - {"trace.overhead_frac"}


def test_unparsable_output_is_a_problem():
    loop = Loop.of(1)
    loop.outputs[0] = b"not json"
    problems, _ = check_outputs(TINY, [TestChecks.INST], loop)
    assert problems == ["instance 0: allocation file is not a JSON object"]
