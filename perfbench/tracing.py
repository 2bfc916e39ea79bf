"""Outside-in layer spans for the traced run.

The tracer replaces the module-level names that `gapfair.cli`,
`gapfair.divisible` and `gapfair.indivisible` look up at call time with
timing wrappers, and puts the originals back afterwards; nothing under
`src/` is edited.  The layer map is the package's own module list.  A
binding that is missing (renamed or removed by a later change) is skipped
and its metrics are reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Optional


def tail(samples) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples strictly beyond it.

    Returns (value, percentile, number of samples beyond).  The percentile
    of the r-th smallest of N samples is 100 * r / N.
    """
    xs = sorted(samples)
    i = len(xs) - 11
    if i < 0:
        raise ValueError("the tail needs at least 11 samples")
    while i > 0 and xs[i] == xs[i + 1]:
        i -= 1  # ties at the cut would leave fewer than ten beyond it
    beyond = sum(1 for x in xs if x > xs[i])
    return xs[i], 100.0 * (i + 1) / len(xs), beyond


# -- probes: attributes read from a call's arguments or result --------------


def _lp_size(args, result):
    lp = args[0]
    return {
        "feasible": bool(result.feasible),
        "vars": lp.var_count,
        "rows": len(lp.constraints),
        "nnz": sum(len(c.coeffs) for c in lp.constraints),
    }


def _exact_cells(args, result):
    q = args[0]
    return {"cells": len(q.items) * (q.capacity + 1)}


def _iterations(args, result):
    return {"iterations": result.iterations}


def _swaps(args, result):
    return {"swaps": len(result.swaps)}


def _read_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _written_bytes(args, result):
    return {"bytes": os.path.getsize(args[2])}


@dataclass(frozen=True)
class Binding:
    module: str
    name: str
    layer: str
    kind: str
    probe: Optional[Callable] = None


BINDINGS = (
    Binding("gapfair.cli", "main", "cli", "main"),
    Binding("gapfair.divisible", "feasible", "lp", "feasible", _lp_size),
    Binding("gapfair.divisible", "divisible_fef", "divisible", "solve", _iterations),
    Binding("gapfair.divisible", "verify_fef", "divisible", "verify"),
    Binding("gapfair.divisible", "fef_witness", "divisible", "verify"),
    Binding("gapfair.indivisible", "kns_exact", "knapsack", "exact", _exact_cells),
    Binding("gapfair.indivisible", "apx_kns", "knapsack", "apx"),
    Binding("gapfair.indivisible", "compute_fefx", "indivisible", "solve", _swaps),
    Binding("gapfair.indivisible", "compute_approx_fefx", "indivisible", "solve", _swaps),
    Binding("gapfair.indivisible", "verify_fefx", "indivisible", "verify"),
    Binding("gapfair.indivisible", "verify_approx_fefx", "indivisible", "verify"),
    Binding("gapfair.indivisible", "fefx_witness", "indivisible", "verify"),
    Binding("gapfair.serialize", "load_instance", "serialize", "load", _read_bytes),
    Binding("gapfair.serialize", "load_allocation", "serialize", "load", _read_bytes),
    Binding("gapfair.serialize", "dump_fractional", "serialize", "dump", _written_bytes),
    Binding("gapfair.serialize", "dump_integral", "serialize", "dump", _written_bytes),
)

@dataclass
class Span:
    sid: int
    parent: Optional[int]
    layer: str
    kind: str
    name: str
    instance: int
    start_ns: int
    end_ns: int = 0
    attrs: Optional[dict] = None

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Records one span per wrapped call while installed.

    Use as a context manager, as often as needed; spans accumulate.
    `instance` tags the spans of the pipeline currently running.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.present: list[Binding] = []
        self.absent: list[str] = []
        self.instance = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.present, self.absent = [], []
        for b in BINDINGS:
            try:
                module = importlib.import_module(b.module)
                original = getattr(module, b.name)
            except (ImportError, AttributeError):
                self.absent.append(f"{b.module}.{b.name}")
                continue
            self.present.append(b)
            self._saved.append((module, b.name, original))
            setattr(module, b.name, self._wrap(original, b))
        return self

    def __exit__(self, *exc) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def _wrap(self, fn, b: Binding):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(
                len(spans), stack[-1] if stack else None,
                b.layer, b.kind, b.name, self.instance, 0,
            )
            spans.append(span)
            stack.append(span.sid)
            span.start_ns = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                stack.pop()
            if b.probe is not None:
                try:
                    span.attrs = b.probe(args, result)
                except (AttributeError, TypeError, IndexError, KeyError, OSError):
                    span.attrs = {}  # the metrics fed by this probe become absent
            return result

        return wrapper


# -- analysis ---------------------------------------------------------------


def _merge(spans: list[Span]):
    """Fold each span nested directly in a span of its own layer into it.

    Returns, per span id, the id of the span that owns its time (itself,
    or the same-layer span it was folded into), and the list of unfolded
    ("effective") spans with the effective parent of each.
    """
    owner: list[int] = []
    parent_of: dict[int, Optional[int]] = {}
    for s in spans:
        up = owner[s.parent] if s.parent is not None else None
        if up is not None and spans[up].layer == s.layer:
            owner.append(up)
        else:
            owner.append(s.sid)
            parent_of[s.sid] = up
    return owner, parent_of


def _enclosing(spans, owner, parent_of, sid, layer) -> Optional[Span]:
    """Nearest effective ancestor-or-self of `sid` in `layer`."""
    cur: Optional[int] = owner[sid]
    while cur is not None:
        if spans[cur].layer == layer:
            return spans[cur]
        cur = parent_of[cur]
    return None


def layer_metrics(spans: list[Span], present=BINDINGS) -> dict[str, float]:
    """Per-layer counts, busy and self times from a list of spans.

    A span nested in a span of the same layer counts once: its calls and
    time belong to the outer span.  A layer's busy time sums its outermost
    spans; self time is a span's duration minus that of its effective
    children.  `present` lists the bindings the tracer could install;
    metrics fed only by missing bindings, or by a probe attribute that
    could not be read, are left out of the result.
    """
    owner, parent_of = _merge(spans)
    effective = [spans[sid] for sid in parent_of]
    self_ns = {s.sid: s.duration_ns for s in effective}
    for sid, up in parent_of.items():
        if up is not None:
            self_ns[up] -= spans[sid].duration_ns

    top = [
        s for s in effective
        if parent_of[s.sid] is None
        or _enclosing(spans, owner, parent_of, parent_of[s.sid], s.layer) is None
    ]

    def outermost(layer, kind=None):
        return [s for s in top if s.layer == layer and (kind is None or s.kind == kind)]

    def busy(layer, kind=None):
        return sum(s.duration_ns for s in outermost(layer, kind)) / 1e9

    def self_s(layer, kind=None):
        return sum(
            self_ns[s.sid] for s in effective
            if s.layer == layer and (kind is None or s.kind == kind)
        ) / 1e9

    def attr(selected, key, reduce):
        """`reduce` over the probe attribute; None when any probe missed it."""
        vals = [s.attrs.get(key) if s.attrs else None for s in selected]
        if any(v is None for v in vals):
            return None
        return reduce(vals) if vals else 0

    def mean(vals):
        return sum(vals) / len(vals)

    def p50(selected, scale):
        return statistics.median(s.duration_ns for s in selected) / scale if selected else 0.0

    out: dict[str, Optional[float]] = {}

    lp = outermost("lp")
    out["lp.calls"] = len(lp)
    out["lp.busy_s"] = busy("lp")
    out["lp.call_p50_ms"] = p50(lp, 1e6)
    out["lp.call_tail_ms"] = tail([s.duration_ns for s in lp])[0] / 1e6 if len(lp) > 10 else 0.0
    out["lp.feasible_frac"] = attr(lp, "feasible", mean)
    out["lp.vars_mean"] = attr(lp, "vars", mean)
    out["lp.rows_mean"] = attr(lp, "rows", mean)
    out["lp.nnz_mean"] = attr(lp, "nnz", mean)

    div_solve = outermost("divisible", "solve")
    iterations = attr(div_solve, "iterations", sum)
    out["divisible.solve_busy_s"] = busy("divisible", "solve")
    out["divisible.solve_self_s"] = self_s("divisible", "solve")
    out["divisible.iterations"] = iterations
    out["divisible.lp_per_iter"] = (
        None if iterations is None
        else len(lp) / (iterations + len(div_solve)) if div_solve else 0.0
    )
    out["divisible.verify_busy_s"] = busy("divisible", "verify")

    exact, apx = outermost("knapsack", "exact"), outermost("knapsack", "apx")
    out["knapsack.exact_calls"] = len(exact)
    out["knapsack.exact_busy_s"] = busy("knapsack", "exact")
    out["knapsack.exact_call_p50_us"] = p50(exact, 1e3)
    out["knapsack.exact_cells"] = attr(exact, "cells", sum)
    out["knapsack.apx_calls"] = len(apx)
    out["knapsack.apx_busy_s"] = busy("knapsack", "apx")
    out["knapsack.apx_call_p50_us"] = p50(apx, 1e3)

    swaps = attr(outermost("indivisible", "solve"), "swaps", sum)
    kns_by_kind = {"solve": 0, "verify": 0}
    for s in exact + apx:
        enclosing = _enclosing(spans, owner, parent_of, s.sid, "indivisible")
        if enclosing is not None:
            kns_by_kind[enclosing.kind] += 1
    out["indivisible.solve_busy_s"] = busy("indivisible", "solve")
    out["indivisible.solve_self_s"] = self_s("indivisible", "solve")
    out["indivisible.swaps"] = swaps
    out["indivisible.kns_per_swap"] = (
        None if swaps is None else kns_by_kind["solve"] / swaps if swaps else 0.0
    )
    out["indivisible.verify_busy_s"] = busy("indivisible", "verify")
    out["indivisible.verify_kns_calls"] = kns_by_kind["verify"]

    ser = outermost("serialize")
    out["serialize.calls"] = len(ser)
    out["serialize.busy_s"] = busy("serialize")
    out["serialize.bytes"] = attr([s for s in spans if s.layer == "serialize"], "bytes", sum)

    out["cli.self_s"] = self_s("cli")

    for (layer, kind), names in GROUPS.items():
        if not any(b.layer == layer and b.kind == kind for b in present):
            for name in names:
                out[name] = None
    return {k: v for k, v in out.items() if v is not None}


# Unit of every per-layer metric, in report order.
UNITS = {
    "lp.calls": "count",
    "lp.busy_s": "s",
    "lp.call_p50_ms": "ms",
    "lp.call_tail_ms": "ms",
    "lp.feasible_frac": "fraction",
    "lp.vars_mean": "count",
    "lp.rows_mean": "count",
    "lp.nnz_mean": "count",
    "divisible.solve_busy_s": "s",
    "divisible.solve_self_s": "s",
    "divisible.iterations": "count",
    "divisible.lp_per_iter": "ratio",
    "divisible.verify_busy_s": "s",
    "knapsack.exact_calls": "count",
    "knapsack.exact_busy_s": "s",
    "knapsack.exact_call_p50_us": "us",
    "knapsack.exact_cells": "count",
    "knapsack.apx_calls": "count",
    "knapsack.apx_busy_s": "s",
    "knapsack.apx_call_p50_us": "us",
    "indivisible.solve_busy_s": "s",
    "indivisible.solve_self_s": "s",
    "indivisible.swaps": "count",
    "indivisible.kns_per_swap": "ratio",
    "indivisible.verify_busy_s": "s",
    "indivisible.verify_kns_calls": "count",
    "serialize.calls": "count",
    "serialize.busy_s": "s",
    "serialize.bytes": "bytes",
    "cli.self_s": "s",
    "trace.overhead_frac": "fraction",
}


# The metrics each (layer, kind) group of bindings feeds; when every
# binding of a group is missing, these metrics are absent.
GROUPS = {
    ("lp", "feasible"): [
        "lp.calls", "lp.busy_s", "lp.call_p50_ms", "lp.call_tail_ms",
        "lp.feasible_frac", "lp.vars_mean", "lp.rows_mean", "lp.nnz_mean",
        "divisible.lp_per_iter",
    ],
    ("divisible", "solve"): [
        "divisible.solve_busy_s", "divisible.solve_self_s",
        "divisible.iterations", "divisible.lp_per_iter",
    ],
    ("divisible", "verify"): ["divisible.verify_busy_s"],
    ("knapsack", "exact"): [
        "knapsack.exact_calls", "knapsack.exact_busy_s",
        "knapsack.exact_call_p50_us", "knapsack.exact_cells",
        "indivisible.kns_per_swap", "indivisible.verify_kns_calls",
    ],
    ("knapsack", "apx"): [
        "knapsack.apx_calls", "knapsack.apx_busy_s", "knapsack.apx_call_p50_us",
        "indivisible.kns_per_swap", "indivisible.verify_kns_calls",
    ],
    ("indivisible", "solve"): [
        "indivisible.solve_busy_s", "indivisible.solve_self_s",
        "indivisible.swaps", "indivisible.kns_per_swap",
    ],
    ("indivisible", "verify"): [
        "indivisible.verify_busy_s", "indivisible.verify_kns_calls",
    ],
    ("serialize", "load"): ["serialize.calls", "serialize.busy_s", "serialize.bytes"],
    ("serialize", "dump"): ["serialize.calls", "serialize.busy_s", "serialize.bytes"],
    ("cli", "main"): ["cli.self_s"],
}
