"""The benchmark's tracer must still find what it wraps and what it reads.

`perfbench/tracing.py` wraps package functions by module and name, and
its probes read attributes of their arguments and results.  The tracer
reports a binding it cannot resolve as absent instead of failing, so a
rename would quietly drop metrics; these tests fail instead.
"""

import importlib
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracing import BINDINGS  # noqa: E402

from gapfair import (  # noqa: E402
    KnapsackQuery,
    compute_approx_fefx,
    compute_fefx,
    divisible_fef,
)
from gapfair.cli import gen_random  # noqa: E402
from gapfair.lp import EQ, LinearProgram, feasible  # noqa: E402


@pytest.mark.parametrize("binding", BINDINGS, ids=lambda b: f"{b.module}.{b.name}")
def test_binding_resolves(binding):
    module = importlib.import_module(binding.module)
    assert callable(getattr(module, binding.name))


def test_probed_attributes_exist():
    lp = LinearProgram(2)
    lp.add({0: 1, 1: 1}, EQ, 1)
    assert feasible(lp).feasible is True
    assert lp.var_count == 2
    assert [len(c.coeffs) for c in lp.constraints] == [2]

    q = KnapsackQuery(items=(0, 2), weights=(1, 2), values=(3, 4), capacity=2)
    assert q.items == (0, 2) and q.capacity == 2

    inst = gen_random(1, 2, 3)
    assert isinstance(divisible_fef(inst).iterations, int)
    assert isinstance(compute_fefx(inst).swaps, tuple)
    assert isinstance(compute_approx_fefx(inst, Fraction(1, 4)).swaps, tuple)
