"""Fuzz of the allocation-file contract: `verify` reads a valid file with
one field mutated without a traceback, exits 0 to 3, and exits 2 on a
malformed file, naming the field at fault or the file.

Sizes stay at n, m <= 4, and the hypothesis profile is derandomized, so
tier-1 runs the same examples every time.
"""

import contextlib
import io
import json
import re
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import instances
from gapfair import (
    FractionalAllocation,
    IntegralAllocation,
    compute_fefx,
    divisible_fef,
    serialize,
)
from gapfair.cli import EXIT_BAD_INPUT, EXIT_OK, gen_random, main

# Written into the file in place of its marker: an integer literal past
# Python's default int->str digit limit, which json.dumps cannot emit.
HUGE_MARKER = "<huge integer literal>"
HUGE_LITERAL = "9" * 5000

# Values no allocation-file field accepts, by kind: bools, floats and null;
# nested lists; ints outside every 1-based range (m <= 4) or past the digit
# limit; malformed "p/q" strings; "p/q" strings past the digit limit; a
# wrong type, an existing file that is not the instance, and a wrong hash.
JUNK_KINDS = [
    [True, False, None, 0.5, 1.0],
    [[[1]], [[[]]], {}],
    [0, -1, 5, 2**70, HUGE_MARKER],
    ["", "1/0", "1/2/3", "a/b", " 1/2", "0.5", "1e-1", "+1/2", "1/-2"],
    ["1/" + "9" * 5000, "9" * 5000 + "/1"],
    ["integral", "fractional", "alloc.json", "0" * 64],
]
JUNK_VALUES = [junk for kind in JUNK_KINDS for junk in kind]
JUNK = [
    *map(st.sampled_from, JUNK_KINDS),
    st.text(max_size=6).filter(lambda s: not re.fullmatch(r"-?[0-9]+/[0-9]+", s)),
]


@st.composite
def allocations(draw):
    """An instance and an allocation within every budget, so that its file
    verifies to PASS or FAIL."""
    instance = draw(instances(max_agents=4, max_goods=4))
    n, m = instance.n, instance.m
    if draw(st.booleans()):
        bundles = [set() for _ in range(n)]
        for g in range(m):
            a = draw(st.integers(-1, n - 1))  # -1: the charity
            spent = sum(instance.size(a, h) for h in bundles[a])
            if a >= 0 and spent + instance.size(a, g) <= instance.budgets[a]:
                bundles[a].add(g)
        return instance, IntegralAllocation(m, tuple(bundles))
    columns = []
    for _ in range(m):
        parts = [draw(st.integers(0, 3)) for _ in range(n)]
        den = sum(parts) + draw(st.integers(0, 2)) or 1
        columns.append([Fraction(p, den) for p in parts])
    rows = []
    for a, row in enumerate(zip(*columns)):
        spent = sum(x * instance.size(a, g) for g, x in enumerate(row))
        scale = min(1, Fraction(instance.budgets[a]) / spent) if spent else 1
        rows.append(tuple(x * scale for x in row))
    return instance, FractionalAllocation(tuple(rows))


def sites(doc):
    """Every place a value can go: each field, each list entry at any depth
    below it, and the end of each list."""

    def below(value, path):
        yield path
        if isinstance(value, list):
            for i, entry in enumerate(value):
                yield from below(entry, path + (i,))
            yield path + (len(value),)

    for field in sorted(doc):
        yield from below(doc[field], (field,))


def put(doc, path, value):
    """A copy of `doc` with `value` at `path` (appended at a list's end)."""
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, list) and path[-1] == len(parent):
        parent.append(value)
    else:
        parent[path[-1]] = value
    return doc


def verify(path, text, mode):
    """Exit code and stderr of `verify --mode mode` on `text` written to
    `path`, under Python's default int->str digit limit."""
    path.write_text(text.replace(json.dumps(HUGE_MARKER), HUGE_LITERAL))
    err = io.StringIO()
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["verify", str(path), "--mode", mode])
    finally:
        sys.set_int_max_str_digits(limit)
    assert code in {0, 1, 2, 3}
    return code, err.getvalue()


def check_mutation(path, valid, mode, site, junk):
    """With `junk` at `site` of the valid file text `valid`, `verify`
    exits 2 naming the field at fault, or a file: the allocation file when
    its JSON cannot be read (the huge literal), the referenced one when its
    path cannot be (a name too long).  A swapped `type` names the list
    field it lacks."""
    mutated = json.dumps(put(json.loads(valid), site, junk))
    code, err = verify(path, mutated, mode)
    if mutated == valid:  # the junk equals what it replaced
        return
    assert code == EXIT_BAD_INPUT, err[:300]
    field = site[0]
    named = "field '" if field == "type" else f"field '{field}'"
    if field in ("instance", "instance_sha256"):
        named = "instance"
    assert named in err or str(path.parent) in err, err[:300]


def write_files(directory, instance, allocation):
    """Instance and allocation files in `directory`: the allocation file's
    path and its text, re-dumped as one JSON line."""
    inst_path, path = Path(directory, "instance.json"), Path(directory, "alloc.json")
    serialize.dump_instance(instance, inst_path)
    if isinstance(allocation, FractionalAllocation):
        serialize.dump_fractional(allocation, inst_path, path)
    else:
        serialize.dump_integral(allocation, inst_path, path)
    return path, json.dumps(json.loads(path.read_text()))


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(allocations(), st.data())
def test_mutated_allocation_file(case, data):
    """One site per example, given a value of each junk kind in turn."""
    instance, allocation = case
    mode = "fef" if isinstance(allocation, FractionalAllocation) else "fefx"
    with tempfile.TemporaryDirectory() as tmp:
        path, valid = write_files(tmp, instance, allocation)
        assert verify(path, valid, mode)[0] in {0, 1}
        doc = json.loads(valid)
        field = data.draw(st.sampled_from(sorted(doc)), label="field")
        site = data.draw(
            st.sampled_from([s for s in sites(doc) if s[0] == field]), label="site"
        )
        for kind in JUNK:
            check_mutation(path, valid, mode, site, data.draw(kind))


@pytest.mark.parametrize("mode", ["fef", "fefx"])
def test_every_junk_value_at_every_site(tmp_path, mode):
    """The sweep hypothesis samples, run in full on one solved file."""
    instance = gen_random(1, 2, 3)
    solve = divisible_fef if mode == "fef" else compute_fefx
    path, valid = write_files(tmp_path, instance, solve(instance).allocation)
    assert verify(path, valid, mode)[0] == EXIT_OK
    for site in sites(json.loads(valid)):
        for junk in JUNK_VALUES:
            check_mutation(path, valid, mode, site, junk)
