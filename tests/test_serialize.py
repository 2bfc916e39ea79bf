"""File-format tests: exact round-trips, hash checking, diagnostics."""

import builtins
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest

from gapfair import FractionalAllocation, Instance, IntegralAllocation
from gapfair.serialize import (
    InstanceFormatError,
    dump_fractional,
    dump_instance,
    dump_integral,
    frac_from_str,
    frac_to_str,
    instance_hash,
    load_allocation,
    load_instance,
    load_knapsack,
)


def small():
    return Instance(
        n=2,
        m=3,
        values=((4, 2, 1), (1, 1, 6)),
        sizes=((2, 1, 1), (1, 2, 3)),
        budgets=(3, 4),
    )


class TestFractions:
    def test_round_trip_is_exact(self):
        for f in (Fraction(0), Fraction(1, 3), Fraction(-7, 12), Fraction(10**30, 7)):
            assert frac_from_str(frac_to_str(f)) == f

    def test_bad_strings(self):
        for s in ("", "1/0", "a/b", "0.0", " 1/2"):
            with pytest.raises(InstanceFormatError, match="rational"):
                frac_from_str(s)


class TestInstanceFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "inst.json"
        dump_instance(small(), path)
        assert load_instance(path) == small()

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(InstanceFormatError, match="JSON"):
            load_instance(path)

    def test_missing_field_named_in_error(self, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"n": 1, "m": 1, "values": [[1]], "sizes": [[1]]}))
        with pytest.raises(InstanceFormatError, match="budgets"):
            load_instance(path)

    def test_non_integer_entry_named(self, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(
            json.dumps(
                {"n": 1, "m": 1, "values": [[1.5]], "sizes": [[1]], "budgets": [1]}
            )
        )
        with pytest.raises(InstanceFormatError, match="values"):
            load_instance(path)

    def test_semantic_violation_reported(self, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(
            json.dumps(
                {"n": 1, "m": 1, "values": [[-1]], "sizes": [[1]], "budgets": [1]}
            )
        )
        with pytest.raises(InstanceFormatError, match="negative"):
            load_instance(path)


class TestAllocationFiles:
    def test_fractional_round_trip(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        dump_instance(small(), inst_path)
        alloc = FractionalAllocation(
            (
                (Fraction(1, 3), Fraction(1), Fraction(0)),
                (Fraction(2, 3), Fraction(0), Fraction(1, 7)),
            )
        )
        out = tmp_path / "alloc.json"
        dump_fractional(alloc, inst_path, out)
        loaded, inst, ref = load_allocation(out)
        assert loaded == alloc
        assert inst == small()
        assert ref == inst_path

    def test_integral_round_trip_uses_one_based_goods(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        dump_instance(small(), inst_path)
        alloc = IntegralAllocation(3, (frozenset({0, 2}), frozenset()))
        out = tmp_path / "alloc.json"
        dump_integral(alloc, inst_path, out)
        assert json.loads(out.read_text())["bundles"] == [[1, 3], []]
        loaded, _, _ = load_allocation(out)
        assert loaded == alloc

    def test_hash_mismatch_detected(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        dump_instance(small(), inst_path)
        out = tmp_path / "alloc.json"
        dump_integral(IntegralAllocation(3, (frozenset(), frozenset())), inst_path, out)
        dump_instance(  # edit the instance after the allocation was written
            Instance(2, 3, ((9, 2, 1), (1, 1, 6)), small().sizes, (3, 4)), inst_path
        )
        with pytest.raises(InstanceFormatError, match="hash"):
            load_allocation(out)

    def test_missing_instance_file(self, tmp_path):
        out = tmp_path / "alloc.json"
        out.write_text(json.dumps({"instance": "gone.json", "instance_sha256": "x"}))
        with pytest.raises(InstanceFormatError, match="not found"):
            load_allocation(out)

    def test_unknown_type_rejected(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        dump_instance(small(), inst_path)
        out = tmp_path / "alloc.json"
        out.write_text(
            json.dumps(
                {
                    "instance": "inst.json",
                    "instance_sha256": instance_hash(inst_path),
                    "type": "sparse",
                }
            )
        )
        with pytest.raises(InstanceFormatError, match="type"):
            load_allocation(out)

    def test_relative_instance_path_resolved(self, tmp_path, monkeypatch):
        sub = tmp_path / "sub"
        sub.mkdir()
        inst_path = sub / "inst.json"
        dump_instance(small(), inst_path)
        out = sub / "alloc.json"
        monkeypatch.chdir(sub)
        dump_integral(IntegralAllocation(3, (frozenset(), frozenset())), "inst.json", out)
        monkeypatch.chdir(tmp_path)  # resolution is relative to the file
        _, inst, _ = load_allocation(out)
        assert inst == small()

    def test_instance_file_is_read_once(self, tmp_path, monkeypatch):
        """The bytes whose hash is checked are the bytes that are parsed."""
        inst_path = tmp_path / "inst.json"
        dump_instance(small(), inst_path)
        out = tmp_path / "alloc.json"
        dump_integral(IntegralAllocation(3, (frozenset(), frozenset())), inst_path, out)
        reads = []
        real_open = io.open

        def counting_open(file, *args, **kwargs):
            if isinstance(file, (str, Path)) and Path(file) == inst_path:
                reads.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(io, "open", counting_open)
        monkeypatch.setattr(builtins, "open", counting_open)
        _, inst, _ = load_allocation(out)
        assert inst == small()
        assert len(reads) == 1


class TestKnapsackFiles:
    def test_load(self, tmp_path):
        path = tmp_path / "kp.json"
        path.write_text(
            json.dumps({"m": 2, "capacity": 5, "weights": [2, 3], "values": [4, 6]})
        )
        kp = load_knapsack(path)
        assert kp.weights == (2, 3) and kp.values == (4, 6) and kp.capacity == 5

    def test_length_mismatch(self, tmp_path):
        path = tmp_path / "kp.json"
        path.write_text(
            json.dumps({"m": 2, "capacity": 5, "weights": [2], "values": [4, 6]})
        )
        with pytest.raises(InstanceFormatError, match="weights"):
            load_knapsack(path)
