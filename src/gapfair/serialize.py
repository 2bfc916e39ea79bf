"""Instance / allocation / knapsack file formats (JSON).

Instances hold only integers; rationals in allocation files are "p/q"
strings so round-trips are bit-exact.  Good indices in files are 1-based.
Allocation files reference the instance file they were solved from, by a
path relative to the allocation file's directory, plus a content hash,
so verification cannot silently run against the wrong instance.  Their
"charity" field must equal what the bundles (or x) leave unassigned.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from fractions import Fraction
from pathlib import Path
from typing import Any

from .instance import FractionalAllocation, Instance, IntegralAllocation


class InstanceFormatError(ValueError):
    """Malformed input file; the message names the offending field."""


def frac_to_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def frac_from_str(s: str) -> Fraction:
    """Inverse of frac_to_str: only "p/q" with an optional '-' is read."""
    if not isinstance(s, str) or not re.fullmatch(r"-?[0-9]+/[0-9]*[1-9][0-9]*", s):
        raise InstanceFormatError(f"bad rational {s!r}, expected a \"p/q\" string")
    return Fraction(s)


def _load_json(path: Path) -> Any:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"{path}: invalid JSON at line {exc.lineno}") from exc
    except UnicodeDecodeError as exc:
        raise InstanceFormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    except RecursionError as exc:
        raise InstanceFormatError(f"{path}: JSON nested too deeply") from exc
    except ValueError as exc:  # e.g. an integer literal past Python's digit limit
        raise InstanceFormatError(f"{path}: {exc}") from exc


def _int_list(doc: Any, field: str, length: int) -> list[int]:
    raw = doc.get(field)
    if not isinstance(raw, list) or len(raw) != length:
        raise InstanceFormatError(f"field {field!r}: expected {length} integers")
    for v in raw:
        if type(v) is not int:
            raise InstanceFormatError(f"field {field!r}: non-integer entry {v!r}")
    return raw


def _int_matrix(doc: Any, field: str, rows: int, cols: int) -> list[list[int]]:
    raw = doc.get(field)
    if not isinstance(raw, list) or len(raw) != rows:
        raise InstanceFormatError(f"field {field!r}: expected {rows} rows")
    out = []
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != cols:
            raise InstanceFormatError(
                f"field {field!r} row {i + 1}: expected {cols} integers"
            )
        for v in row:
            if type(v) is not int:
                raise InstanceFormatError(
                    f"field {field!r} row {i + 1}: non-integer entry {v!r}"
                )
        out.append(row)
    return out


def load_instance(path: str | Path) -> Instance:
    path = Path(path)
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise InstanceFormatError(f"{path}: expected a JSON object")
    for field in ("n", "m"):
        if type(doc.get(field)) is not int or doc[field] < 1:
            raise InstanceFormatError(f"field {field!r}: expected a positive integer")
    n, m = doc["n"], doc["m"]
    try:
        return Instance(
            n=n,
            m=m,
            values=tuple(map(tuple, _int_matrix(doc, "values", n, m))),
            sizes=tuple(map(tuple, _int_matrix(doc, "sizes", n, m))),
            budgets=tuple(_int_list(doc, "budgets", n)),
        )
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from exc


def instance_json(instance: Instance) -> str:
    doc = {
        "n": instance.n,
        "m": instance.m,
        "budgets": list(instance.budgets),
        "values": [list(row) for row in instance.values],
        "sizes": [list(row) for row in instance.sizes],
    }
    return json.dumps(doc, indent=2) + "\n"


def dump_instance(instance: Instance, path: str | Path) -> None:
    Path(path).write_text(instance_json(instance))


def instance_hash(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _allocation_header(instance_path: str | Path, path: str | Path) -> dict[str, str]:
    # load_allocation resolves the path against the allocation file's directory.
    return {
        "instance": os.path.relpath(instance_path, Path(path).parent),
        "instance_sha256": instance_hash(instance_path),
    }


def dump_fractional(
    allocation: FractionalAllocation, instance_path: str | Path, path: str | Path
) -> None:
    doc = _allocation_header(instance_path, path)
    doc["type"] = "fractional"
    doc["x"] = [[frac_to_str(v) for v in row] for row in allocation.x]
    doc["charity"] = [frac_to_str(v) for v in allocation.charity]
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def dump_integral(
    allocation: IntegralAllocation, instance_path: str | Path, path: str | Path
) -> None:
    doc = _allocation_header(instance_path, path)
    doc["type"] = "integral"
    doc["bundles"] = [sorted(g + 1 for g in bundle) for bundle in allocation.bundles]
    doc["charity"] = sorted(g + 1 for g in allocation.charity)
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def _check_charity(doc: Any, expected: list, read) -> None:
    """The file's charity must list `expected` in order, each entry as
    `read` parses it (entries `read` rejects never match)."""
    raw = doc.get("charity")
    try:
        ok = isinstance(raw, list) and [read(v) for v in raw] == expected
    except InstanceFormatError:
        ok = False
    if not ok:
        raise InstanceFormatError(
            "field 'charity': does not equal what the allocation leaves unassigned"
        )


def load_allocation(
    path: str | Path,
) -> tuple[FractionalAllocation | IntegralAllocation, Instance, Path]:
    """Load an allocation plus the instance it references (hash-checked)."""
    path = Path(path)
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise InstanceFormatError(f"{path}: expected a JSON object")
    if not isinstance(doc.get("instance"), str):
        raise InstanceFormatError("field 'instance': expected a path string")
    instance_path = Path(doc["instance"])
    if not instance_path.is_absolute():
        instance_path = path.parent / instance_path
    if not instance_path.is_file():
        raise InstanceFormatError(f"referenced instance {instance_path} not found")
    if instance_hash(instance_path) != doc.get("instance_sha256"):
        raise InstanceFormatError(
            f"instance {instance_path} does not match the recorded hash"
        )
    instance = load_instance(instance_path)
    kind = doc.get("type")
    if kind == "fractional":
        raw = doc.get("x")
        if not isinstance(raw, list) or len(raw) != instance.n:
            raise InstanceFormatError("field 'x': expected one row per agent")
        rows = []
        for row in raw:
            if not isinstance(row, list) or len(row) != instance.m:
                raise InstanceFormatError("field 'x': ragged row")
            try:
                rows.append(tuple(frac_from_str(v) for v in row))
            except InstanceFormatError as exc:
                raise InstanceFormatError(f"field 'x': {exc}") from exc
            for v in rows[-1]:
                if not 0 <= v <= 1:
                    raise InstanceFormatError(
                        f"field 'x': entry {frac_to_str(v)} outside [0,1]"
                    )
        for g in range(instance.m):
            if sum(row[g] for row in rows) > 1:
                raise InstanceFormatError(f"field 'x': good {g + 1} over-assigned")
        allocation: FractionalAllocation | IntegralAllocation = (
            FractionalAllocation(tuple(rows))
        )
        _check_charity(doc, list(allocation.charity), frac_from_str)
    elif kind == "integral":
        raw = doc.get("bundles")
        if not isinstance(raw, list) or len(raw) != instance.n:
            raise InstanceFormatError("field 'bundles': expected one per agent")
        seen: set[int] = set()
        for bundle in raw:
            if not isinstance(bundle, list) or not all(
                type(g) is int and 1 <= g <= instance.m for g in bundle
            ):
                raise InstanceFormatError(
                    f"field 'bundles': expected indices 1..{instance.m}, got {bundle!r}"
                )
            for g in bundle:
                if g in seen:
                    raise InstanceFormatError(f"field 'bundles': good {g} listed twice")
                seen.add(g)
        allocation = IntegralAllocation(
            instance.m, tuple(frozenset(g - 1 for g in bundle) for bundle in raw)
        )
        _check_charity(
            doc,
            sorted(g + 1 for g in allocation.charity),
            lambda g: g if type(g) is int else None,
        )
    else:
        raise InstanceFormatError(f"field 'type': expected fractional/integral, got {kind!r}")
    return allocation, instance, instance_path


def load_knapsack(path: str | Path):
    """The knapsack in a knapsack file, as a `KnapsackQuery` over the
    items 0..m-1."""
    from .knapsack import KnapsackQuery

    path = Path(path)
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise InstanceFormatError(f"{path}: expected a JSON object")
    if type(doc.get("m")) is not int or doc["m"] < 1:
        raise InstanceFormatError("field 'm': expected a positive integer")
    if type(doc.get("capacity")) is not int:
        raise InstanceFormatError("field 'capacity': expected an integer")
    m = doc["m"]
    try:
        return KnapsackQuery(
            items=tuple(range(m)),
            weights=tuple(_int_list(doc, "weights", m)),
            values=tuple(_int_list(doc, "values", m)),
            capacity=doc["capacity"],
        )
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from exc
