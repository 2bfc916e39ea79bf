"""The package's soundness checks must survive `python -O`, so no module
under src/gapfair may rely on a bare `assert`."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "gapfair").glob("*.py"))


def test_sources_found():
    assert any(p.name == "divisible.py" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: bare assert on lines {lines}"
