"""The soundness checks must survive `python -O`, so no module under
src/gapfair and no script under scripts/ may rely on a bare `assert`."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "gapfair").glob("*.py")) + sorted(
    (ROOT / "scripts").glob("*.py")
)


def test_sources_found():
    names = {p.name for p in SOURCES}
    assert {"divisible.py", "run_random_suite.py"} <= names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: bare assert on lines {lines}"
