"""No orphaned imports in the package or its tests, checked with the
standard library's ast, so no linter needs to be installed: every name a
module-level import binds in src/heavywalk/*.py, tests/*.py and both
conftest.py files is read somewhere in its module, unless the import's
statement carries `# noqa: F401` (a name kept for a caller outside the
module).  The package's `__init__.py`, which imports to re-export, and
`from __future__` imports are skipped."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
PACKAGE = ROOT / "src" / "heavywalk"
CHECKED = sorted([p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
                 + list(TESTS.glob("*.py")) + [ROOT / "conftest.py"])


def unused_imports(source: str) -> list[str]:
    """The names bound by module-level imports of source and never read."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            # `import a.b` binds a
            bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def test_the_check_finds_an_unused_import():
    src = ("from __future__ import annotations\nimport os, os.path\nimport numpy as np\n"
           "from math import pi, tau as t\nfrom sys import argv  # noqa: F401\n"
           "def f():\n    return np.pi + t\n")
    assert unused_imports(src) == ["line 2: os", "line 4: pi"]


@pytest.mark.parametrize("path", CHECKED, ids=lambda p: p.name if p.parent == PACKAGE
                         else str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
