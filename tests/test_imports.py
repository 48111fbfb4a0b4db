"""No orphaned imports or private helpers in the package or its tests,
checked with the standard library's ast, so no linter needs to be installed.
Every name a module-level import binds in src/heavywalk/*.py, tests/*.py and
both conftest.py files is read somewhere in its module, unless the import's
statement carries `# noqa: F401` (a name kept for a caller outside the
module); the package's `__init__.py`, which imports to re-export, and
`from __future__` imports are skipped.  Every module-level private name
(leading underscore) that src/heavywalk/*.py defines is read somewhere in
those files or the tests.  Every module-level function, class and constant
of src/heavywalk/*.py is read in the package (its `__init__.py` re-exports
included) or in perfbench/*.py: what only the tests read, such as a sampling
oracle, lives under tests/.  No module of the package names np.random, so the
library draws every random number from its counter streams.  Every parameter
of a function or lambda in src/heavywalk/*.py is read in its body, unless its
name starts with an underscore.  Every exception class of errors.py but the
base HeavywalkError is raised somewhere in the package."""

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


def read_names(sources: list[str]) -> set[str]:
    """The names the sources read: as a name, an attribute, an imported name, or
    a string equal to it (monkeypatch.setattr's and perfbench's wrap-target form)."""
    read = set()
    for source in sources:
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
            elif isinstance(n, ast.alias):
                read.add(n.name)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                read.add(n.value)
    return read


def unread_definitions(modules: dict[str, str], readers: list[str],
                       private_only: bool) -> list[str]:
    """The module-level functions, classes and constants (only those with one
    leading underscore if private_only; never dunders) that the sources in
    modules (name -> source) define and that no source among them or in
    readers reads."""
    read = read_names([*modules.values(), *readers])
    unread = []
    for module, source in modules.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            unread += [f"{module} line {node.lineno}: {name}" for name in names
                       if not name.startswith("__") and name not in read
                       and (name.startswith("_") or not private_only)]
    return unread


def test_the_check_finds_an_orphaned_private_name():
    src = ("_A, _B = 1, 2\n_C: int = 3\n__version__ = '0'\ndef _f():\n    return _A\n"
           "class _K:\n    pass\ndef _g():\n    pass\nD = 4\n")
    readers = ["from m import _g\n", "import m\nm._C = 4\n", "setattr(m, '_f', None)\n"]
    assert unread_definitions({"m": src}, readers, private_only=True) \
        == ["m line 1: _B", "m line 6: _K"]


def test_no_orphaned_private_names():
    modules = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unread_definitions(modules, [p.read_text() for p in CHECKED
                                        if p.parent != PACKAGE], private_only=True) == []


def test_the_check_finds_a_name_only_tests_read():
    # the library's own modules and perfbench are the readers; a test is not
    src = "A = 1\n_B = A\ndef f():\n    return _B\ndef g():\n    pass\nclass K:\n    pass\n"
    readers = ["from m import K\n", "wrap('m', 'g')\n"]
    assert unread_definitions({"m": src}, readers, private_only=False) == ["m line 3: f"]


def test_library_names_are_read_by_the_library_or_perfbench():
    # a name only the tests read is test code: it lives under tests/
    modules = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    init = modules.pop("__init__.py")
    readers = [init, *(p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py")))]
    assert unread_definitions(modules, readers, private_only=False) == []


def numpy_random_uses(source: str) -> list[str]:
    """The lines of source that name numpy's generator module, np.random."""
    uses = []
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Attribute) and n.attr == "random" \
                and isinstance(n.value, ast.Name) and n.value.id in ("np", "numpy"):
            uses.append(n.lineno)
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            names = [n.module or ""] if isinstance(n, ast.ImportFrom) else []
            names += [a.name if isinstance(n, ast.Import) else f"{n.module}.{a.name}"
                      for a in n.names]
            uses += [n.lineno for name in names if name.startswith("numpy.random")]
    return [f"line {line}" for line in sorted(set(uses))]


def test_the_check_finds_numpy_random():
    src = ("import numpy as np\nimport numpy.random\nfrom numpy import random\n"
           "from numpy.random import default_rng\nx = np.random.default_rng(0)\n"
           "y = np.float64(1.0)\n")
    assert numpy_random_uses(src) == ["line 2", "line 3", "line 4", "line 5"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_library_draws_from_the_counter_streams_only(path):
    assert numpy_random_uses(path.read_text()) == []


def unread_parameters(source: str) -> list[str]:
    """The parameters of each function or lambda in source that its body never
    reads; a name with a leading underscore marks one a fixed signature requires."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for part in body for n in ast.walk(part)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [f"line {node.lineno}: {getattr(node, 'name', 'lambda')}({p.arg})"
                   for p in params if not p.arg.startswith("_") and p.arg not in read]
    return unread


def test_the_check_finds_an_unread_parameter():
    src = ("def f(a, b, _c, *args, d=1, **kw):\n    b = 2\n    return a + d + len(kw)\n"
           "def g(x):\n    return lambda y, z: (x, y)\n"
           "class K:\n    def m(self, *, q):\n        def inner():\n            return q\n"
           "        return inner\n")
    assert unread_parameters(src) == ["line 1: f(b)", "line 1: f(args)", "line 7: m(self)",
                                      "line 5: lambda(z)"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unread_parameters(path):
    assert unread_parameters(path.read_text()) == []


def unraised_errors(errors_source: str, sources: list[str]) -> list[str]:
    """The exception classes errors_source defines, the base HeavywalkError
    aside, that no raise statement in sources names, called or bare."""
    raised = set()
    for source in sources:
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.Raise) and n.exc is not None:
                exc = n.exc.func if isinstance(n.exc, ast.Call) else n.exc
                raised.add(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
    return [n.name for n in ast.parse(errors_source).body if isinstance(n, ast.ClassDef)
            and n.name != "HeavywalkError" and n.name not in raised]


def test_the_check_finds_an_unraised_error():
    src = ("class HeavywalkError(Exception):\n    pass\nclass A(HeavywalkError):\n    pass\n"
           "class B(HeavywalkError):\n    pass\nclass C(B):\n    pass\n"
           "class D(HeavywalkError):\n    pass\n")
    sources = ["raise A('x')\n", "from m import errors\ndef f():\n    raise errors.B\n",
               "try:\n    pass\nexcept D:\n    raise\n"]
    assert unraised_errors(src, sources) == ["C", "D"]


def test_every_error_class_is_raised():
    assert unraised_errors((PACKAGE / "errors.py").read_text(),
                           [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]) == []
