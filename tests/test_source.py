"""Static checks on the package source that no installed linter makes."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "phyloag"


def unused_imports(source):
    """Names a module imports and never reads, as (line, name) pairs.

    A name listed in __all__ is read, and so is one whose import line
    carries `# noqa: F401`; `from __future__` imports are not names.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom)
                and node.module != "__future__"):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = alias.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import numpy as np\n"
              "from .a import b, c  # noqa: F401\n"
              "from .d import (e,\n"
              "                f)\n"
              "__all__ = ['e']\n"
              "print(np.zeros(1))\n")
    assert unused_imports(source) == [(2, "os"), (6, "f")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text()) == []


def unread_private_names(sources):
    """Private top-level names that no source reads, as (module, line, name)
    triples: functions, classes and constants named `_x` at module level,
    and `_x` methods of module-level classes.  `sources` maps module names
    to their text; a name is read where it is loaded, as a bare name or an
    attribute, or imported by name.
    """
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            names = [(t.lineno, t.id) for t in getattr(node, "targets", [])
                     if isinstance(t, ast.Name)]
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.append((node.lineno, node.name))
            if isinstance(node, ast.ClassDef):
                names += [(d.lineno, d.name) for d in node.body
                          if isinstance(d, ast.FunctionDef)]
            defined += [(module, line, name) for line, name in names
                        if name.startswith("_") and not name.endswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and \
                    isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(d for d in defined if d[2] not in read)


def test_the_check_finds_an_unread_private_name():
    sources = {"a": ("_USED = 1\n"
                     "_UNUSED = 2\n"
                     "def _helper(): return _USED\n"
                     "def _orphan(): pass\n"
                     "class _Hidden:\n"
                     "    _FIELD = 3\n"
                     "    def __init__(self): self._go()\n"
                     "    def _go(self): pass\n"
                     "    def _stop(self): pass\n"
                     "class Shown: pass\n"),
               "b": "from .a import _Hidden\nprint(_helper())\n"}
    assert unread_private_names(sources) == [
        ("a", 2, "_UNUSED"), ("a", 4, "_orphan"), ("a", 9, "_stop")]


def test_no_private_name_goes_unread():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_names(sources) == []


_ONE_FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_a_failing_property_reports_and_the_session_goes_on(tmp_path):
    # under this repository's warning filters (-c), a warning raised while
    # hypothesis reports the example must not end the session with an
    # INTERNALERROR (exit 3), which hides the example and runs no more tests
    test_file = tmp_path / "test_property.py"
    test_file.write_text(_ONE_FAILING_PROPERTY)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), str(test_file)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert out.returncode == 1, out.stdout + out.stderr
    assert "Falsifying example: test_fails(" in out.stdout
    assert "1 failed, 1 passed" in out.stdout
