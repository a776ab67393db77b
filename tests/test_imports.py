"""Source hygiene: each caslite module uses every name it imports."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import caslite

PACKAGE = Path(caslite.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _names_read_from_modules() -> set:
    """Every name the package reads out of one of its modules: the names of
    ``from ... import name`` and of ``module.name`` attributes."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def unused_imports(tree: ast.Module, read_elsewhere: set) -> list:
    """Names ``tree`` imports and never reads. A module-level assignment to
    names read nowhere, such as a logger no code logs to, reads nothing."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names)
    reads = [n for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)]
    read = {n.id for n in reads}
    dead = [node.value for node in tree.body if isinstance(node, ast.Assign) and all(
        isinstance(t, ast.Name) and t.id not in read | read_elsewhere for t in node.targets)]
    skipped = {id(n) for value in dead for n in ast.walk(value)}
    read = {n.id for n in reads if id(n) not in skipped}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert unused_imports(tree, _names_read_from_modules()) == []


def test_the_check_sees_an_unused_import_and_a_stranded_logger():
    source = ("import logging\nimport os\nimport sys\nfrom .x import a, b\n"
              "logger = logging.getLogger(__name__)\nUSED = a\n\n"
              "def f():\n    return sys.argv\n")
    assert unused_imports(ast.parse(source), {"USED"}) == \
        ["b (line 4)", "logging (line 1)", "os (line 2)"]
