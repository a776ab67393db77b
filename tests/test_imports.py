"""Source hygiene: each caslite module uses every name it imports, the
package reads every private module-level name it defines, and every encode
that skips the type walk is one that ``canonical_json`` documents."""

from __future__ import annotations

import ast
import inspect
import re
from collections import Counter
from pathlib import Path

import pytest

import caslite
from caslite.canonical import canonical_json

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


def _reads(node: ast.AST) -> Counter:
    """How often each name is read in ``node``: as a variable, an attribute
    or a ``from ... import`` name."""
    counts = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            counts[n.id] += 1
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            counts[n.attr] += 1
        elif isinstance(n, ast.ImportFrom):
            counts.update(alias.name for alias in n.names)
    return counts


def stranded_private_names(trees: dict) -> list:
    """Module-level ``_name`` definitions (dunders aside) in ``trees``, by
    module name, that no module reads outside the definition itself."""
    read = sum(map(_reads, trees.values()), Counter())
    stranded = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            own = _reads(node)
            stranded += [f"{module}: {name} (line {node.lineno})" for name in names
                         if name.startswith("_") and not name.startswith("__")
                         and read[name] == own[name]]
    return sorted(stranded)


def test_package_reads_every_private_name_it_defines():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    assert stranded_private_names(trees) == []


def test_the_check_sees_a_stranded_private_helper():
    trees = {name: ast.parse(source) for name, source in {
        "a.py": ("__all__ = []\n_IMPORTED = 1\n_ATTR = 2\n_LEFT, _RIGHT = 3, 4\n"
                 "def _recursive(n):\n    return _recursive(n - 1)\n"
                 "class _Unused:\n    pass\n"),
        "b.py": "from .a import _IMPORTED\nfrom . import a\nX = a._ATTR + _RIGHT\n",
    }.items()}
    assert stranded_private_names(trees) == \
        ["a.py: _LEFT (line 4)", "a.py: _Unused (line 7)", "a.py: _recursive (line 5)"]


def _trusted_encodes(node: ast.AST, function: str):
    """(function, line) of each ``canonical_json`` call under ``node`` that
    passes ``trusted``, or may through ``**``; ``function`` is the name of
    the innermost ``def`` around it."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    if isinstance(node, ast.Call) \
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "canonical_json" \
            and any(k.arg in ("trusted", None) and not (
                isinstance(k.value, ast.Constant) and k.value.value is False) for k in node.keywords):
        yield function, node.lineno
    for child in ast.iter_child_nodes(node):
        yield from _trusted_encodes(child, function)


def trusted_encode_faults(trees: dict, doc: str) -> list:
    """Faults of the modules in ``trees``, by name, against ``doc``, the
    docstring of ``canonical_json``, whose list names the functions that may
    pass ``trusted``: as ``module.function``, or by the function alone in
    ``canonical``. A call that passes it outside them is a fault, and so is
    a named function of the package that makes no such call."""
    named = {name if "." in name else "canonical." + name
             for name in re.findall(r"`([\w.]+)`", doc[doc.index("\n- "):])}
    defined = {f"{module}.{node.name}" for module, tree in trees.items()
               for node in tree.body if isinstance(node, ast.FunctionDef)}
    sites = [(f"{module}.{function}", line) for module, tree in trees.items()
             for function, line in _trusted_encodes(tree, "<module>")]
    faults = [f"{where} (line {line}) is not in the list" for where, line in sites
              if where not in named]
    faults += [f"{name} makes no trusted encode"
               for name in named & defined - {where for where, _ in sites}]
    return sorted(faults)


def test_every_trusted_encode_is_documented():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    assert trusted_encode_faults(trees, inspect.getdoc(canonical_json)) == []


def test_the_check_sees_an_undocumented_trusted_encode():
    doc = "Encode.\n\n- :func:`parse_canonical` re-encodes;\n- ``wire._gone`` and ``Right``.\n"
    trees = {name: ast.parse(source) for name, source in {
        "canonical": "def parse_canonical(data):\n    return canonical_json(data, trusted=True)\n",
        "wire": ("def _gone():\n    return canonical_json({}, trusted=False)\n"
                 "class Server:\n    def take(self, doc):\n"
                 "        return canonical.canonical_json(doc, trusted=True)\n"
                 "HEAD = canonical_json({}, **{'trusted': True})\n"),
    }.items()}
    assert trusted_encode_faults(trees, doc) == [
        "wire.<module> (line 6) is not in the list",
        "wire._gone makes no trusted encode",
        "wire.take (line 5) is not in the list",
    ]
