"""Source hygiene: each caslite module uses every name it imports, the
package reads every private module-level name it defines, some caller
names each public module-level function and class, some call sets
each defaulted parameter of its module-level functions and of the methods
of its module-level classes (a method's by a call of its name, ``__init__``'s
also by a call of its class or a subclass) and each defaulted
``__init__`` field of its dataclasses, every encode that
skips the type walk is one that ``canonical_json`` documents, a deny
raised as ``DeniedError`` is caught in one place per service, only
``keys`` names the Ed25519 classes and their ``InvalidSignature``, only
``statements`` names ``fetch_statement``, only
``statements.fetch_statement`` asks ``wire.call`` for a raw answer, and the
modules keep their layers: no import cycle, no model module imports the
transport or a service, and no service module imports another but the file
service the decision point."""

from __future__ import annotations

import ast
import inspect
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import caslite
from caslite import cli
from caslite.canonical import canonical_json

PACKAGE = Path(caslite.__file__).parent
# Every directory whose code calls the package; the checks only read them.
CALLERS = [Path(__file__).resolve().parent.parent / name
           for name in ("src", "tests", "bench", "scripts")]
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


def unnamed_public_definitions(defined: dict, callers: list) -> list:
    """Module-level public functions and classes in ``defined``, trees by
    module name, that no tree in ``callers`` reads outside the definition
    itself, by name, attribute or ``from ... import``."""
    read = sum(map(_reads, callers), Counter())
    return sorted(f"{module}: {node.name} (line {node.lineno})"
                  for module, tree in defined.items() for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and not node.name.startswith("_") and read[node.name] == _reads(node)[node.name])


def test_every_public_helper_is_named_by_some_caller():
    """A public function or class that no code in ``src/``, ``tests/``,
    ``bench/`` or ``scripts/`` names is dead: drop it."""
    defined = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    callers = [ast.parse(p.read_text(encoding="utf-8"))
               for root in CALLERS for p in sorted(root.rglob("*.py"))]
    assert unnamed_public_definitions(defined, callers) == []


def test_the_check_sees_a_public_helper_no_caller_names():
    defined = {"a": ast.parse("def used():\n    pass\n"
                              "def recursive(n):\n    return recursive(n - 1)\n"
                              "class Planted:\n    pass\n"
                              "def _private():\n    pass\n"
                              "class Imported:\n    def used(self):\n        pass\n")}
    callers = [defined["a"], ast.parse("from caslite.a import Imported\nmod.used()\n")]
    assert unnamed_public_definitions(defined, callers) == \
        ["a: Planted (line 5)", "a: recursive (line 3)"]


def _passes(call: ast.Call, index: int | None, name: str) -> bool:
    """Whether ``call`` may set the parameter ``name``, at position
    ``index`` when it is positional: by keyword, by position, or through a
    spread ``*args`` or ``**kwargs``."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    return index is not None and (len(call.args) > index
                                  or any(isinstance(a, ast.Starred) for a in call.args))


def _calls_by_name(trees: list) -> dict:
    """Every call in ``trees``, by the called name alone: ``f(...)`` and
    ``mod.f(...)`` are both calls of ``f``."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    return calls


def _subclasses(bases: dict, name: str) -> list:
    """The classes in ``bases``, base names by class name, that derive from
    ``name``, ``name`` itself included."""

    def lineage(sub: str) -> set:
        return {sub}.union(*(lineage(b) for b in bases[sub] if b in bases))

    return [sub for sub in bases if name in lineage(sub)]


def _functions(tree: ast.Module, bases: dict):
    """(qualified name, definition, names its calls go by, whether a call's
    first argument fills its second parameter) for each module-level
    function and each method of a module-level class in ``tree``. A
    method's calls go by its name, and ``__init__``'s by its class's, a
    subclass's or ``__init__``, as in ``super().__init__``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node, [node.name], False
        elif isinstance(node, ast.ClassDef):
            for method in node.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                names = [method.name]
                if method.name == "__init__":
                    names += _subclasses(bases, node.name)
                bound = not any(ast.unparse(d) == "staticmethod" for d in method.decorator_list)
                yield f"{node.name}.{method.name}", method, names, bound


def unset_parameters(defined: dict, callers: list) -> list:
    """``module.function(parameter=)`` for each defaulted parameter of a
    module-level function or of a method of a module-level class in
    ``defined``, trees by module name, that no call in the trees
    ``callers`` passes. A call is matched to a function by the called name
    alone, so a same-named call anywhere counts; see :func:`_functions`
    for a method's."""
    calls = _calls_by_name(callers)
    bases = {node.name: [ast.unparse(b).split(".")[-1] for b in node.bases]
             for tree in defined.values() for node in tree.body if isinstance(node, ast.ClassDef)}
    unset = []
    for module, tree in defined.items():
        for qualified, node, names, bound in _functions(tree, bases):
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = list(enumerate((p.arg for p in positional), start=-1 if bound else 0))
            defaulted = defaulted[len(positional) - len(args.defaults):]
            defaulted += [(None, a.arg) for a, default in zip(args.kwonlyargs, args.kw_defaults)
                          if default is not None]
            unset += [f"{module}.{qualified}({name}=)" for index, name in defaulted
                      if not any(_passes(c, index, name) for n in names for c in calls.get(n, ()))]
    return sorted(unset)


def test_every_defaulted_parameter_is_set_by_some_call():
    """A default that no call overrides is a setting nobody sets: drop the
    parameter. The tools ``cli.main`` calls through ``_TOOLS`` are exempt."""
    defined = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    callers = [ast.parse(p.read_text(encoding="utf-8"))
               for root in CALLERS for p in sorted(root.rglob("*.py"))]
    tools = {f"cli.{tool.__name__}(argv=)" for tool in cli._TOOLS.values()}
    assert [name for name in unset_parameters(defined, callers) if name not in tools] == []


def test_the_check_sees_a_parameter_no_call_sets():
    defined = {"a": ast.parse(
        "def f(x, y=1, z=2, *, k=3, m=4):\n    pass\n"
        "def g(x=1, *, k=2):\n    pass\n"
        "class C:\n    def f(self, unused=1):\n        pass\n")}
    callers = [ast.parse("f(0, 1, m=5)\nmod.f(0)\ng(*xs, **kw)\n")]
    assert unset_parameters(defined, callers) == ["a.f(k=)", "a.f(z=)"]


def test_the_check_sees_a_method_parameter_no_call_sets():
    """A method's defaults count as set by calls of its name, past ``self``;
    ``__init__``'s also by calls of its class or a subclass, or of
    ``__init__``."""
    defined = {"a": ast.parse(
        "class Base:\n    def __init__(self, x, y=1, z=2, w=3):\n        pass\n"
        "    def read(self, path, now=None):\n        pass\n"
        "    @staticmethod\n    def make(x=1, y=2):\n        pass\n"
        "class Sub(Base):\n    def __init__(self, v=0):\n        super().__init__(v, 2)\n"
        "class Other:\n    def read(self, path, flag=False):\n        pass\n")}
    callers = [defined["a"], ast.parse("Sub(0)\nobj.read('p', flag=True)\nmake(1)\n")]
    assert unset_parameters(defined, callers) == \
        ["a.Base.__init__(w=)", "a.Base.__init__(z=)", "a.Base.make(y=)", "a.Base.read(now=)"]


def _own_fields(node: ast.ClassDef) -> dict:
    """The fields a dataclass declares in its body, in order, each with
    (whether ``__init__`` takes it, whether it has a default)."""
    fields = {}
    for stmt in node.body:
        if not isinstance(stmt, ast.AnnAssign) or "ClassVar" in ast.unparse(stmt.annotation):
            continue
        value, init, defaulted = stmt.value, True, stmt.value is not None
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
            keywords = {k.arg: k.value for k in value.keywords}
            init = not (isinstance(keywords.get("init"), ast.Constant)
                        and keywords["init"].value is False)
            defaulted = bool(keywords.keys() & {"default", "default_factory"})
        fields[stmt.target.id] = (init, defaulted)
    return fields


def unset_fields(defined: dict, callers: list) -> list:
    """``module.Class.field`` for each defaulted ``__init__`` field of a
    module-level dataclass in ``defined``, trees by module name, that no
    call in the trees ``callers`` sets: a call of the class or of a subclass
    that passes it by keyword, by position (inherited fields first) or
    through a spread, or a ``replace`` call that names it. Calls are matched
    by the called name alone, as in :func:`unset_parameters`."""
    classes = {node.name: (module, [ast.unparse(b).split(".")[-1] for b in node.bases],
                           _own_fields(node))
               for module, tree in defined.items() for node in tree.body
               if isinstance(node, ast.ClassDef)
               and any("dataclass" in ast.unparse(d) for d in node.decorator_list)}

    def fields(name: str) -> dict:
        _, bases, own = classes[name]
        merged = {}
        for base in bases:
            if base in classes:
                merged.update(fields(base))
        merged.update(own)
        return merged

    calls = _calls_by_name(callers)
    bases = {sub: c[1] for sub, c in classes.items()}
    unset = []
    for name, (module, _, own) in classes.items():
        subclasses = _subclasses(bases, name)
        for field_name, (init, defaulted) in own.items():
            if not (init and defaulted):
                continue
            sets = any(k.arg == field_name for c in calls.get("replace", ()) for k in c.keywords)
            for sub in subclasses:
                parameters = [f for f, (takes, _) in fields(sub).items() if takes]
                index = parameters.index(field_name) if field_name in parameters else None
                sets = sets or any(_passes(c, index, field_name) for c in calls.get(sub, ()))
            if not sets:
                unset.append(f"{module}.{name}.{field_name}")
    return sorted(unset)


def test_every_defaulted_dataclass_field_is_set_by_some_call():
    """A dataclass field whose default no call overrides is a setting
    nobody sets: make it a constant, or derive it with ``init=False``."""
    defined = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    callers = [ast.parse(p.read_text(encoding="utf-8"))
               for root in CALLERS for p in sorted(root.rglob("*.py"))]
    assert unset_fields(defined, callers) == []


def test_the_check_sees_a_dataclass_field_no_call_sets():
    defined = {"a": ast.parse(
        "@dataclass\nclass Base:\n    x: int\n    y: int = 1\n    z: int = 2\n"
        "    w: int = field(init=False, default=0)\n    c: ClassVar[int] = 0\n"
        "@dataclass(frozen=True)\nclass Sub(Base):\n    k: int = 3\n"
        "    m: list = field(default_factory=list)\n    n: int = field(default=4)\n"
        "@dataclasses.dataclass\nclass Spread:\n    q: int = 1\n"
        "class Plain:\n    p: int = 5\n")}
    callers = [ast.parse("a.Sub(0, 1, 2)\nreplace(s, m=[])\nSpread(**kw)\n")]
    assert unset_fields(defined, callers) == ["a.Sub.k", "a.Sub.n"]


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


# --- deny exits ---------------------------------------------------------------------------

# Where a deny raised as ``DeniedError`` becomes an answer: one place per
# service that decides.
DENY_EXITS = ["authz.decide_local", "vault.ResourceService.authorize"]


def deny_catches(trees: dict) -> list:
    """``module.function`` (``module.Class.method``) of each ``except``
    clause in ``trees``, by module name, that names ``DeniedError``."""
    found = []

    def walk(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        if isinstance(node, ast.ExceptHandler) and node.type is not None and any(
                getattr(n, "id", getattr(n, "attr", None)) == "DeniedError"
                for n in ast.walk(node.type)):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            walk(child, where)

    for module, tree in trees.items():
        walk(tree, module)
    return sorted(found)


def test_a_deny_becomes_an_answer_in_one_place_per_service():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in MODULES}
    assert deny_catches(trees) == DENY_EXITS


def test_the_check_sees_a_deny_caught_elsewhere():
    trees = {name: ast.parse(source) for name, source in {
        "vault": ("def enforce():\n    try:\n        pass\n"
                  "    except (ValueError, errors.DeniedError):\n        pass\n"
                  "class S:\n    def authorize(self):\n        try:\n            pass\n"
                  "        except DeniedError as exc:\n            return exc\n"
                  "        except Exception:\n            pass\n"),
        "authz": "try:\n    import x\nexcept ImportError:\n    pass\n",
    }.items()}
    assert deny_catches(trees) == ["vault.S.authorize", "vault.enforce"]


# --- the signature scheme -------------------------------------------------------------------

# The names through which code could check or make an Ed25519 signature
# without ``keys.verify_payload`` and its memo of passed checks.
SCHEME_NAMES = {"Ed25519PublicKey", "Ed25519PrivateKey", "InvalidSignature"}


def names_outside(trees: dict, names: set, home: str) -> list:
    """``module: name (line n)`` for each of ``names`` that a module in
    ``trees``, by module name, other than ``home`` names: as a variable, an
    attribute or an imported name."""
    found = []
    for module, tree in trees.items():
        if module == home:
            continue
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                read = [alias.name.split(".")[-1] for alias in node.names]
            else:
                read = [getattr(node, "id", getattr(node, "attr", None))]
            found += [f"{module}: {name} (line {node.lineno})" for name in read if name in names]
    return sorted(found)


def test_only_keys_names_the_signature_scheme():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in MODULES}
    assert "keys" in trees
    assert names_outside(trees, SCHEME_NAMES, "keys") == []


def test_the_check_sees_the_signature_scheme_named_outside_keys():
    trees = {name: ast.parse(source) for name, source in {
        "keys": "from cryptography.exceptions import InvalidSignature\n",
        "credentials": ("from cryptography.hazmat.primitives.asymmetric import ed25519\n"
                        "def check(k, s, p):\n"
                        "    ed25519.Ed25519PublicKey.from_public_bytes(k).verify(s, p)\n"),
        "wire": ("import cryptography.exceptions.InvalidSignature\n"
                 "from cryptography.hazmat.primitives.asymmetric.ed25519 import (\n"
                 "    Ed25519PrivateKey as Signer)\n"),
    }.items()}
    assert names_outside(trees, SCHEME_NAMES, "keys") == [
        "credentials: Ed25519PublicKey (line 3)",
        "wire: Ed25519PrivateKey (line 2)",
        "wire: InvalidSignature (line 1)",
    ]


# --- the kept statement ---------------------------------------------------------------------

# ``StatementFetcher`` is the one holder of fetched statements, for the pull
# consumers and the mirror alike; a module that fetches a statement itself
# would keep a second one.
FETCH_NAMES = {"fetch_statement"}


def test_only_statements_names_fetch_statement():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in MODULES}
    assert "statements" in trees
    assert names_outside(trees, FETCH_NAMES, "statements") == []


def test_the_check_sees_fetch_statement_named_outside_statements():
    trees = {name: ast.parse(source) for name, source in {
        "statements": "def fetch_statement(source, query, chain, key):\n    pass\n",
        "cache": ("from .statements import SignedStatement, fetch_statement\n"
                  "entry = statements.fetch_statement(source, query, None, None)\n"),
        "authz": "fetch = fetch_statement\n",
    }.items()}
    assert names_outside(trees, FETCH_NAMES, "statements") == [
        "authz: fetch_statement (line 1)",
        "cache: fetch_statement (line 1)",
        "cache: fetch_statement (line 2)",
    ]


# A raw answer is the received buffer, handed to its caller to trim in
# place into a statement's kept payload; only the statement reader takes one.
RAW_CALLERS = {("statements", "fetch_statement")}


def raw_callers(trees: dict) -> list:
    """``module: function (line n)`` for each ``wire.call`` in ``trees``, by
    module name, that may ask for a raw answer (``raw`` given by keyword as
    anything but ``False``, or by position) outside ``RAW_CALLERS``; code
    outside any function is ``<module>``."""
    found = []

    def visit(module, node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(module, child, child.name)
                continue
            if isinstance(child, ast.Call) and ast.unparse(child.func) == "wire.call" \
                    and (module, function) not in RAW_CALLERS \
                    and (len(child.args) > 5 or any(
                        k.arg == "raw" and not (isinstance(k.value, ast.Constant)
                                                and k.value.value is False)
                        for k in child.keywords)):
                found.append(f"{module}: {function or '<module>'} (line {child.lineno})")
            visit(module, child, function)

    for module, tree in trees.items():
        visit(module, tree, None)
    return sorted(found)


def test_only_fetch_statement_asks_for_a_raw_answer():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in MODULES}
    assert "statements" in trees
    assert "raw=True" in ast.unparse(trees["statements"])
    assert raw_callers(trees) == []


def test_the_check_sees_a_raw_answer_asked_for_elsewhere():
    trees = {name: ast.parse(source) for name, source in {
        "statements": ("def fetch_statement(source, query, chain, key):\n"
                       "    return wire.call(source, 'query', query, chain=chain, raw=True)\n"
                       "def again(source, flag):\n"
                       "    return wire.call(source, 'query', {}, raw=flag)\n"),
        "cache": ("class Mirror:\n"
                  "    def serve(self, source):\n"
                  "        return wire.call(source, 'query', {}, raw=True)\n"),
        "authz": "answer = wire.call(source, 'query', {}, None, 10.0, True)\n",
        "vault": ("def read(source):\n"
                  "    return wire.call(source, 'read', {}, raw=False)\n"),
    }.items()}
    assert raw_callers(trees) == [
        "authz: <module> (line 1)",
        "cache: serve (line 3)",
        "statements: again (line 4)",
    ]


# --- layering -------------------------------------------------------------------------------

# The one service module another may import: the file service enforces
# through the decision point's pipeline.
ALLOWED_SERVICE_IMPORTS = {("vault", "authz")}


def import_graph(trees: dict) -> dict:
    """The package modules each module in ``trees``, by name, imports."""
    graph = {}
    for module, tree in trees.items():
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                imported.update([node.module] if node.module
                                else (alias.name for alias in node.names))
        graph[module] = imported & set(trees)
    return graph


def service_modules(trees: dict) -> set:
    """The modules in ``trees`` that define a ``wire.FrameServer`` subclass."""
    return {module for module, tree in trees.items() for node in tree.body
            if isinstance(node, ast.ClassDef)
            and any(ast.unparse(base) == "wire.FrameServer" for base in node.bases)}


def layering_faults(trees: dict) -> list:
    """A service module (one that subclasses ``wire.FrameServer``) that
    imports another outside ``ALLOWED_SERVICE_IMPORTS``, and each import
    cycle, found from the module that starts it."""
    graph, services = import_graph(trees), service_modules(trees)
    faults = [f"service {module} imports service {other}"
              for module in sorted(services) for other in sorted(graph[module] & services)
              if (module, other) not in ALLOWED_SERVICE_IMPORTS]

    def cycles(path):
        for other in sorted(graph[path[-1]]):
            if other == path[0]:
                yield " -> ".join(path + [other])
            elif other not in path and other > path[0]:
                yield from cycles(path + [other])

    for module in sorted(graph):
        faults += [f"cycle {cycle}" for cycle in cycles([module])]
    return faults


def test_modules_keep_their_layers():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in PACKAGE.glob("*.py") if p.name != "__init__.py"}
    assert service_modules(trees) == {"authz", "cache", "server", "vault"}
    assert layering_faults(trees) == []


# The documents and their checks: they stand without the transport.
MODEL_MODULES = {"errors", "canonical", "keys", "policy", "credentials", "assertions"}


def test_model_modules_import_neither_the_transport_nor_a_service():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in PACKAGE.glob("*.py") if p.name != "__init__.py"}
    graph, outside = import_graph(trees), {"wire"} | service_modules(trees)
    assert MODEL_MODULES <= set(trees)
    assert {module: sorted(graph[module] & outside) for module in sorted(MODEL_MODULES)
            if graph[module] & outside} == {}


def test_the_check_sees_a_service_import_and_a_cycle():
    trees = {name: ast.parse(source) for name, source in {
        "vault": "from . import wire\nfrom .authz import judge\nclass V(wire.FrameServer): pass\n",
        "authz": "from . import wire\nclass A(wire.FrameServer): pass\n"
                 "def f():\n    from .cache import c\n",
        "cache": "from . import wire\nclass C(wire.FrameServer): pass\n",
        "wire": "from .keys import k\n",
        "keys": "from .policy import p\n",
        "policy": "from . import wire\n",
    }.items()}
    assert layering_faults(trees) == [
        "service authz imports service cache",
        "cycle keys -> policy -> wire -> keys",
    ]


def test_the_decision_point_loads_no_other_service():
    code = ("import sys, caslite.authz\n"
            "print(sorted(m for m in sys.modules if m.startswith('caslite')))")
    loaded = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
                            timeout=60).stdout
    assert "caslite.authz" in loaded
    for service in ("caslite.vault", "caslite.server", "caslite.cache"):
        assert f"'{service}'" not in loaded
