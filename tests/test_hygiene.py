"""Static hygiene of the package sources, checked with the stdlib ``ast``."""

import ast
import dataclasses
import importlib
import re
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "horizoncheck"
# the package __init__ imports names only to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SOURCES = sorted(PACKAGE.glob("*.py"))


def _imported_names(tree: ast.Module) -> dict:
    """Module-level name bound by each import -> its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _bound_names(body) -> set:
    """Names a function body binds, not counting nested scopes."""
    bound = set()
    stack = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
            continue
        if isinstance(node, ast.Lambda):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, ast.alias):
            bound.add(node.asname or node.name.split(".")[0])
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return bound


def _parameters(args: ast.arguments) -> set:
    every = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
    return {a.arg for a in every if a is not None}


def _module_level_loads(tree: ast.Module) -> set:
    """Names read that resolve to the module scope: a read inside a function
    whose parameter or local shadows the name does not count."""
    loads = set()

    def visit(node, shadowed):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # decorators, defaults and annotations belong to the enclosing scope
            outer = [*getattr(node, "decorator_list", []), *node.args.defaults,
                     *[d for d in node.args.kw_defaults if d is not None]]
            every = [*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs,
                     node.args.vararg, node.args.kwarg]
            outer += [a.annotation for a in every if a is not None and a.annotation]
            if getattr(node, "returns", None) is not None:
                outer.append(node.returns)
            for child in outer:
                visit(child, shadowed)
            body = node.body if isinstance(node.body, list) else [node.body]
            inner = shadowed | _parameters(node.args) | _bound_names(body)
            for child in body:
                visit(child, inner)
            return
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in shadowed:
                loads.add(node.id)
        for child in ast.iter_child_nodes(node):
            visit(child, shadowed)

    visit(tree, frozenset())
    return loads


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return set()


def unused_imports(source: str) -> list:
    """(name, line) of every import the module never reads or exports."""
    tree = ast.parse(source)
    used = _module_level_loads(tree) | _exported(tree)
    return sorted((name, line) for name, line in _imported_names(tree).items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_package_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_detector():
    source = (
        "from dataclasses import dataclass, field\n"
        "from typing import Callable, Optional\n"
        "import numpy as np\n"
        "__all__ = ['Optional']\n"
        "def run(field, y: np.ndarray):\n"
        "    return field(y)\n"
    )
    assert unused_imports(source) == [("Callable", 2), ("dataclass", 1), ("field", 1)]


def _private_definitions(tree: ast.Module) -> list:
    """Module-level ``_name`` functions and constants: (name, node)."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        found += [(name, node) for name in names
                  if name.startswith("_") and not name.startswith("__")]
    return found


def _references(tree: ast.Module, skip: ast.AST) -> set:
    """Names read, taken as attributes or imported anywhere in the tree
    outside the ``skip`` subtree."""
    refs = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return refs


def dead_private_definitions(sources: dict) -> list:
    """(module, name, line) of every module-level private function or
    constant that no module of ``sources`` reads outside its own definition."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    dead = []
    for module, tree in trees.items():
        for name, node in _private_definitions(tree):
            if not any(name in _references(other, node) for other in trees.values()):
                dead.append((module, name, node.lineno))
    return sorted(dead)


def test_package_has_no_dead_private_definition():
    assert dead_private_definitions({p.name: p.read_text() for p in SOURCES}) == []


def test_dead_private_definition_detector():
    sources = {
        "a.py": (
            "_LIMIT = 3\n"
            "_UNUSED: int = 4\n"
            "__all__ = ['run']\n"
            "def _helper(x):\n"
            "    return _helper(x - 1) if x else _LIMIT\n"
            "def _shared():\n"
            "    return 1\n"
            "def _orphan():\n"
            "    return _orphan()\n"
            "def run():\n"
            "    return _helper(2)\n"
        ),
        "b.py": (
            "from .a import _shared\n"
            "def _via_attribute():\n"
            "    return 0\n"
            "TABLE = {'f': None}\n"
            "def use(mod):\n"
            "    return _shared() + mod._via_attribute()\n"
        ),
    }
    assert dead_private_definitions(sources) == [("a.py", "_UNUSED", 2),
                                                 ("a.py", "_orphan", 8)]


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def unread_parameters(source: str) -> list:
    """(function, parameter, line) of every parameter of a module-level
    function or method that its body never reads.  ``self`` and ``cls`` are
    exempt, and so are nested functions and lambdas: they implement the
    ``(x, u, t)`` and ``(t, y)`` callback contracts, which fix their
    parameters.  A read inside a nested scope counts."""
    tree = ast.parse(source)
    functions = [node for node in tree.body if isinstance(node, FUNCTIONS)]
    functions += [item for node in tree.body if isinstance(node, ast.ClassDef)
                  for item in node.body if isinstance(item, FUNCTIONS)]
    found = []
    for fn in functions:
        read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        every = [*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs,
                 fn.args.vararg, fn.args.kwarg]
        found += [(fn.name, a.arg, a.lineno) for a in every
                  if a is not None and a.arg not in read and a.arg not in ("self", "cls")]
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_package_function_reads_every_parameter(path):
    assert unread_parameters(path.read_text()) == []


def test_unread_parameter_detector():
    source = (
        "def step(t, y, h):\n"
        "    return y + h\n"
        "def scale(y, *args, factor=2.0, **options):\n"
        "    def field(t, z):\n"
        "        return factor * z\n"
        "    return [field(0.0, v) for v in args]\n"
        "class Path:\n"
        "    def at(self, t, cache):\n"
        "        return t\n"
        "    @classmethod\n"
        "    def make(cls, n):\n"
        "        rhs = lambda x, u, t: x\n"
        "        return rhs\n"
    )
    assert unread_parameters(source) == [("at", "cache", 8), ("make", "n", 11),
                                         ("scale", "options", 3), ("scale", "y", 3),
                                         ("step", "t", 1)]


# the runtime depends on numpy alone
ALLOWED_TOP_LEVEL = frozenset(sys.stdlib_module_names) | {"numpy", PACKAGE.name}
# the tests also lean on pytest, hypothesis and their own helper modules.
# scipy may be installed but is no dependency: no oracle may use its tables
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))
TEST_ALLOWED_TOP_LEVEL = ALLOWED_TOP_LEVEL | {"pytest", "hypothesis", "conftest", "oracles"}
# calls that import the module named by their first argument
_IMPORTING_CALLS = frozenset({"importorskip", "import_module", "__import__"})


def foreign_imports(source: str, allowed=ALLOWED_TOP_LEVEL) -> list:
    """(module, line) of every import, module-level or inside a function or
    class, of anything outside ``allowed`` (by default the stdlib, numpy and
    the package's own modules); a call such as ``pytest.importorskip("m")``
    counts as an import of m."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        elif (isinstance(node, ast.Call) and node.args
              and isinstance(node.args[0], ast.Constant) and isinstance(node.args[0].value, str)
              and getattr(node.func, "attr", getattr(node.func, "id", None)) in _IMPORTING_CALLS):
            names = [node.args[0].value]
        else:  # relative imports stay inside the package
            continue
        found += [(name, node.lineno) for name in names
                  if name.split(".")[0] not in allowed]
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_package_module_imports_only_stdlib_and_numpy(path):
    assert foreign_imports(path.read_text()) == []


@pytest.mark.parametrize("path", TESTS, ids=lambda p: p.name)
def test_test_module_imports_only_stdlib_numpy_pytest_and_hypothesis(path):
    assert foreign_imports(path.read_text(), TEST_ALLOWED_TOP_LEVEL) == []


def test_foreign_import_detector():
    source = (
        "from __future__ import annotations\n"
        "import math, numpy.linalg as la\n"
        "from . import ode_engine\n"
        "from .ode_engine import Box\n"
        "from horizoncheck.cli import main\n"
        "import scipy.integrate\n"
        "def solve():\n"
        "    from numba import njit\n"
        "    import json, torch\n"
        "class Kernel:\n"
        "    def run(self):\n"
        "        import jax.numpy as jnp\n"
    )
    assert foreign_imports(source) == [("jax.numpy", 12), ("numba", 8),
                                       ("scipy.integrate", 6), ("torch", 9)]
    # the tests' wider set still refuses scipy, also through importorskip,
    # importlib and __import__, and refuses pytest to the package
    source = (
        "import pytest\n"
        "import hypothesis.strategies as st\n"
        "from conftest import TIGHT\n"
        "import oracles\n"
        "from horizoncheck import ode_engine\n"
        "from scipy.integrate._ivp import dop853_coefficients\n"
        "def test_a():\n"
        "    hnp = pytest.importorskip('hypothesis.extra.numpy')\n"
        "    tables = pytest.importorskip('scipy.integrate')\n"
        "    mp = importlib.import_module('mpmath')\n"
        "    sp = __import__('sympy')\n"
    )
    assert foreign_imports(source, TEST_ALLOWED_TOP_LEVEL) == [
        ("mpmath", 10), ("scipy.integrate", 9), ("scipy.integrate._ivp", 6), ("sympy", 11)]
    assert foreign_imports(source) == [
        ("conftest", 3), ("hypothesis.extra.numpy", 8), ("hypothesis.strategies", 2),
        ("mpmath", 10), ("oracles", 4), ("pytest", 1), ("scipy.integrate", 9),
        ("scipy.integrate._ivp", 6), ("sympy", 11)]


ROOT = PACKAGE.parent.parent


def program_sources(root: Path) -> list:
    """The program's own callers of the package: every module under
    ``src`` and ``bench``.  Tests do not count: an option that only a test
    sets, or a default that only a test uses, serves no caller of the
    program."""
    return sorted(p for d in ("src", "bench") for p in (root / d).rglob("*.py"))


CALLER_SOURCES = program_sources(ROOT)

# (module, function or dataclass, parameter or field) that the option audit
# flags on purpose, with the reason
EXEMPT = {
    ("cli.py", "main", "argv"):
        "test seam: the console script parses sys.argv, tests pass argv",
    ("problem_model.py", "ControlProblem", "initial_time"):
        "public constructor of user problems: a problem may start at t0 != 0",
    ("problem_model.py", "ControlProblem", "name"):
        "public constructor of user problems: a label is optional",
    ("problem_model.py", "ControlProblem", "dynamics_jac_x"):
        "public constructor of user problems: None selects finite differences",
    ("problem_model.py", "ControlProblem", "payoff_grad_x"):
        "public constructor of user problems: None selects finite differences",
}


def _defaulted_parameters(fn, shift: int = 0) -> list:
    """(parameter, position or None) of every parameter of ``fn`` with a
    default; keyword-only parameters have no position.  ``shift`` is the
    number of leading parameters a call does not pass, 1 for ``self``."""
    positional = [*fn.args.posonlyargs, *fn.args.args]
    first = len(positional) - len(fn.args.defaults)
    found = [(a.arg, i - shift) for i, a in enumerate(positional) if i >= first]
    return found + [(a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                    if d is not None]


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in cls.decorator_list)


def _fields(cls: ast.ClassDef) -> list:
    """The annotated assignments of a dataclass body: its fields, in order."""
    return [s for s in cls.body if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]


def _defaulted_fields(cls: ast.ClassDef) -> list:
    """(field, position) of every field of a dataclass with a default."""
    return [(s.target.id, i) for i, s in enumerate(_fields(cls)) if s.value is not None]


def _defaulted_options(tree: ast.Module) -> list:
    """(called name, qualified name, defaulted, is_dataclass) for every
    function, method and dataclass of a module: ``defaulted`` lists the
    (parameter, position) pairs of :func:`_defaulted_parameters`.  A method's
    positions count from the parameter after ``self`` or ``cls``; ``__init__``
    and a dataclass are called by their class name."""
    found = []
    for node in tree.body:
        if isinstance(node, FUNCTIONS):
            found.append((node.name, node.name, _defaulted_parameters(node), False))
        elif isinstance(node, ast.ClassDef):
            if _is_dataclass(node):
                found.append((node.name, node.name, _defaulted_fields(node), True))
            for item in node.body:
                if not isinstance(item, FUNCTIONS):
                    continue
                static = any(getattr(d, "id", None) == "staticmethod" for d in item.decorator_list)
                called = node.name if item.name == "__init__" else item.name
                found.append((called, f"{node.name}.{item.name}",
                               _defaulted_parameters(item, 0 if static else 1), False))
    return found


def _calls(trees) -> dict:
    """Called name -> [(number of positional arguments, keywords)] for every
    call in ``trees``, bare or as an attribute; a call with ``*args`` or
    ``**kwargs`` passes every parameter and counts as infinitely many
    positionals."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is None:
                continue
            starred = (any(isinstance(a, ast.Starred) for a in node.args)
                       or any(k.arg is None for k in node.keywords))
            n_pos = float("inf") if starred else len(node.args)
            calls.setdefault(name, []).append((n_pos, {k.arg for k in node.keywords}))
    return calls


def _option_use(modules: dict, callers: dict):
    """(module, qualified name, parameter, calls passing it, all calls,
    replaced) for every defaulted parameter and dataclass field of
    ``modules``, over the calls in ``callers``.  ``replaced`` marks a field
    that a ``dataclasses.replace`` keyword sets: that sets it, but is no
    construction."""
    calls = _calls(ast.parse(text) for text in callers.values())
    replaced = set().union(*(keywords for _, keywords in calls.get("replace", [])))
    for module, text in modules.items():
        for called, qualified, defaulted, is_dataclass in _defaulted_options(ast.parse(text)):
            made = calls.get(called, [])
            for name, position in defaulted:
                passing = sum(n_pos == float("inf") or name in keywords
                              or (position is not None and position < n_pos)
                              for n_pos, keywords in made)
                yield (module, qualified, name, passing, len(made),
                       is_dataclass and name in replaced)


def never_set_parameters(modules: dict, callers: dict) -> list:
    """(module, function, parameter) of every defaulted parameter of a
    function or method, and every defaulted field of a dataclass, that no
    call in ``callers`` passes, by keyword or by position.  Calls are
    matched by the called name, bare or as an attribute, and constructions
    by the class name."""
    return sorted((module, qualified, name)
                  for module, qualified, name, passing, _, replaced
                  in _option_use(modules, callers) if not (passing or replaced))


def always_set_parameters(modules: dict, callers: dict) -> list:
    """(module, function, parameter) of every defaulted parameter or field,
    matched as in :func:`never_set_parameters`, that every one of at least
    one call passes: its default is never used."""
    return sorted((module, qualified, name)
                  for module, qualified, name, passing, total, _
                  in _option_use(modules, callers) if total and passing == total)


def _option_audit_inputs():
    return ({p.name: p.read_text() for p in MODULES},
            {str(p): p.read_text() for p in CALLER_SOURCES})


def test_package_sets_every_defaulted_parameter():
    assert [o for o in never_set_parameters(*_option_audit_inputs()) if o not in EXEMPT] == []


def test_package_uses_every_default():
    assert [o for o in always_set_parameters(*_option_audit_inputs()) if o not in EXEMPT] == []


def test_every_exemption_is_still_flagged():
    # an entry that names no defaulted parameter or field, or one that the
    # program now sets and leaves unset, no longer needs its exemption
    inputs = _option_audit_inputs()
    flagged = set(never_set_parameters(*inputs)) | set(always_set_parameters(*inputs))
    assert sorted(set(EXEMPT) - flagged) == []


def test_option_audit_ignores_test_callers(tmp_path):
    # an option that only a test sets is flagged, like one that nobody sets
    files = {
        "src/pkg/a.py": "def solve(f, tol=1e-6, steps=10):\n    return f\n",
        "src/pkg/b.py": "from .a import solve\nsolve(print, steps=5)\nsolve(len)\n",
        "bench/run.py": "from pkg.a import solve\nsolve(abs)\n",
        "tests/test_a.py": "from pkg.a import solve\nsolve(print, tol=1e-8)\n",
    }
    for name, text in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    callers = {str(p): p.read_text() for p in program_sources(tmp_path)}
    assert sorted(callers) == [str(tmp_path / name) for name in
                               ("bench/run.py", "src/pkg/a.py", "src/pkg/b.py")]
    modules = {"a.py": files["src/pkg/a.py"]}
    assert never_set_parameters(modules, callers) == [("a.py", "solve", "tol")]


AUDITED_MODULE = (
    "from dataclasses import dataclass\n"
    "__all__ = ['solve', 'scan', 'spread', 'fit']\n"
    "def solve(f, y0, tol=1e-6, steps=10, *, log=None, strict=False):\n"
    "    return f\n"
    "def scan(x, width=2):\n"
    "    return x\n"
    "def spread(x, scale=1.0, *, shift=0.0):\n"
    "    return x\n"
    "def fit(x, *, rate=0.1):\n"
    "    return x\n"
    "def _hidden(x, unused=3):\n"
    "    return x\n"
    "class Model:\n"
    "    def __init__(self, size, bias=0.0):\n"
    "        self.size = size\n"
    "    def predict(self, x, rate=0.1, clip=None):\n"
    "        return x\n"
    "    @staticmethod\n"
    "    def blank(n, fill=0.0):\n"
    "        return n\n"
    "@dataclass(frozen=True)\n"
    "class Settings:\n"
    "    tol: float\n"
    "    steps: int = 10\n"
    "    name: str = 'run'\n"
    "    log: bool = False\n"
)
AUDIT_CALLERS = {
    "b.py": (
        "import dataclasses\n"
        "import a\n"
        "a.solve(print, 0.0, 1e-8, strict=True)\n"
        "def run(args, options, model):\n"
        "    a.spread(*args)\n"
        "    a.fit(1.0, **options)\n"
        "    model.predict(2.0, 0.5)\n"
        "    model.predict(3.0, clip=1.0)\n"
        "    a.Model.blank(3, 1.0)\n"
        "    s = a.Settings(1e-6, 20)\n"
        "    a.Settings(tol=1e-8, steps=5)\n"
        "    dataclasses.replace(s, log=True)\n"
        "    return scan(1.0), a.Model(4)\n"
    ),
}


def test_never_set_parameter_detector():
    assert never_set_parameters({"a.py": AUDITED_MODULE}, AUDIT_CALLERS) == [
        ("a.py", "Model.__init__", "bias"), ("a.py", "Settings", "name"),
        ("a.py", "_hidden", "unused"), ("a.py", "scan", "width"),
        ("a.py", "solve", "log"), ("a.py", "solve", "steps")]


def test_always_set_parameter_detector():
    assert always_set_parameters({"a.py": AUDITED_MODULE}, AUDIT_CALLERS) == [
        ("a.py", "Model.blank", "fill"), ("a.py", "Settings", "steps"),
        ("a.py", "fit", "rate"), ("a.py", "solve", "strict"), ("a.py", "solve", "tol"),
        ("a.py", "spread", "scale"), ("a.py", "spread", "shift")]


def unread_fields(modules: dict, readers: dict) -> list:
    """(module, dataclass, field) of every dataclass field of ``modules``
    whose name no attribute read in ``readers`` names.  Reads are matched by
    the attribute name alone, on any object; a store or a ``getattr`` with a
    string is no read."""
    reads = {node.attr for text in readers.values() for node in ast.walk(ast.parse(text))
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted((module, cls.name, s.target.id)
                  for module, text in modules.items() for cls in ast.parse(text).body
                  if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
                  for s in _fields(cls) if s.target.id not in reads)


# a dataclass field is an output: one that a test reads is one that the
# test checks, so the field audit reads the tests too
READER_SOURCES = sorted([*CALLER_SOURCES, *(ROOT / "tests").rglob("*.py")])


def test_package_reads_every_dataclass_field():
    assert unread_fields({p.name: p.read_text() for p in MODULES},
                         {str(p): p.read_text() for p in READER_SOURCES}) == []


def test_unread_field_detector():
    module = (
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Report:\n"
        "    verdict: str\n"
        "    samples: list\n"
        "    spread: float = 0.0\n"
        "    def summary(self):\n"
        "        return self.verdict\n"
        "@dataclass(frozen=True)\n"
        "class Point:\n"
        "    k: float\n"
        "    kind: str\n"
        "class Plain:\n"
        "    size: int\n"
    )
    reader = (
        "def show(report, point):\n"
        "    report.spread = 1.0\n"
        "    return point.k, getattr(point, 'kind')\n"
    )
    assert unread_fields({"a.py": module}, {"a.py": module, "b.py": reader}) == [
        ("a.py", "Point", "kind"), ("a.py", "Report", "samples"), ("a.py", "Report", "spread")]


def unreached_exports(modules: dict, callers: dict) -> list:
    """(module, name) of every name in the ``__all__`` of ``modules`` that
    no module of ``modules`` or ``callers`` reads, imports or takes as an
    attribute.  A name's definition in its own module does not count, nor
    does its ``__all__`` entry, a string that no reference matches.  Names
    are matched alone, on any object, as in :func:`dead_private_definitions`."""
    trees = {module: ast.parse(text) for module, text in modules.items()}
    refs = {module: _references(tree, None) for module, tree in trees.items()}
    outside = set().union(*(_references(ast.parse(text), None) for text in callers.values()))
    unreached = []
    for module, tree in trees.items():
        defined = {node.name: node for node in tree.body
                   if isinstance(node, (*FUNCTIONS, ast.ClassDef))}
        others = outside.union(*(r for m, r in refs.items() if m != module))
        for name in sorted(_exported(tree)):
            if name not in others and name not in _references(tree, defined.get(name)):
                unreached.append((module, name))
    return sorted(unreached)


# names of a module's __all__ that the program does not reach, with the reason
EXPORT_EXEMPT = {}


def _export_audit_inputs():
    # the package __init__ only re-exports, which does not reach a name
    return ({p.name: p.read_text() for p in MODULES},
            {str(p): p.read_text() for p in CALLER_SOURCES if p.parent != PACKAGE})


def test_program_reaches_every_export():
    assert [e for e in unreached_exports(*_export_audit_inputs()) if e not in EXPORT_EXEMPT] == []


def test_every_export_exemption_is_still_unreached():
    assert sorted(set(EXPORT_EXEMPT) - set(unreached_exports(*_export_audit_inputs()))) == []


def test_unreached_export_detector():
    modules = {
        "a.py": (
            "__all__ = ['solve', 'Model', 'recurse', 'oracle', 'shared']\n"
            "def solve(f):\n"
            "    return f\n"
            "class Model:\n"
            "    def copy(self):\n"
            "        return Model()\n"
            "def recurse(n):\n"
            "    return recurse(n - 1) if n else 0\n"
            "def oracle(x):\n"
            "    return x\n"
            "def shared():\n"
            "    return 1\n"
        ),
        "b.py": (
            "from .a import shared\n"
            "__all__ = ['run', 'shared', 'unused']\n"
            "unused = 3\n"
            "def run(m):\n"
            "    return m.solve(1) + shared()\n"
        ),
    }
    callers = {"bench/run.py": "from pkg import run\n"}
    assert unreached_exports(modules, callers) == [("a.py", "Model"), ("a.py", "oracle"),
                                                   ("a.py", "recurse"), ("b.py", "unused")]


def _attributes(tree: ast.AST, skip: ast.AST = None) -> set:
    """Names taken as attributes anywhere in the tree outside the ``skip``
    subtree."""
    found, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is not skip:
            if isinstance(node, ast.Attribute):
                found.add(node.attr)
            stack.extend(ast.iter_child_nodes(node))
    return found


def unreached_methods(modules: dict, callers: dict) -> list:
    """(module, class.method) of every public method or property of a public
    class of ``modules`` that no module of ``modules`` or ``callers`` takes
    as an attribute outside the method's own body.  Dunder and private
    methods are not audited.  Attributes are matched by name alone, on any
    object, so a method is reached when any object's attribute of its name
    is; a bare name is no call of a method."""
    trees = {module: ast.parse(text) for module, text in modules.items()}
    outside = set().union(*(_attributes(ast.parse(text)) for text in callers.values()))
    unreached = []
    for module, tree in trees.items():
        others = outside.union(*(_attributes(t) for m, t in trees.items() if m != module))
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for item in cls.body:
                if (isinstance(item, FUNCTIONS) and not item.name.startswith("_")
                        and item.name not in others
                        and item.name not in _attributes(tree, item)):
                    unreached.append((module, f"{cls.name}.{item.name}"))
    return sorted(unreached)


# public methods that the program does not reach, with the reason
METHOD_EXEMPT = {}


def test_program_reaches_every_method():
    assert [m for m in unreached_methods(*_export_audit_inputs()) if m not in METHOD_EXEMPT] == []


def test_every_method_exemption_is_still_unreached():
    assert sorted(set(METHOD_EXEMPT) - set(unreached_methods(*_export_audit_inputs()))) == []


def test_unreached_method_detector():
    modules = {
        "a.py": (
            "class Model:\n"
            "    def fit(self, x):\n"
            "        return self.predict(x)\n"
            "    def predict(self, x):\n"
            "        return x\n"
            "    def refit(self, n):\n"
            "        return self.refit(n - 1) if n else self\n"
            "    @property\n"
            "    def size(self):\n"
            "        return 1\n"
            "    @staticmethod\n"
            "    def blank():\n"
            "        return Model()\n"
            "    def oracle(self):\n"
            "        return 0\n"
            "    def _hidden(self):\n"
            "        return 0\n"
            "    def __len__(self):\n"
            "        return 0\n"
            "class _Private:\n"
            "    def orphan(self):\n"
            "        return 0\n"
        ),
        "b.py": (
            "def run(model, size):\n"
            "    return model.fit(size)\n"
        ),
    }
    callers = {"bench/run.py": "import pkg\nblank = pkg.Model.blank()\n"}
    assert unreached_methods(modules, callers) == [("a.py", "Model.oracle"),
                                                   ("a.py", "Model.refit"),
                                                   ("a.py", "Model.size")]


# a Sphinx cross-reference in a docstring: :func:`name`, :class:`~mod.Name`,
# :meth:`Class.method()`
DOC_REFERENCE = re.compile(r":(?:func|class|meth):`~?([\w.]+?)(?:\(\))?`")


def stale_doc_references(sources: dict) -> list:
    """(module, line, reference) of every :func:, :class: or :meth:
    reference in a docstring of ``sources`` whose last dotted part no module
    of ``sources`` defines as a function, class or method.  The line is that
    of the docstring's first line."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    defined = {node.name for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, (*FUNCTIONS, ast.ClassDef))}
    stale = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.ClassDef, *FUNCTIONS)):
                doc = ast.get_docstring(node, clean=False)
                for ref in DOC_REFERENCE.findall(doc or ""):
                    if ref.split(".")[-1] not in defined:
                        stale.append((module, node.body[0].lineno, ref))
    return sorted(stale)


def test_docstrings_reference_only_defined_names():
    assert stale_doc_references({p.name: p.read_text() for p in SOURCES}) == []


def test_stale_doc_reference_detector():
    sources = {
        "a.py": (
            '"""Uses :func:`solve` and :class:`Model`."""\n'
            "def solve():\n"
            '    """See :meth:`Model.fit` and :func:`gone`."""\n'
            "class Model:\n"
            '    """Wraps :func:`~pkg.a.solve` and :func:`b.helper()`."""\n'
            "    def fit(self):\n"
            '        """Unlike :meth:`Model.predict`, or :func:`fit` in\n'
            '        :func:`other_fit`; ``fit`` and :attr:`gone` are no references."""\n'
            "# :func:`in_a_comment` is no docstring\n"
        ),
        "b.py": (
            "def helper():\n"
            '    """Calls :func:`removed_batch`."""\n'
        ),
    }
    assert stale_doc_references(sources) == [("a.py", 3, "gone"), ("a.py", 7, "Model.predict"),
                                             ("a.py", 7, "other_fit"),
                                             ("b.py", 2, "removed_batch")]


# a trajectory's node rows, which only the engine reads; every other module
# goes through Trajectory's methods
ENGINE_ROWS = frozenset({"derivs", "coeffs"})


def engine_internals(sources: dict) -> list:
    """(module, line, name) of every attribute ``derivs`` or ``coeffs`` and
    every underscore name imported from ``ode_engine`` in a module of
    ``sources`` other than ode_engine.py itself."""
    found = []
    for module, text in sources.items():
        if module == "ode_engine.py":
            continue
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Attribute) and node.attr in ENGINE_ROWS:
                found.append((module, node.lineno, node.attr))
            elif (isinstance(node, ast.ImportFrom)
                    and (node.module or "").split(".")[-1] == "ode_engine"):
                found.extend((module, node.lineno, alias.name) for alias in node.names
                             if alias.name.startswith("_"))
    return sorted(found)


def test_package_keeps_the_trajectory_format_inside_the_engine():
    assert engine_internals({p.name: p.read_text() for p in SOURCES}) == []


def test_engine_internals_detector():
    sources = {
        "ode_engine.py": (
            "def _dense_floats(rows):\n"
            "    return rows\n"
            "def rows(traj):\n"
            "    return traj.derivs, traj.coeffs\n"
        ),
        "a.py": (
            "from .ode_engine import Trajectory, _dense_floats\n"
            "from horizoncheck.ode_engine import _bisect as bisect\n"
            "from .conditions import _private\n"
            "def rows(traj, coeffs):\n"
            "    traj.coeffs = coeffs\n"
            "    return traj.states, traj.derivs[0], coeffs\n"
        ),
    }
    assert engine_internals(sources) == [("a.py", 1, "_dense_floats"), ("a.py", 2, "_bisect"),
                                         ("a.py", 5, "coeffs"), ("a.py", 6, "derivs")]


def _tuple_entries(tree: ast.Module, name: str) -> list:
    """The element nodes of the module-level tuple or list assigned to ``name``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name
                                                for t in node.targets):
            return node.value.elts
    raise LookupError(f"no module-level {name}")


def _dotted(node) -> str:
    """'a.b.c' of a chain of attribute accesses on a name."""
    return node.id if isinstance(node, ast.Name) else f"{_dotted(node.value)}.{node.attr}"


def bench_hooks(layertrace: str, workloads: str) -> list:
    """(owner, attribute) of every package function that the benchmark
    wraps or captures by name: the (owner, attribute, ...) entries of the
    trace's ``SPANS`` and ``COUNTERS``, ``integrate`` on each of its
    ``INTEGRATE_OWNERS``, the ``cli`` names of every ``capture(...)`` call of
    the workloads, and the names they import from the package (owner "").
    An owner is a dotted path whose head is a name imported from the
    package."""
    trace, work = ast.parse(layertrace), ast.parse(workloads)
    hooks = [(_dotted(entry.elts[0]), entry.elts[1].value)
             for table in ("SPANS", "COUNTERS") for entry in _tuple_entries(trace, table)]
    hooks += [(_dotted(owner), "integrate") for owner in _tuple_entries(trace, "INTEGRATE_OWNERS")]
    for node in ast.walk(work):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "capture":
            hooks += [("cli", arg.value) for arg in node.args]
        elif isinstance(node, ast.ImportFrom) and node.module == "horizoncheck":
            hooks += [("", alias.name) for alias in node.names]
    return hooks


def _from_package(name: str):
    """What ``from horizoncheck import name`` binds: a package attribute or
    a submodule."""
    package = importlib.import_module("horizoncheck")
    return (getattr(package, name) if hasattr(package, name)
            else importlib.import_module(f"horizoncheck.{name}"))


def unresolved_hooks(hooks) -> list:
    """The (owner, attribute) pairs of ``hooks`` that do not resolve on the
    package.  A class owner must define the attribute itself, since the
    benchmark's patcher replaces it in the class's own namespace."""
    unresolved = []
    for owner_path, attr in hooks:
        head, *rest = owner_path.split(".") if owner_path else [attr]
        try:
            owner = _from_package(head)
            for part in rest:
                owner = getattr(owner, part)
        except (AttributeError, ImportError):
            unresolved.append((owner_path, attr))
            continue
        if owner_path and not (attr in vars(owner) if isinstance(owner, type)
                               else hasattr(owner, attr)):
            unresolved.append((owner_path, attr))
    return sorted(unresolved)


def test_every_benchmark_hook_resolves_on_the_package():
    bench = ROOT / "bench"
    hooks = bench_hooks((bench / "layertrace.py").read_text(), (bench / "workloads.py").read_text())
    assert ("cli", "integrate_adjoint") in hooks and ("", "cli") in hooks
    assert unresolved_hooks(hooks) == []


def test_unresolved_hook_detector():
    layertrace = (
        "from horizoncheck import cli, conditions, ode_engine, verdicts\n"
        "SPANS = (\n"
        "    (cli, 'build_check_report', 'cli.build'),\n"
        "    (cli.ReportData, 'render', 'cli.render'),\n"
        "    (cli.ReportData, 'gone', 'cli.render'),\n"
        "    (ode_engine.Trajectory, '__call__', 'ode_engine.traj_eval'),\n"
        "    (ode_engine.Trajectory, '__init_subclass__', 'ode_engine.sub'),\n"
        ")\n"
        "INTEGRATE_OWNERS = (ode_engine, verdicts)\n"
        "COUNTERS = ((conditions, 'hamiltonian', 'h'), (conditions, 'terminal_psi', 't'))\n"
    )
    workloads = (
        "from horizoncheck import cli, oscillator_reference, closed_form\n"
        "def run():\n"
        "    with capture('transition_matrix', 'solve_costate') as got:\n"
        "        return got\n"
    )
    hooks = bench_hooks(layertrace, workloads)
    assert len(hooks) == 14
    # Trajectory inherits __init_subclass__ and does not define it
    assert unresolved_hooks(hooks) == [
        ("", "closed_form"), ("cli", "solve_costate"), ("cli.ReportData", "gone"),
        ("conditions", "terminal_psi"), ("ode_engine.Trajectory", "__init_subclass__"),
        ("verdicts", "integrate")]


# ---------------------------------------------------------------------------
# the problem functions take arrays: no loop calls them per point

PROBLEM_FUNCTIONS = frozenset({"dynamics", "payoff"})


def _problem_function_aliases(scope: ast.AST) -> set:
    """Names that ``scope`` binds to a ``.dynamics`` or ``.payoff``
    attribute, as in ``f, g = problem.dynamics, problem.payoff``."""
    aliases = set()
    for node in ast.walk(scope):
        if not isinstance(node, (ast.Assign, ast.AnnAssign)) or node.value is None:
            continue
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            pairs = [(target, node.value)]
            if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                pairs = list(zip(target.elts, node.value.elts))
            aliases.update(name.id for name, value in pairs
                           if isinstance(name, ast.Name) and isinstance(value, ast.Attribute)
                           and value.attr in PROBLEM_FUNCTIONS)
    return aliases


def looped_problem_calls(sources: dict) -> list:
    """(module, line, callee) of every call of a problem's ``dynamics`` or
    ``payoff``, directly or through a local alias, that runs once per
    iteration of a ``for``, a ``while`` or a comprehension.  The body of a
    function or lambda defined in a loop runs when it is called, so it
    starts outside any loop."""
    found = []

    def visit(node, module, aliases, looped):
        if isinstance(node, ast.Call) and looped:
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in PROBLEM_FUNCTIONS:
                found.append((module, node.lineno, func.attr))
            elif isinstance(func, ast.Name) and func.id in aliases:
                found.append((module, node.lineno, func.id))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            children = [(child, False) for child in ast.iter_child_nodes(node)]
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            children = [(node.target, looped), (node.iter, looped),
                        *[(child, True) for child in node.body + node.orelse]]
        elif isinstance(node, ast.While):
            children = [(child, True) for child in ast.iter_child_nodes(node)]
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            parts = [getattr(node, name) for name in ("elt", "key", "value") if hasattr(node, name)]
            for gen in node.generators:
                parts += [gen.target, gen.iter, *gen.ifs]
            # the first iterable is evaluated once, before the loop
            first = node.generators[0].iter
            children = [(part, looped if part is first else True) for part in parts]
        else:
            children = [(child, looped) for child in ast.iter_child_nodes(node)]
        for child, flag in children:
            visit(child, module, aliases, flag)

    for module, text in sources.items():
        # an alias bound anywhere in an outermost function counts in all of it,
        # one bound outside every function in the whole module
        scopes = {stmt: _problem_function_aliases(stmt) for stmt in ast.parse(text).body}
        shared = set().union(*(aliases for stmt, aliases in scopes.items()
                               if not isinstance(stmt, FUNCTIONS)))
        for stmt, aliases in scopes.items():
            visit(stmt, module, shared | aliases, False)
    return sorted(found)


def test_no_loop_calls_a_problem_function():
    assert looped_problem_calls({p.name: p.read_text() for p in SOURCES}) == []


def test_looped_problem_call_detector():
    # the per-point loops that the array contract replaced
    sources = {
        "overtaking.py": (
            "def _stacked_rhs(problem, members):\n"
            "    f, g = problem.dynamics, problem.payoff\n"
            "    blocks = [(slice(a, a + 1), a + 1, slice(a, a + 1)) for a in range(members)]\n"
            "    def rhs(z, u, t):\n"
            "        dz = np.empty(2 * members)\n"
            "        for xs, j, us in blocks:\n"
            "            x, ui = z[xs], u[us]\n"
            "            dz[xs] = f(x, ui, t)\n"
            "            dz[j] = g(x, ui, t)\n"
            "        return dz\n"
            "    return rhs\n"
        ),
        "problem_model.py": (
            "def hamiltonian_jumps(problem, x, u_hat, t, controls, psi, lam):\n"
            "    f_hat = problem.dynamics(x, u_hat, t)\n"
            "    df = np.array([problem.dynamics(x, u, t) - f_hat for u in controls])\n"
            "    dg = np.array([float(problem.payoff(x, u, t)) for u in controls])\n"
            "    return psi @ df.T + lam * dg\n"
            "def jacobians(problem, x, u, t):\n"
            "    i = 0\n"
            "    while i < x.size:\n"
            "        plus, minus, hi = _probe_pair(problem, x, i)\n"
            "        fx[:, i] = problem.dynamics(plus, u, t) - problem.dynamics(minus, u, t)\n"
            "        i += 1\n"
        ),
        "conditions.py": (
            "rate = None\n"
            "def check_gmax(problem, pairs, time_grid):\n"
            "    for i, (traj_i, ctrl_i) in enumerate(pairs):\n"
            "        for t in time_grid:\n"
            "            g_i = float(problem.payoff(traj_i(t), ctrl_i.evaluate(t), t))\n"
            "    return {t: rate(t) for t in time_grid}\n"
            "rate = pairs[0].problem.payoff\n"
        ),
        # one call per batch: before a loop, in the first iterable of a
        # comprehension or of a for, or in a function that a loop defines
        "fine.py": (
            "def sweep(problem, xs, us, ts, f=None):\n"
            "    values = problem.payoff(xs, us, ts)\n"
            "    rows = [v for v in problem.dynamics(xs, us, ts)]\n"
            "    for v in problem.payoff(xs, us, ts):\n"
            "        rows.append(v)\n"
            "    for _ in rows:\n"
            "        field = lambda x, u, t: problem.dynamics(x, u, t)\n"
            "        f(field)\n"
            "    return values, rows\n"
        ),
    }
    assert looped_problem_calls(sources) == [
        ("conditions.py", 5, "payoff"), ("conditions.py", 6, "rate"),
        ("overtaking.py", 8, "f"), ("overtaking.py", 9, "g"),
        ("problem_model.py", 3, "dynamics"), ("problem_model.py", 4, "payoff"),
        ("problem_model.py", 10, "dynamics"), ("problem_model.py", 10, "dynamics"),
    ]


# ---------------------------------------------------------------------------
# each built-in problem is defined once, by its dataclass in reference_examples


def parameter_table_mismatches(tables: dict, builtins: dict) -> list:
    """(example, table keys, dataclass fields) of every example whose
    problem parameters in ``tables`` (the keys whose default is not None)
    differ from the fields of its dataclass in ``builtins``, in order."""
    found = []
    for name, table in tables.items():
        keys = [key for key, default in table.items() if default is not None]
        fields = [field.name for field in dataclasses.fields(builtins[name])]
        if keys != fields:
            found.append((name, keys, fields))
    return sorted(found)


def test_cli_parameters_are_the_fields_of_each_builtin():
    from horizoncheck import cli, reference_examples
    assert set(cli._EXAMPLE_PARAMS) == set(reference_examples._BUILTINS)
    assert parameter_table_mismatches(cli._EXAMPLE_PARAMS, reference_examples._BUILTINS) == []


def test_parameter_table_mismatch_detector():
    @dataclasses.dataclass
    class Growth:
        alpha: float
        rho: float
        k0: float

    @dataclasses.dataclass
    class Spring:
        b: float

    tables = {
        # rho added to the dataclass only
        "ramsey": {"alpha": 0.4, "k0": 10.0},
        # the right keys in another order
        "growth": {"k0": 10.0, "alpha": 0.4, "rho": 0.0},
        # candidate parameters (None) are not problem parameters
        "spring": {"b": 0.5, "r": None},
    }
    builtins = {"ramsey": Growth, "growth": Growth, "spring": Spring}
    assert parameter_table_mismatches(tables, builtins) == [
        ("growth", ["k0", "alpha", "rho"], ["alpha", "rho", "k0"]),
        ("ramsey", ["alpha", "k0"], ["alpha", "rho", "k0"]),
    ]


# the one module that builds problems
PROBLEM_OWNER = "reference_examples.py"


def problem_constructions(sources: dict) -> list:
    """(module, line) of every call of ``ControlProblem``, by name or as an
    attribute, in a module of ``sources`` other than ``PROBLEM_OWNER``."""
    found = []
    for module, text in sources.items():
        if module == PROBLEM_OWNER:
            continue
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call) and "ControlProblem" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                found.append((module, node.lineno))
    return sorted(found)


def test_only_reference_examples_builds_a_problem():
    assert problem_constructions({p.name: p.read_text() for p in SOURCES}) == []


def test_problem_construction_detector():
    sources = {
        PROBLEM_OWNER: (
            "def problem(self):\n"
            "    return ControlProblem(state_dim=1)\n"
        ),
        "problem_model.py": (
            "from . import problem_model as pm\n"
            "def _build_ramsey(params):\n"
            "    return ControlProblem(state_dim=1, control_dim=1)\n"
            "def replace(problem):\n"
            "    return dataclasses.replace(problem, name='x'), isinstance(problem, ControlProblem)\n"
            "def other():\n"
            "    return pm.ControlProblem(state_dim=2)\n"
        ),
    }
    assert problem_constructions(sources) == [("problem_model.py", 3), ("problem_model.py", 7)]
