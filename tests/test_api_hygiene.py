"""Static checks on the package source, in place of a lint tool.

Every name a module lists in ``__all__`` must exist, no module, test or
demo may import a name it never uses (an import marked ``# noqa: F401`` is
kept on purpose, and in the package only for the benchmark's tracer to
patch, as its ``PATCHES`` lists), and every private module-level name of the
package must be referenced somewhere besides its definition.  Every public
name must have a user besides the tests, or a reason in ``KEPT``, and the
facade ``ddbound.__all__`` re-exports only public names of the modules.
"""

import ast
import importlib
import pkgutil
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

import ddbound

MODULES = ["ddbound"] + [
    f"ddbound.{info.name}" for info in pkgutil.iter_modules(ddbound.__path__)
]

ROOT = Path(__file__).resolve().parents[1]

#: Test and demo scripts, as paths relative to the repository root.
SCRIPTS = sorted(
    p.relative_to(ROOT).as_posix() for d in ("tests", "demos") for p in (ROOT / d).glob("*.py")
)


#: Every Python file that may reference the package's private names.
SOURCES = sorted(p for d in ("src", "tests", "demos", "perfbench") for p in (ROOT / d).rglob("*.py"))


def _source(name: str) -> tuple[str, ast.Module]:
    """Text and syntax tree of a module by name, or of a script by its path."""
    if name.endswith(".py"):
        path = ROOT / name
    else:
        path = Path(importlib.import_module(name).__file__)
    text = path.read_text(encoding="utf-8")
    return text, ast.parse(text, filename=str(path))


def _all_names(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def _imports(text: str, tree: ast.Module):
    """(bound name, line, kept on purpose) for each name an import in
    ``tree`` binds; an import is kept on purpose when marked ``# noqa: F401``."""
    lines = text.splitlines()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                yield bound, alias.lineno, "noqa: F401" in lines[alias.lineno - 1]


def unused_imports(text: str, tree: ast.Module) -> list[str]:
    """Names bound by imports in ``tree`` that nothing reads or re-exports."""
    imported = {name: line for name, line, kept in _imports(text, tree) if not kept}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= set(_all_names(tree))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in _all_names(_source(name)[1]) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES + SCRIPTS)
def test_no_unused_imports(name):
    assert unused_imports(*_source(name)) == []


def test_unused_import_is_found():
    text = "import math\nimport os  # noqa: F401\nfrom numpy import pi, e\nx = pi\n"
    assert unused_imports(text, ast.parse(text)) == ["math (line 1)", "e (line 3)"]


def _tracer_patches() -> set[tuple[str, str]]:
    """(module, attribute) of each entry of ``PATCHES`` in perfbench/tracer.py,
    read from its syntax tree: the names the tracer replaces while it runs."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["PATCHES"]:
            return {(e.elts[0].value, e.elts[1].value) for e in node.value.elts}
    return set()


def unpatched_kept_imports(module: str, text: str, tree: ast.Module, patched) -> list[str]:
    """Imports of ``tree`` kept on purpose (``# noqa: F401``) whose name is not
    an attribute of ``module`` that ``patched`` lists: a kept import needs the
    reason that the tracer patches it there."""
    return [
        f"{name} (line {line})"
        for name, line, kept in _imports(text, tree)
        if kept and (module, name) not in patched
    ]


@pytest.mark.parametrize("name", MODULES)
def test_kept_imports_are_patched(name):
    assert unpatched_kept_imports(name, *_source(name), _tracer_patches()) == []


def test_unpatched_kept_import_is_found():
    text = "from a import f  # noqa: F401\nfrom a import g  # noqa: F401\nimport h\nh.x = 1\n"
    patched = {("m", "f"), ("n", "g"), ("m", "h")}
    assert unpatched_kept_imports("m", text, ast.parse(text), patched) == ["g (line 2)"]


def _references(tree: ast.AST) -> Counter:
    """Names that ``tree`` reads: loaded names, attributes, imported names and
    string constants (as ``monkeypatch.setattr`` takes them)."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs[node.name] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs[node.value] += 1
    return refs


def dead_private_names(modules: list[ast.Module], sources: list[ast.Module]) -> list[str]:
    """Module-level private names (one leading underscore) of ``modules`` that
    no tree of ``sources`` reads outside the name's own definition."""
    refs = sum((_references(tree) for tree in sources), Counter())
    dead = []
    for tree in modules:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                private = name.startswith("_") and not name.startswith("__")
                if private and refs[name] == _references(node)[name]:
                    dead.append(name)
    return dead


def test_no_dead_private_names():
    modules = [_source(name)[1] for name in MODULES]
    sources = [ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES]
    assert dead_private_names(modules, sources) == []


def test_dead_private_name_is_found():
    module = ast.parse(
        "_A = 1\n_B: int = 2\n__C = 3\n"
        "def _f():\n    return _f()\n"
        "def _g():\n    return _A\n"
        "class _K:\n    pass\n"
    )
    user = ast.parse("from m import _g\nmonkeypatch.setattr(m, '_K', None)\n")
    assert dead_private_names([module], [module, user]) == ["_B", "_f"]


#: Public names that nothing outside the tests reads, each with the reason it
#: stays public.
KEPT = {
    "ddbound.dyson.Signature": "result type of signature",
    "ddbound.dyson.OrderCertification": "result type of verify_orders",
    "ddbound.sequences.PulseEvent": "result type: the events of qdd_schedule and nudd_schedule",
    "ddbound.sequences.SwitchingProfile": "result type of switching_qdd",
    "ddbound.simulator.HamiltonianModel": "result type of build_model",
    "ddbound.simulator.ScalingFit": "result type of fit_scaling",
    "ddbound.dyson.signature": "the word-sum engine that ROADMAP items 2, 3 and 5 build on",
    "ddbound.qdd_bounds.delta_tail": "the paper's Delta_d, frozen in test_one_point_frozen.py",
    "ddbound.nudd_bounds.nudd_delta": "the paper's Delta_d, frozen in test_one_point_frozen.py",
    "ddbound.simulator.MAX_TOTAL_DIM": "the stack size cap that the README documents",
}

#: Files whose reads count as uses of a public name: the package itself (but
#: not the facade, which only re-exports), the demos and the benchmark, tests
#: excluded.
USERS = {
    **{name: _source(name)[1] for name in MODULES if name != "ddbound"},
    **{
        path.relative_to(ROOT).as_posix(): ast.parse(path.read_text(encoding="utf-8"))
        for d in ("demos", "perfbench")
        for path in (ROOT / d).rglob("*.py")
        if "tests" not in path.relative_to(ROOT).parts
    },
}


def unused_public_names(users: dict[str, ast.Module], kept) -> list[str]:
    """``module.name`` for each name in the ``__all__`` of a module among
    ``users`` that no other tree of ``users`` reads and ``kept`` does not list,
    then each entry of ``kept`` that is not such a name, as ``stale ...``."""
    unused = set()
    for module, tree in users.items():
        refs = sum((_references(t) for key, t in users.items() if key != module), Counter())
        unused |= {f"{module}.{name}" for name in _all_names(tree) if not refs[name]}
    return sorted(unused - set(kept)) + [f"stale {k}" for k in sorted(set(kept) - unused)]


def test_public_names_have_users():
    assert unused_public_names(USERS, KEPT) == []


def test_unused_public_name_is_found():
    module = ast.parse("__all__ = ['used', 'unused', 'kept']\nused = unused = kept = 1\n")
    user = ast.parse("from m import used\n")
    kept = {"m.kept": "reason", "m.used": "stale: it has a user", "m.gone": "stale: no such name"}
    assert unused_public_names({"m": module, "demo.py": user}, kept) == [
        "m.unused", "stale m.gone", "stale m.used",
    ]


def facade_mismatches(tree: ast.Module, facade, modules) -> list[str]:
    """Names of the facade's ``__all__`` (``tree``, module object ``facade``)
    that are not the very object of the same name in the ``__all__`` of the
    module in ``modules`` that the facade imports them from.  A name the
    facade assigns itself (``__version__``) needs no module."""
    origin = {
        alias.asname or alias.name: (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    own = {
        t.id
        for node in tree.body
        if isinstance(node, ast.Assign)
        for t in node.targets
        if isinstance(t, ast.Name)
    }
    bad = []
    for name in _all_names(tree):
        if name in own:
            continue
        module, source = origin.get(name, (None, name))
        found = modules.get(module)
        if (
            found is None
            or source not in getattr(found, "__all__", ())
            or getattr(facade, name, None) is not getattr(found, source, None)
        ):
            bad.append(name)
    return bad


def test_facade_reexports_module_names():
    modules = {name.split(".")[1]: importlib.import_module(name) for name in MODULES[1:]}
    assert facade_mismatches(_source("ddbound")[1], ddbound, modules) == []


def test_facade_mismatch_is_found():
    tree = ast.parse(
        "from .m import a, _b, c\n__version__ = '1'\n"
        "__all__ = ['__version__', 'a', '_b', 'c', 'd']\n"
    )
    a, b = object(), object()
    m = SimpleNamespace(__all__=["a", "c"], a=a, _b=b, c=object())
    facade = SimpleNamespace(__version__="1", a=a, _b=b, c=object())
    assert facade_mismatches(tree, facade, {"m": m}) == ["_b", "c", "d"]
