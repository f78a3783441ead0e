"""Static checks on the package source, in place of a lint tool.

Every name a module lists in ``__all__`` must exist, no module, test or
demo may import a name it never uses (an import marked ``# noqa: F401`` is
kept on purpose), and every private module-level name of the package must be
referenced somewhere besides its definition.
"""

import ast
import importlib
import pkgutil
from collections import Counter
from pathlib import Path

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


def unused_imports(text: str, tree: ast.Module) -> list[str]:
    """Names bound by imports in ``tree`` that nothing reads or re-exports."""
    lines = text.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "noqa: F401" in lines[alias.lineno - 1]:
                    continue
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = alias.lineno
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
