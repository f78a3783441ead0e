"""Static checks on the package source, in place of a lint tool.

Every name a module lists in ``__all__`` must exist, and no module, test or
demo may import a name it never uses (an import marked ``# noqa: F401`` is
kept on purpose).
"""

import ast
import importlib
import pkgutil
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
