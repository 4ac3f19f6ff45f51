"""Every top-level import of a library module is used: a name imported and
never read is dead code that the next reader has to rule out. A package
module may keep one for others to import from it, on a line that says it
is re-exported. The package's __init__ imports to re-export and is not
checked. Likewise every private top-level function or class of a library
module is read by the package: one that only tests read has outlived its
last caller."""

import ast
from pathlib import Path

import pytest

PACKAGE = sorted((Path(__file__).resolve().parents[1] / "src" / "coarselik").glob("*.py"))
SOURCES = [p for p in PACKAGE if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """The names that top-level imports of `source` bind and the module
    never reads, except on lines that say `re-exported`."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if "re-exported" not in lines[alias.lineno - 1]:
                    bound[name] = alias.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
              "from .models import (\n    IntensityModel,\n    JumpHistory,  # re-exported\n)\n"
              "x = np.zeros(1)\n")
    assert unused_imports(source) == ["line 2: os", "line 5: IntensityModel"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unread_privates(sources: dict[str, str]) -> list[str]:
    """The private top-level functions and classes of each module of
    `sources` ({module name: source}) that no module of them reads: by name
    in its own module, or imported from it by name into another."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    imported = {(node.module.rsplit(".", 1)[-1], alias.name)
                for tree in trees.values() for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module for alias in node.names}
    unread = []
    for name, tree in trees.items():
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unread += [f"{name} line {node.lineno}: {node.name}" for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                   and node.name.startswith("_") and not node.name.startswith("__")
                   and node.name not in read and (name, node.name) not in imported]
    return unread


def test_the_check_finds_an_unread_private():
    sources = {
        "models": ("def _read():\n    pass\n\n\ndef _imported():\n    pass\n\n\n"
                   "def _dead():\n    pass\n\n\nclass _Dead:\n    pass\n\n\n"
                   "def __getattr__(name):\n    pass\n\n\nx = _read()\n"),
        "inference": "from .models import _imported\n\ny = _imported()\n",
    }
    assert unread_privates(sources) == ["models line 9: _dead", "models line 13: _Dead"]


def test_no_unread_private_top_level_name():
    assert unread_privates({p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}) == []
