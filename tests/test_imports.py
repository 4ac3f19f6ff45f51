"""Every top-level import of a library module is used: a name imported and
never read is dead code that the next reader has to rule out. A package
module may keep one for others to import from it, on a line that says it
is re-exported. The package's __init__ imports to re-export and is not
checked."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted(p for p in (Path(__file__).resolve().parents[1] / "src" / "coarselik").glob("*.py")
                 if p.name != "__init__.py")


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
