"""Every top-level import of a library module is used: a name imported and
never read is dead code that the next reader has to rule out. A package
module may keep one for others to import from it, on a line that says it
is re-exported. The package's __init__ imports to re-export and is not
checked. Likewise every private top-level function or class of a library
module is read by the package: one that only tests read has outlived its
last caller."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coarselik
import coarselik.cli

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


def test_every_public_name_is_its_defining_modules_object():
    assert len(set(coarselik.__all__)) == len(coarselik.__all__)
    for name in coarselik.__all__:
        obj = getattr(coarselik, name)
        assert obj.__module__.startswith("coarselik."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_star_import_and_dir_cover_every_public_name():
    namespace = {}
    exec("from coarselik import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(coarselik.__all__)
    assert {namespace[name] for name in coarselik.__all__} == {
        getattr(coarselik, name) for name in coarselik.__all__}
    listed = dir(coarselik)
    assert set(coarselik.__all__) <= set(listed)
    assert {p.stem for p in SOURCES} - {"__main__"} <= set(listed)


def test_an_unknown_name_raises_attribute_error():
    for module in (coarselik, coarselik.cli):
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name
        assert not hasattr(module, "__main__")


FRESH_IMPORT = """\
import sys
import coarselik
print(*sorted(m for m in sys.modules if m.startswith("coarselik") or m == "numpy"))
print(coarselik.io.load_model_config.__module__)
print(coarselik.fit_mle.__module__, coarselik.ParametricFamily.__module__)
print("inference" in dir(coarselik), "quadrature" in dir(coarselik))
"""


def test_a_bare_import_loads_the_package_file_alone():
    # a fresh interpreter: each submodule and public name loads on first access
    src = PACKAGE[0].parents[1]
    proc = subprocess.run([sys.executable, "-c", FRESH_IMPORT], capture_output=True, text=True,
                          timeout=300, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "coarselik", "coarselik.io", "coarselik.inference coarselik.models", "True True"]
