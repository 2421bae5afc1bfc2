import ast
import importlib
import re
from pathlib import Path

import pytest

import schurlab
from schurlab import vschur

_SUBMODULES = ("ffield", "mpoly", "vschur", "factor", "newton")
_ROOT = Path(__file__).parents[1]


def test_every_public_name_is_its_defining_modules_object():
    names = [name for name in schurlab.__all__ if name not in _SUBMODULES]
    assert schurlab.__all__ == names + list(_SUBMODULES)
    assert len(set(names)) == 49
    for name in names:
        module = importlib.import_module(f"schurlab.{schurlab._EXPORTS[name]}")
        assert getattr(schurlab, name) is vars(module)[name], name
    assert set(schurlab.__all__) <= set(dir(schurlab))


def test_a_public_name_reads_its_module_at_lookup(monkeypatch):
    monkeypatch.setattr(vschur, "t_poly", "patched")
    assert schurlab.t_poly == "patched"


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from schurlab import *", namespace)
    del namespace["__builtins__"]
    # the 49 public names and the five submodules, as when the package
    # imported every submodule eagerly
    assert set(namespace) == set(schurlab.__all__)
    assert all(value is getattr(schurlab, name) for name, value in namespace.items())


def test_an_unknown_name_is_refused():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        schurlab.no_such_name
    with pytest.raises(ImportError):
        exec("from schurlab import no_such_name", {})


def test_submodules_import_from_the_package():
    namespace = {}
    exec(f"from schurlab import {', '.join(_SUBMODULES)}", namespace)
    assert [namespace[name].__name__ for name in _SUBMODULES] == [
        f"schurlab.{name}" for name in _SUBMODULES]


def test_the_readme_example_runs():
    readme = (_ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    example = next(block for block in blocks if "from schurlab import (" in block)
    exec(example, {})


def _unused_imports(path, exempt) -> list[str]:
    """The names path imports, bar those from __future__ and exempt, that
    it never reads, as ``file:line name``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.partition(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | set(exempt)
    return [f"{path.relative_to(_ROOT)}:{line} {name}"
            for name, line in imported.items() if name not in read]


def test_no_module_imports_a_name_it_never_uses():
    # a name in a module's __all__ is imported to be exported
    unused = []
    for path in sorted((_ROOT / "src" / "schurlab").glob("*.py")):
        module = importlib.import_module("schurlab" if path.stem == "__init__" else f"schurlab.{path.stem}")
        unused += _unused_imports(path, getattr(module, "__all__", ()))
    for path in sorted((_ROOT / "tests").glob("*.py")):
        unused += _unused_imports(path, ())
    assert unused == []
