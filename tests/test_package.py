import importlib
import re
from pathlib import Path

import pytest

import schurlab
from schurlab import vschur

_SUBMODULES = ("ffield", "mpoly", "vschur", "factor", "newton")


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
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    example = next(block for block in blocks if "from schurlab import (" in block)
    exec(example, {})
