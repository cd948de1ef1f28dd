"""Every exported name resolves, in the package and in each of its modules."""

import importlib
import pkgutil

import pytest

import fracspec

MODULES = ["fracspec"] + [m.name for m in pkgutil.iter_modules(fracspec.__path__, "fracspec.")]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    assert [name for name in exported if not hasattr(module, name)] == []
