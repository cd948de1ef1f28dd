"""Every exported name resolves, in the package and in each of its modules."""

import ast
import importlib
import inspect
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


def imported_names(tree: ast.Module) -> set[str]:
    """Names bound by the module's imports, `from __future__` aside."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


@pytest.mark.parametrize("module_name", MODULES[1:])
def test_no_unused_imports(module_name):
    # The package's __init__ only re-exports; elsewhere a name in __all__ counts as used.
    module = importlib.import_module(module_name)
    tree = ast.parse(inspect.getsource(module))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(getattr(module, "__all__", []))
    assert sorted(imported_names(tree) - used) == []
