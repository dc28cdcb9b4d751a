"""The public surface: each submodule's `__all__`, and nothing at the package root."""

import ast
import importlib
import types
from pathlib import Path

import pytest

import sinegate

MODULES = ("signal_chain", "declare", "detector_model", "mc_engine", "lag_stats", "qkd_budget", "config",
           "cli", "table")


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_names_the_module_defines(name):
    module = importlib.import_module(f"sinegate.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [n for n in module.__all__ if n not in vars(module)]
    assert missing == []
    # a class or function is public where it is defined, not where it is imported
    foreign = [n for n in module.__all__
               if getattr(vars(module)[n], "__module__", module.__name__) != module.__name__]
    assert foreign == []


def test_package_root_exports_only_the_version():
    for name in MODULES:
        importlib.import_module(f"sinegate.{name}")  # submodules become attributes
    public = [n for n, v in vars(sinegate).items()
              if not n.startswith("_") and not isinstance(v, types.ModuleType)]
    assert public == []
    assert not hasattr(sinegate, "__all__")
    assert isinstance(sinegate.__version__, str)


def test_no_module_imports_another_modules_private_names():
    # a name one module shares with another is public where it is defined,
    # whether imported by name (`from .x import _y`) or read off the module (`x._y`)
    private = []
    for path in sorted(Path(sinegate.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = set()  # the names `from . import x [as y]` binds to sibling modules
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                if node.module is None:
                    modules |= {a.asname or a.name for a in node.names}
                private += [f"{path.name}: {a.name}" for a in node.names if a.name.startswith("_")]
        private += [f"{path.name}: {node.value.id}.{node.attr}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules and node.attr.startswith("_")]
    assert private == []
