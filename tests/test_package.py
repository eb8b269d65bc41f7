"""The package's export lists name only what exists."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import lbrank


def test_every_module_all_name_resolves():
    for info in pkgutil.iter_modules(lbrank.__path__):
        module = importlib.import_module(f"lbrank.{info.name}")
        names = getattr(module, "__all__", [])
        assert len(names) == len(set(names)), f"{info.name}: duplicate __all__ entries"
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, f"lbrank.{info.name}.__all__ lists missing {missing}"


def test_package_all_matches_what_init_imports():
    tree = ast.parse(Path(lbrank.__file__).read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}
    assert sorted(lbrank.__all__) == sorted(imported | {"__version__"})
    missing = [name for name in lbrank.__all__ if not hasattr(lbrank, name)]
    assert not missing
