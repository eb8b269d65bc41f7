"""The package's export lists name only what exists, numpy is its one dependency,
private names cross modules only where a rule is shared, and only io reads files."""

from __future__ import annotations

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
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


def test_no_module_imports_a_name_it_never_uses():
    for path in sorted(Path(lbrank.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in tree.body
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = set()
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                exported = set(ast.literal_eval(node.value))
        unused = sorted(imported - used - exported)
        assert not unused, f"{path.name} imports {unused} and never uses them"


# Private names cross modules only from core (its array checks), io (the file
# helpers: every file rule lives there) and linear's epoch loop, which the
# nested trainer runs in.
_OPEN_MODULES = {"core", "io"}
_EPOCH_LOOP = {("linear", "_run_epochs"), ("linear", "_check_steps"), ("linear", "_queries")}


def test_private_names_cross_modules_only_where_a_rule_is_shared():
    crossing = []
    for path in sorted(Path(lbrank.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        relative = [node for node in tree.body
                    if isinstance(node, ast.ImportFrom) and node.level == 1]
        # "from . import io as dataio" binds a module; "from .io import x" a name
        modules = {alias.asname or alias.name: alias.name
                   for node in relative if not node.module for alias in node.names}
        used = [(node.module, alias.name)
                for node in relative if node.module for alias in node.names]
        used += [(modules[node.value.id], node.attr) for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                 and node.value.id in modules]
        crossing += [f"{path.name} uses {module}.{name}" for module, name in used
                     if name.startswith("_") and not name.startswith("__")
                     and module not in _OPEN_MODULES and (module, name) not in _EPOCH_LOOP]
    assert not crossing


def _reads_a_file(call: ast.Call) -> bool:
    """Whether ``call`` reads a file: a read helper, or an ``open`` with no mode or a read mode."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in ("read_text", "read_bytes", "loadtxt"):
        return True
    if name != "open":
        return False
    mode = call.args[1] if len(call.args) > 1 else next(
        (keyword.value for keyword in call.keywords if keyword.arg == "mode"), None)
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("r+"))


def test_only_io_reads_files():
    reads = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(lbrank.__file__).parent.glob("*.py")) if path.name != "io.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and _reads_a_file(node)]
    assert not reads, f"only io reads files: {reads}"


def test_cli_import_loads_no_third_party_package_but_numpy():
    src = str(Path(lbrank.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    # packages a site hook loads at start-up are not lbrank's
    probe = ("import sys; before = set(sys.modules); import lbrank.cli; "
             "loaded = {m.split('.')[0] for m in set(sys.modules) - before}; "
             "print(sorted(loaded - set(sys.stdlib_module_names) - {'lbrank'}))")
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, check=True, timeout=120)
    assert result.stdout.strip() == "['numpy']"
