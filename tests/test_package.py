"""The package namespace re-exports every library module's public names."""

from __future__ import annotations

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import sqenergy

MODULES = ("graphs", "families", "spectral", "partitions", "bounds", "lemmas", "canon", "enumeration", "survey")


def test_package_exports_the_union_of_the_module_lists():
    modules = [importlib.import_module(f"sqenergy.{name}") for name in MODULES]
    names = [name for module in modules for name in module.__all__]
    assert len(names) == len(set(names)), "two modules export one name"
    assert sorted(sqenergy.__all__) == sorted(["__version__", *names])
    assert len(sqenergy.__all__) == len(set(sqenergy.__all__))
    for module in modules:
        for name in module.__all__:
            assert getattr(sqenergy, name) is getattr(module, name), name


def test_the_cli_stays_out_of_the_package_imports():
    src = os.path.dirname(os.path.dirname(sqenergy.__file__))
    probe = "import sys, sqenergy; sys.exit('sqenergy.cli' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", probe], env=env).returncode == 0
    assert "main" not in sqenergy.__all__


def test_every_imported_name_is_read():
    for path in sorted(pathlib.Path(sqenergy.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":  # the package namespace imports to re-export
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
            for alias in node.names
        }
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        assert imported <= read, f"{path.name} never reads {sorted(imported - read)}"


def _imports(path: pathlib.Path) -> set[str]:
    """Every module a source file imports: relative ones as ".name"."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module is None:  # from . import name
            found.update("." * node.level + alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            found.add("." * node.level + node.module)
    return found


def test_bounds_holds_only_the_sweep_and_lemmas_stay_at_the_edge():
    package = pathlib.Path(sqenergy.__file__).parent
    bounds_imports = _imports(package / "bounds.py")
    assert {name for name in bounds_imports if name.startswith(".")} == {".graphs", ".spectral"}
    assert not any(name.split(".")[0] == "numpy" for name in bounds_imports)
    for path in sorted(package.glob("*.py")):
        if path.name not in ("__init__.py", "cli.py"):
            assert ".lemmas" not in _imports(path), f"{path.name} imports the lemmas"
    assert sorted(importlib.import_module("sqenergy.partitions").__all__) == sorted(
        [
            "Partition",
            "QuotientMatrix",
            "parse_partition",
            "quotient_matrix",
            "quotient_eigenvalues",
            "coarsest_equitable_refinement",
        ]
    )
