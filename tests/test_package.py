"""The package namespace re-exports every library module's public names."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys

import sqenergy

MODULES = ("graphs", "families", "spectral", "partitions", "bounds", "canon", "enumeration", "survey")


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
