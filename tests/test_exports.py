"""Each module's __all__ names exactly its public top-level API, and
importing the package loads no scipy subpackage."""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import sagep

MODULES = sorted(info.name for info in pkgutil.iter_modules(sagep.__path__)
                 if info.name != "cli")


def load(name):
    return importlib.import_module(f"sagep.{name}")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = load(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_every_public_definition_is_exported(name):
    module = load(name)
    public = {n for n, obj in vars(module).items()
              if not n.startswith("_")
              and (inspect.isfunction(obj) or inspect.isclass(obj))
              and obj.__module__ == module.__name__}
    assert sorted(public - set(module.__all__)) == []


def test_import_leaves_scipy_stats_unloaded():
    # Each of these subpackages costs more to import than a short run takes
    # (scipy.optimize alone about 0.3 s, scipy.linalg about 0.2 s); the
    # package needs only scipy's compiled LAPACK module, which sagep.lapack
    # loads without scipy.linalg.
    heavy = ["scipy.linalg", "scipy.optimize", "scipy.spatial",
             "scipy.special", "scipy.stats"]
    code = (f"import sys, sagep; "
            f"print([m for m in {heavy!r} if m in sys.modules])")
    src = str(Path(sagep.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.strip() == "[]"
