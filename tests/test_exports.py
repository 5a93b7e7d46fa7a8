"""Each module's __all__ names exactly its public top-level API."""

import importlib
import inspect
import pkgutil

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
