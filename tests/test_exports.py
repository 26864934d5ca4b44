"""Every exported name resolves, so a deleted class or function cannot leave
a stale entry in an ``__all__``."""

import importlib
import pkgutil

import pytest

import arczeta

MODULES = ["arczeta"] + [f"arczeta.{m.name}" for m in pkgutil.iter_modules(arczeta.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"
