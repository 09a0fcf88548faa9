"""Package surface: every name a module exports resolves."""

import importlib
import pkgutil

import pytest

import conerec

_MODULES = [importlib.import_module(f"conerec.{info.name}")
            for info in pkgutil.iter_modules(conerec.__path__)]


@pytest.mark.parametrize("module", [m for m in _MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names {missing}"
