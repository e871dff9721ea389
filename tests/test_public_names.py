"""Every name a module lists in __all__ is defined there."""

import importlib
import pkgutil

import pytest

import uttrank

# __main__ runs the command line on import.
MODULES = sorted(m.name for m in pkgutil.iter_modules(uttrank.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"uttrank.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
