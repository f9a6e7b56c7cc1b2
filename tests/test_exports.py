"""Every public export resolves: a name left in an ``__all__`` after its
definition is gone fails here, not at a user's ``import *``."""

import importlib
import pkgutil

import pytest

import rtopt

MODULES = ["rtopt"] + [f"rtopt.{m.name}" for m in pkgutil.iter_modules(rtopt.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(name)
    exports = getattr(module, "__all__", ())
    assert [e for e in exports if not hasattr(module, e)] == []
    assert len(set(exports)) == len(exports)
