"""Every name a corrlab module exports in ``__all__`` exists, so a stale
export of a removed name fails here rather than at a user's import."""

import importlib
import pkgutil

import pytest

import corrlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(corrlab.__path__, "corrlab."))


def test_every_module_is_listed():
    assert "corrlab.modules" in MODULES and "corrlab.extension" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [x for x in getattr(module, "__all__", ()) if not hasattr(module, x)]
    assert not missing, f"{name}.__all__ names {missing}"
