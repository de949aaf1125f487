"""Every name a package lists in __all__ resolves, so a star import never
meets a stale entry left behind by a deleted function or class."""

import importlib

import pytest


@pytest.mark.parametrize("modname",
                         ["idastra", "idastra.engine", "idastra.learner"])
def test_every_exported_name_resolves(modname):
    module = importlib.import_module(modname)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
    namespace = {}
    exec(f"from {modname} import *", namespace)
    assert set(module.__all__) <= set(namespace)
