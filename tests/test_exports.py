"""Every name a package lists in ``__all__`` is an attribute of it, so a
deleted function cannot stay exported."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["dialbench", "dialbench.policies"])
def test_every_exported_name_resolves(module):
    package = importlib.import_module(module)
    missing = [name for name in package.__all__ if not hasattr(package, name)]
    assert missing == []
