"""Every exported name resolves.

Tools that walk a module's ``__all__`` (tracing wrappers, ``from savetx
import *``) fail on the first stale entry, so a name removed from a module
must leave its ``__all__`` too.
"""
import importlib

import pytest

import savetx as sx

LAYERS = ("models", "power", "solver", "simulate", "experiments", "tables")


def test_package_all_resolves():
    missing = [name for name in sx.__all__ if not hasattr(sx, name)]
    assert missing == []
    assert len(set(sx.__all__)) == len(sx.__all__)


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_all_resolves(layer):
    mod = importlib.import_module(f"savetx.{layer}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from savetx import *", namespace)
    assert set(sx.__all__) <= set(namespace)
