"""The package's public names: every ``__all__`` entry resolves."""

import importlib
import pkgutil

import pytest

import assim

MODULES = ["assim"] + [f"assim.{info.name}" for info in pkgutil.iter_modules(assim.__path__)
                       if info.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_every_name(name):
    namespace = {}
    exec(f"from {name} import *", namespace)    # raises on a name that does not resolve
    assert set(importlib.import_module(name).__all__) <= set(namespace)
