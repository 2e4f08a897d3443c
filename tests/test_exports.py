"""The package's export lists name only what its modules define."""

import importlib
import pkgutil

import pytest

import wmle

MODULES = ["wmle", *(f"wmle.{info.name}" for info in pkgutil.iter_modules(wmle.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_binds_every_exported_name(name):
    module = importlib.import_module(name)
    namespace = {}
    exec(f"from {name} import *", namespace)  # an AttributeError names a missing export
    for export in module.__all__:
        assert namespace[export] is getattr(module, export), export


def test_removed_names_are_not_exported():
    # fit takes a ProportionMatrix's values as they are; no wrapper is exported.
    for name in MODULES:
        module = importlib.import_module(name)
        assert "to_weighted_dataset" not in module.__all__, name
        assert not hasattr(module, "to_weighted_dataset"), name
