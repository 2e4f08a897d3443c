"""The package's export lists name only what its modules define, and its
record types are plain named tuples."""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys

import pytest

import wmle
from wmle import cli, expfam, families, mwle, pipeline

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
    # Each caller gets the one value these took: numpy.genfromtxt reads a
    # sweep CSV, check_minimality takes a seed and draws from the model's
    # sampler, the solver caps Newton at expfam._MAX_ITER, and every label
    # other than DEMOCRAT and REPUBLICAN counts as OTHER.
    assert not hasattr(cli.SweepTable, "from_csv")
    # fit solves by the model's closed form, else Newton, and a dataset is
    # always checked: fit builds none, so no caller needs to skip the checks.
    for function, removed in ((mwle.fit, "seed"), (mwle.fit, "method"),
                              (expfam.check_minimality, "x_sample"),
                              (expfam.inverse_mean_map, "max_iter"),
                              (pipeline.aggregate, "party_mapping")):
        assert removed not in inspect.signature(function).parameters, function.__name__
    assert list(inspect.signature(expfam.WeightedDataset).parameters) == ["observations", "weights"]


def test_names_resolve_lazily_after_a_bare_import():
    # In a fresh interpreter, so that no other test has imported a submodule.
    probe = """
import wmle
assert all(getattr(wmle, name) is not None for name in wmle.__all__)
for module in wmle._EXPORTS:
    assert getattr(wmle, module) is importlib.import_module("wmle." + module), module
assert wmle.fit is wmle.mwle.fit
assert set(wmle.__all__) <= set(dir(wmle))
assert wmle.__all__ == [*wmle._SOURCE, "__version__"]
try:
    wmle.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("an unknown name resolved")
"""
    src = os.path.dirname(os.path.dirname(wmle.__file__))
    result = subprocess.run([sys.executable, "-c", "import importlib" + probe],
                            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


RECORDS = [
    (expfam, "MinimalityVerdict"),
    (expfam, "_SolveInfo"),
    (families, "MultinomialFixture"),
    (mwle, "FitDiagnostics"),
    (mwle, "FitResult"),
    (mwle, "SubclassReport"),
    (pipeline, "RejectedRow"),
    (pipeline, "LoadResult"),
]


@pytest.mark.parametrize("module, name", RECORDS)
def test_records_are_immutable_named_tuples(module, name):
    record_type = getattr(module, name)
    fields = record_type._fields
    values = tuple(range(len(fields)))
    record = record_type(*values)
    assert record == record_type(**dict(zip(fields, values))) == values
    assert repr(record) == f"{name}(" + ", ".join(f"{f}={v}" for f, v in zip(fields, values)) + ")"
    with pytest.raises(AttributeError):
        setattr(record, fields[0], -1)
    assert record._replace(**{fields[0]: -1})[0] == -1 and record[0] == 0
