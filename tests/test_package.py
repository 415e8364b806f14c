"""The lazy package namespace: every exported name resolves to its defining module's object."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bratteli


def test_every_exported_name_resolves_to_its_defining_object():
    for module, names in bratteli._EXPORTS.items():
        defining = importlib.import_module(f"bratteli.{module}")
        for name in names:
            assert getattr(bratteli, name) is getattr(defining, name)
    assert sorted(bratteli.__all__) == sorted(bratteli._MODULE_OF)
    assert set(bratteli.__all__) <= set(dir(bratteli))


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from bratteli import *", namespace)
    assert set(bratteli.__all__) <= set(namespace)
    assert namespace["heights"] is bratteli.diagram.heights
    assert namespace["compare_eigen_vs_extension"] is bratteli.spectral.compare_eigen_vs_extension


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        bratteli.no_such_name


def test_layer_modules_load_on_attribute_access():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = "import bratteli; print(bratteli.spectral.__name__, bratteli.cli.__name__)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60, env=env)
    assert out.stdout.split() == ["bratteli.spectral", "bratteli.cli"]
