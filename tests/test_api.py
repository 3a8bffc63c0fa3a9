"""Public surface: every exported name of every module resolves."""

import importlib

import pytest

MODULES = ["algebra", "cli", "coeffexpr", "exactpoly", "odeint", "riccati",
           "superpose", "worked_example"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"liesuper.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
    namespace = {}
    exec(f"from liesuper.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_package_imports():
    package = importlib.import_module("liesuper")
    assert package.__version__
