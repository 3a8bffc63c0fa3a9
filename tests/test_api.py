"""Public surface: every exported name of every module resolves."""

import importlib
import importlib.util
import inspect
import pathlib

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


def _bindings() -> dict:
    """Every name bound by a liesuper module or by a class defined in one."""
    seen = {}
    for name in MODULES:
        module = importlib.import_module(f"liesuper.{name}")
        classes = [c for _, c in inspect.getmembers(module, inspect.isclass)
                   if c.__module__ == module.__name__]
        for owner in [module, *classes]:
            seen.update({(owner, attr): value for attr, value in vars(owner).items()})
    return seen


def test_benchmark_tracer_installs_and_uninstalls():
    # the traced benchmark run (perfbench/run.py --trace 1) wraps liesuper's
    # functions and methods by name; a deleted or renamed one fails install
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    package = importlib.import_module("liesuper")
    before = _bindings()
    tracer = spans.Tracer(package)
    try:
        tracer.install()
        # the tracer rebuilds each lift with dataclasses.replace
        sys_ = importlib.import_module("liesuper.odeint").lift_sode("mdpi")
        assert sys_.rhs(0.0, 1.0, 0.0) == -1.0
        assert tracer.stat("odeint.lift_sode")[0] == 1
        assert tracer.stat("odeint.rhs")[0] == 1
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def _immutable_values():
    """One value of each immutable type, with an attribute it holds."""
    from liesuper.algebra import Matrix3
    from liesuper.coeffexpr import parse_expr
    from liesuper.exactpoly import Polynomial, RationalFunction, VectorField

    e = parse_expr("t + 1")
    assert e.eval(0.0) == 1.0  # its kernel is cached on the node
    p = Polynomial.variable("x", ("x", "v"))
    two = Polynomial.constant(2, ("x", "v"))
    return [(e, "right"), (e, "_fn"), (p, "terms"),
            (Matrix3([[1, 0, 0], [0, -1, 0], [0, 0, 0]]), "rows"),
            (RationalFunction(p, two), "num"),
            (VectorField((p, two), ("x", "v")), "components")]


@pytest.mark.parametrize("index", range(6))
def test_deleting_an_attribute_raises(index):
    value, attr = _immutable_values()[index]
    before = (str(value), getattr(value, attr))
    with pytest.raises(AttributeError, match="immutable"):
        delattr(value, attr)
    with pytest.raises(AttributeError, match="immutable"):
        setattr(value, attr, None)
    assert (str(value), getattr(value, attr)) == before
