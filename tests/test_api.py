"""Guards on the shape of the public API of curvemetrics."""

import importlib
import inspect
import pkgutil

import curvemetrics


def _public_callables():
    """(qualified name, callable) of every public function and method in the package."""
    for info in pkgutil.iter_modules(curvemetrics.__path__):
        if info.name.startswith("_"):
            continue
        mod = importlib.import_module(f"curvemetrics.{info.name}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{mod.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and inspect.isfunction(member):
                        yield f"{mod.__name__}.{name}.{attr}", member


def test_the_walk_sees_the_stencils_and_the_frame():
    names = {name for name, _fn in _public_callables()}
    assert {
        "curvemetrics.curves.periodic_derivative",
        "curvemetrics.curves.open_derivative",
        "curvemetrics.homotopy.homotopy_frame",
        "curvemetrics.homotopy.HomotopyGrid.d_theta",
        "curvemetrics.flows.vstar_calculus",
    } <= names


def test_no_public_function_takes_a_stencil_order():
    # Every run uses the order-2 stencils; a second order would need a
    # second discretization of every kernel it reaches.
    offenders = [
        name
        for name, fn in _public_callables()
        if "order" in inspect.signature(fn).parameters
    ]
    assert offenders == []
