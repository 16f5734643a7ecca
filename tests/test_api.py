"""Guards on the shape of the public API of curvemetrics."""

import ast
import importlib
import inspect
import pathlib
import pkgutil

import numpy as np
import pytest

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


def _calls_by_function(path):
    """(enclosing function name, called name) of every call in a module."""
    calls = []

    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                calls.append((where, name))
            walk(child, inner)

    walk(ast.parse(path.read_text()), None)
    return calls


def test_derivative_frame_is_called_only_by_the_two_frame_builders():
    # Speeds and tangents of a curve are formed in curves.py, those of a
    # homotopy in homotopy._frame; any other call builds a second frame.
    src = pathlib.Path(curvemetrics.__file__).parent
    offenders = [
        f"{path.name}:{where}"
        for path in sorted(src.glob("*.py"))
        for where, name in _calls_by_function(path)
        if name == "derivative_frame"
        and path.name != "curves.py"
        and (path.name, where) != ("homotopy.py", "_frame")
    ]
    assert offenders == []


def test_the_level_set_state_and_step_hold_no_settable_knob():
    # Lambda is an argument of the step, the band width and the box
    # margin are module constants, and a step always takes the CFL dt.
    # A state is frozen: its march and fields are cached properties of
    # it, not fields, and no assignment can leave them stale.
    from dataclasses import FrozenInstanceError, fields

    from curvemetrics import levelset

    assert [f.name for f in fields(levelset.LevelSetGrid)] == ["psi", "xs", "ys", "vs", "t"]
    axis = np.linspace(0.0, 1.0, 8)
    L = levelset.LevelSetGrid(psi=np.ones((3, 8, 8)), xs=axis, ys=axis, vs=axis[:3])
    with pytest.raises(FrozenInstanceError):
        L.psi = np.zeros((3, 8, 8))
    assert list(inspect.signature(levelset.evolve_step).parameters) == ["L", "lam"]
    offenders = [
        f"{name}({param})"
        for name, fn in _public_callables()
        if name.startswith("curvemetrics.levelset.")
        for param in inspect.signature(fn).parameters
        if param in ("dt", "margin", "band_width", "n_theta")
    ]
    assert offenders == []


def test_the_fixed_constructions_and_checks_take_no_size_or_seed():
    # Every caller builds the counterexamples, draws the SVG and runs the
    # projection and the calculus checks at one setting, now a module
    # constant; a size, tolerance or seed coming back as a parameter
    # fails here.
    from curvemetrics import counterexamples, curveio, curves, flows, shapedist

    zigzag = counterexamples.ZigzagCone
    expected = {
        counterexamples.graph_wiggle: ["j"],
        counterexamples.conformal_stretch: ["eps", "lam"],
        counterexamples.pulley: ["h"],
        counterexamples.zigzag_cone: ["k", "c1"],
        zigzag.first_phase_energy: ["self"],
        zigzag.second_phase_energy: ["self"],
        zigzag.total_normal_energy: ["self"],
        curveio.save_svg: ["path", "polylines"],
        shapedist.dirfn_project: ["d"],
        flows.energy_derivative_check: ["C", "flow", "trials"],
        flows.commutator_check: ["C"],
    }
    for fn, params in expected.items():
        assert list(inspect.signature(fn).parameters) == params, fn.__qualname__
    assert [name for name in vars(curves.TangentFrame) if name.startswith("project")] == [
        "project_normal"
    ]


def test_the_flows_run_as_public_generators_the_cli_drains():
    # Each flow family has one public run generator; a one-step run is
    # the single step, so flows offers no step-level function, and the
    # command line reaches no private name of flows.
    from curvemetrics import flows

    offenders = [
        name
        for name, fn in vars(flows).items()
        if inspect.isfunction(fn)
        and fn.__module__ == flows.__name__
        and not name.startswith("_")
        and (name.endswith("_step") or name in ("heat_cfl_dt", "stability_margin"))
    ]
    assert offenders == []
    assert inspect.isgeneratorfunction(flows.iter_curve_flow)
    assert inspect.isgeneratorfunction(flows.iter_homotopy_flow)
    tree = ast.parse((pathlib.Path(curvemetrics.__file__).parent / "cli.py").read_text())
    private = [
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "flows"
        and node.attr.startswith("_")
    ]
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("flows")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private + imported == []
