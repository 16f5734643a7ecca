"""Command-line interface.

Subcommands cover energies and inner products, reparameterizations,
gradient flows, the level-set geodesic solver, the counterexample
constructions, direction-function shape distances, Hausdorff
distances, and a quick self check.

Exit codes: 0 on success, 2 for usage errors (argparse), then the
exit_code of the error class: 3 for malformed inputs (InputDataError,
NotImmersedError, and any file that cannot be read or written, reported
as InputDataError), 4 for numerical failures (CFL violations, coarse
grids, stalled or blown-up flows, flat sets, level-set degeneration,
overflows). A failure writes one stderr line, which names its class.

A --config file holds key=value lines (# comments allowed) that seed
the defaults of every matching option; explicit flags override them.
"""

import argparse
import os
import sys

import numpy as np

from . import counterexamples, curveio, flows, homotopy, levelset, shapedist
from .curveio import _fmt, _format_block, _read_text
from .curves import SampledCurve, arclength, theta_grid
from .energies import ConformalFactor, EnergySpec, energy, inner_product
from .errors import CurveMetricsError, InputDataError, NumericalFailureError

MIN_CLI_SAMPLES = 16


def _read_config(path):
    config = {}
    for line_no, line in enumerate(_read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputDataError(
                f"{path}:{line_no}: expected key=value, got {line!r}"
            )
        key, value = line.split("=", 1)
        config[key.strip().replace("-", "_")] = value.strip()
    return config


class _ArgHelper:
    """add_argument wrapper that lets a config file reset the defaults.

    A parser of None stands for a subcommand that is not built: its
    options are still known to the config check, and their config values
    still converted, so a config file means the same for every command.
    A value outside an option's choices fails only if its command runs
    (main raises the parser's bad_config): reparam and dirshape share mode.
    """

    def __init__(self, config):
        self.config = config
        self.known = set()

    def add(self, parser, *names, **kw):
        dest = kw.get("dest") or names[-1].lstrip("-").replace("-", "_")
        self.known.add(dest)
        if dest in self.config:
            raw = self.config[dest]
            if kw.get("action") == "store_true":
                kw.setdefault("default", raw.lower() in ("1", "true", "yes", "on"))
            else:
                conv = kw.get("type", str)
                try:
                    kw["default"] = conv(raw)
                except ValueError:
                    raise InputDataError(
                        f"config value {dest}={raw!r} is not a valid "
                        f"{getattr(conv, '__name__', 'value')}"
                    )
                choices = kw.get("choices")
                if parser is not None and choices and kw["default"] not in choices:
                    msg = f"config value {dest}={raw!r} is not one of {', '.join(choices)}"
                    parser.set_defaults(bad_config=msg)
        if parser is not None:
            parser.add_argument(*names, **kw)


def _load_curve(path) -> SampledCurve:
    c = curveio.load_curve(path)
    if c.n_samples < MIN_CLI_SAMPLES:
        raise InputDataError(
            f"{path}: need at least {MIN_CLI_SAMPLES} samples, got {c.n_samples}"
        )
    return c


def _load_array(path) -> np.ndarray:
    if str(path).endswith(".json"):
        return curveio.load_curve_json(path).points
    return curveio.load_pointset_csv(path)


def _save_grid(path, C):
    if str(path).endswith(".npz"):
        curveio.save_grid_npz(path, C)
    else:
        curveio.save_grid_csv(path, C)


def _factor_from_args(args):
    """The --factor of args, or None when it is not given (flow's default)."""
    name = args.factor
    if name is None:
        return None
    if name == "identity":
        return ConformalFactor.identity()
    if name == "exp_length":
        return ConformalFactor.exp_length(args.factor_lam)
    if name == "length":
        return ConformalFactor.length()
    raise InputDataError(f"unknown conformal factor '{name}'")


def _spec_from_args(args) -> EnergySpec:
    return EnergySpec(
        kind=args.kind,
        A=args.A,
        alpha=args.alpha,
        beta=args.beta,
        factor=_factor_from_args(args),
    )


def _values_list(text, conv=float):
    try:
        return [conv(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise InputDataError(f"bad numeric list {text!r}")


def _whole(tok):
    """int of a whole-number token such as 2 or 2.0; 1.5 is an error naming it."""
    x = float(tok)
    if not x.is_integer():
        raise InputDataError(f"--values needs whole numbers, got {tok.strip()!r}")
    return int(x)


def _number(flag, above=None, at_least=None, auto=False):
    """Converter of a flag that takes a finite number, or `auto` (None) with auto.

    The number must also be > above and >= at_least where they are
    given. Any other token, nan and inf among them, raises
    InputDataError naming the flag, on the command line and in a
    --config file alike. A range that holds for only some kinds (A,
    alpha, beta, the factor's lambda) is the library's to check.
    """
    need = "a finite number"
    if above is not None:
        need += f" > {above:g}"
    if at_least is not None:
        need += f" >= {at_least:g}"
    if auto:
        need = "auto or " + need

    def convert(token):
        if auto and token == "auto":
            return None
        try:
            value = float(token)
        except ValueError:
            value = np.nan
        if not (
            np.isfinite(value)
            and (above is None or value > above)
            and (at_least is None or value >= at_least)
        ):
            raise InputDataError(f"{flag} takes {need}, got {token!r}")
        return value

    return convert


def _count(flag):
    """Converter of a flag that takes a whole number >= 0, as _number."""

    def convert(token):
        try:
            value = int(token)
        except ValueError:
            value = -1
        if value < 0:
            raise InputDataError(f"{flag} takes a whole number >= 0, got {token!r}")
        return value

    return convert


def _unit_circle(n=256) -> SampledCurve:
    th = theta_grid(n)
    return SampledCurve(points=np.stack([np.cos(th), np.sin(th)], axis=1))


def _translating_circle(n_theta=256, n_v=64, offset=1.0):
    def fn(th, v):
        return np.stack([np.cos(th) + offset * v, np.sin(th)], axis=1)

    return homotopy.sample_homotopy(fn, n_theta, n_v)


def _write_table(out, header, rows, title):
    block = np.asarray(rows, dtype=float).reshape(len(rows), len(header))
    text = (
        f"# counterexample: {title}\n# columns: {','.join(header)}\n"
        + _format_block(block)
    )
    if out:
        with open(out, "w") as f:
            f.write(text)
    sys.stdout.write(text)


def _cmd_energy(args):
    C = curveio.load_grid(args.grid)
    spec = _spec_from_args(args)
    report = energy(C, spec)
    print(
        f"kind={spec.kind} total={_fmt(report.total)} "
        f"n_theta={report.resolution[0]} n_v={report.resolution[1]} "
        f"quadrature={report.quadrature}"
    )
    if args.out:
        curveio.save_energy_report(args.out, report, spec)
    return 0


def _cmd_inner(args):
    c = _load_curve(args.curve)
    h = _load_array(args.h)
    k = _load_array(args.k)
    spec = EnergySpec(kind=args.metric, A=args.A, factor=_factor_from_args(args))
    value = inner_product(c, h, k, spec)
    print(f"inner={_fmt(value)}")
    return 0


def _cmd_reparam(args):
    C = curveio.load_grid(args.grid)
    if args.mode == "arclength":
        result = homotopy.reparam_arclength(C)
        print(f"mode=arclength residual={_fmt(homotopy.max_tangential_speed(result))}")
    elif args.mode == "horizontal":
        res = homotopy.reparam_horizontal(C)
        result = res.grid
        print(f"mode=horizontal residual={_fmt(res.residual)}")
    else:
        phi = homotopy.optimal_unwind_shift(C)
        result = homotopy.shift_unwind(C, phi)
        print(f"mode=unwind total_shift={_fmt(phi[-1])}")
    _save_grid(args.out, result)
    return 0


def _cmd_flow(args):
    dump_every = args.dump_every
    prefix = args.out_prefix

    if args.kind in ("heat", "mm"):
        c = _load_curve(args.curve)
        A = None if args.kind == "heat" else args.A
        loop = flows.iter_curve_flow(c, A, args.dt, steps=args.steps)
        lengths = []
        for step, (length, c) in enumerate(loop, start=1):
            lengths.append(length)
            if prefix and dump_every and step % dump_every == 0:
                curveio.save_curve_csv(f"{prefix}{step:06d}.csv", c)
        lengths.append(arclength(c))
        print(
            f"kind={args.kind} steps={args.steps} "
            f"length_initial={_fmt(lengths[0])} length_final={_fmt(lengths[-1])}"
        )
        if prefix:
            curveio.save_curve_csv(f"{prefix}final.csv", c)
        return 0

    C = curveio.load_grid(args.grid)
    # Without --factor the conformal run uses e^(lam L), lam from --lam
    # or stable_lambda; state.lam is the lambda the run used.
    factor = _factor_from_args(args)
    # One run; the dumps read its grids, so they cannot change its output.
    loop = flows.iter_homotopy_flow(
        C, kind=args.kind, steps=args.steps, dt=args.dt, factor=factor, lam=args.lam,
        drop_magnitude=args.drop_magnitude, renormalize_every=args.renormalize_every,
        stop_displacement=args.stop_displacement,
    )
    for k, grid, state in loop:
        if prefix and dump_every and (k % dump_every == 0 or state is not None):
            _save_grid(f"{prefix}{k:06d}.npz", grid)
    energies = state.energy_trace
    print(
        f"kind={args.kind} steps={state.steps} lam={_fmt(state.lam)} "
        f"energy_initial={_fmt(energies[0])} energy_final={_fmt(energies[-1])} "
        f"blew_up={state.blew_up}"
    )
    if prefix:
        _save_grid(f"{prefix}final.npz", state.grid)
    return 4 if state.blew_up else 0


def _cmd_geodesic(args):
    c0 = _load_curve(args.c0)
    c1 = _load_curve(args.c1)
    result = levelset.run_geodesic(
        c0,
        c1,
        nx=args.nx,
        ny=args.ny,
        nv=args.nv,
        max_steps=args.steps,
        tol=args.tol,
    )
    os.makedirs(args.out, exist_ok=True)
    for j, loops in enumerate(result.contours.contours):
        if loops:
            curveio.save_svg(os.path.join(args.out, f"slice_{j:03d}.svg"), loops)
    trace = np.column_stack([
        np.arange(len(result.energy_trace)), result.energy_trace, result.conformal_trace
    ])
    with open(os.path.join(args.out, "energy_trace.csv"), "w") as f:
        f.write("# columns: snapshot,energy,conformal_energy\n" + _format_block(trace))
    curveio.save_obj(os.path.join(args.out, "surface.obj"), result.homotopy)
    with open(os.path.join(args.out, "summary.txt"), "w") as f:
        f.write(f"converged={result.converged}\n")
        f.write(f"steps={result.steps}\n")
        f.write(f"residual={_fmt(result.residual)}\n")
        f.write(f"lam={_fmt(result.lam)}\n")
        f.write(f"energy_initial={_fmt(result.energy_trace[0])}\n")
        f.write(f"energy_final={_fmt(result.energy_trace[-1])}\n")
    print(
        f"converged={result.converged} steps={result.steps} "
        f"residual={_fmt(result.residual)} "
        f"energy_initial={_fmt(result.energy_trace[0])} "
        f"energy_final={_fmt(result.energy_trace[-1])}"
    )
    return 0


def _cmd_counterexample(args):
    name = args.name
    if name == "winding":
        ks = _values_list(args.values or "1,2,3", _whole)
        base = (
            curveio.load_grid(args.grid) if args.grid else _translating_circle()
        )
        rows = []
        for k in ks:
            Ck = counterexamples.winding_family(base, k)
            geom = energy(Ck, EnergySpec(kind="geom_H0")).total
            param = energy(Ck, EnergySpec(kind="param_H0")).total
            rows.append((k, geom, param))
        _write_table(args.out, ["k", "geom_energy", "param_energy"], rows, name)
    elif name == "wiggle":
        js = _values_list(args.values or "1,2,4,8,16", _whole)
        rows = []
        for j in js:
            C = counterexamples.graph_wiggle(j)
            e = energy(C, EnergySpec(kind="alpha_beta", alpha=2.0, beta=1.0)).total
            rows.append((j, e))
        _write_table(args.out, ["j", "energy"], rows, name)
    elif name == "tessellation":
        hs = _values_list(args.values or "1,2,4", _whole)
        base = counterexamples.conformal_stretch(0.25, 1.0)
        rows = []
        for h in hs:
            C = counterexamples.tessellate(base, h)
            e = energy(C, EnergySpec(kind="alpha_beta", alpha=2.0, beta=1.0)).total
            rows.append((h, e))
        _write_table(args.out, ["h", "energy"], rows, name)
    elif name == "zigzag":
        ks = _values_list(args.values or "4,8,16,32", _whole)
        c1 = _unit_circle()
        rows = []
        for k in ks:
            cone = counterexamples.zigzag_cone(k, c1)
            first = cone.first_phase_energy()
            bound = 0.8 * np.pi**2 / k
            rows.append((k, first, bound, first + cone.second_phase_energy()))
        _write_table(args.out, ["k", "first_phase", "bound", "total"], rows, name)
    elif name == "pulley":
        hs = _values_list(args.values or "2,4,8", _whole)
        rows = []
        for h in hs:
            r = counterexamples.pulley(h)
            rows.append(
                (h, r.param_energy, r.max_normal_speed, r.slide_rate_max)
            )
        _write_table(
            args.out,
            ["h", "param_energy", "max_normal_speed", "slide_rate_max"],
            rows,
            name,
        )
    elif name == "stretch":
        eps_list = _values_list(args.eps)
        lam_list = _values_list(args.lam_values)
        rows = []
        for eps in eps_list:
            for lam in lam_list:
                C = counterexamples.conformal_stretch(eps, lam)
                spec = EnergySpec(kind="conformal", factor=ConformalFactor.length())
                rows.append((eps, lam, energy(C, spec).total))
        _write_table(args.out, ["eps", "lam", "energy"], rows, name)
    else:
        raise InputDataError(f"unknown counterexample '{name}'")
    return 0


def _cmd_dirshape(args):
    d1 = curveio.load_direction_csv(args.d1)
    if args.mode == "constraints":
        r = shapedist.dirfn_constraints(d1)
        print(f"residuals={_fmt(r[0])},{_fmt(r[1])},{_fmt(r[2])}")
    elif args.mode == "project":
        projected = shapedist.dirfn_project(d1)
        r = shapedist.dirfn_constraints(projected)
        print(f"residual_norm={_fmt(np.linalg.norm(r))}")
        if args.out:
            curveio.save_direction_csv(args.out, projected)
    else:
        if not args.d2:
            raise InputDataError("distance mode needs --d2")
        d2 = curveio.load_direction_csv(args.d2)
        value = shapedist.dirfn_distance(d1, d2, mode=args.distance_mode)
        print(f"distance={_fmt(value)}")
    return 0


def _cmd_hausdorff(args):
    if args.path:
        sets = [shapedist.CompactSet(_load_array(p)) for p in args.path]
        print(f"path_length={_fmt(shapedist.hausdorff_path_length(sets))}")
        return 0
    if not (args.a and args.b):
        raise InputDataError("hausdorff needs --a and --b (or --path)")
    a = shapedist.CompactSet(_load_array(args.a))
    b = shapedist.CompactSet(_load_array(args.b))
    print(f"distance={_fmt(shapedist.hausdorff_distance(a, b))}")
    return 0


def _selfcheck_battery(seed):
    rng = np.random.default_rng(seed)
    checks = []

    C = _translating_circle(n_theta=128, n_v=32)
    e = energy(C, EnergySpec(kind="geom_H0")).total
    checks.append(("translating circle normal energy", abs(e / np.pi - 1) < 0.01))

    from .energies import cross_identity_check, scaling_check

    r_en, r_j = scaling_check(C, 2.0)
    checks.append(("cubic and linear energy scaling", abs(r_en - 8.0) < 0.01 and abs(r_j - 2.0) < 0.01))

    residual = max(
        cross_identity_check(rng.normal(size=3), rng.normal(size=3))
        for _ in range(16)
    )
    checks.append(("norm splitting identity", residual < 1e-12))

    speeds = [flows.mm_normal_speed(k, 4.0) for k in (0.25, 0.5, 1.0)]
    checks.append(
        (
            "bounded-speed flow values",
            max(abs(s - t) for s, t in zip(speeds, (0.2, 0.25, 0.2))) < 1e-12,
        )
    )

    c = _unit_circle(128)
    final, lengths = flows.integrate_heat_flow(c, 0.125)
    radius = float(np.mean(np.linalg.norm(final.points, axis=1)))
    checks.append(
        (
            "heat flow radius law",
            abs(radius - np.sqrt(0.75)) < 0.01 and np.all(np.diff(lengths) < 0),
        )
    )

    res = homotopy.reparam_horizontal(C)
    checks.append(("horizontal reparameterization residual", res.residual < 1e-2))

    from .energies import holder_length_check

    checks.append(("length Holder bound", holder_length_check(C) <= 1.0 + 1e-3))
    return checks


def _cmd_selfcheck(args):
    checks = _selfcheck_battery(args.seed)
    failed = 0
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failed += 0 if ok else 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    if failed:
        raise NumericalFailureError(f"{failed} self checks failed")
    return 0


# Subcommand name: (help, handler), in the order --help lists them.
_COMMANDS = {
    "energy": ("evaluate a homotopy energy", _cmd_energy),
    "inner": ("metric inner product of two deformations", _cmd_inner),
    "reparam": ("reparameterize a homotopy", _cmd_reparam),
    "flow": ("gradient flows of curves and homotopies", _cmd_flow),
    "geodesic": ("level-set geodesic between two curves", _cmd_geodesic),
    "counterexample": ("energy tables for the counterexamples", _cmd_counterexample),
    "dirshape": ("direction-function preshape operations", _cmd_dirshape),
    "hausdorff": ("Hausdorff distances between point sets", _cmd_hausdorff),
    "selfcheck": ("run the built-in numerical battery", _cmd_selfcheck),
}

# The top-level long options; all but --help take a value.
_TOP_OPTIONS = ("--config", "--seed", "--threads", "--help")


def _scan_argv(argv):
    """(the --config path, the subcommand) argv gives, each None if it gives none.

    Walks argv as the top-level parser does. A token names an option by
    its full name or by a prefix that names it alone, with or without
    '=value', argparse's abbreviation rule; an option without '=value'
    takes the next token. The first token that is not an option is the
    command. Help, '--' and any other option end the walk with no
    command: only the full parser can tell what argv runs.
    """
    path = None
    tokens = iter(argv)
    for token in tokens:
        if not token.startswith("-"):
            return path, (token if token in _COMMANDS else None)
        name, eq, value = token.partition("=")
        named = [o for o in _TOP_OPTIONS if o.startswith(name)]
        if not name.startswith("--") or len(named) != 1 or named[0] == "--help":
            return path, None
        if not eq:
            value = next(tokens, None)
        if named[0] == "--config":
            path = value
    return path, None


def build_parser(config=None, command=None):
    """The argparse tree and its _ArgHelper, with only the subparser `command` names.

    Every option is still registered with the helper, so the config check
    and the usage line are those of the full tree.
    """
    config = config or {}
    helper = _ArgHelper(config)
    parser = argparse.ArgumentParser(
        prog="curvemetrics",
        description="Geometries on the space of closed curves: energies, "
        "reparameterizations, flows, geodesics, counterexamples.",
    )
    parser.add_argument("--config", help="key=value defaults file")
    helper.add(parser, "--seed", type=_count("--seed"), default=0,
               help="seed for stochastic checks")
    helper.add(
        parser,
        "--threads",
        type=_count("--threads"),
        default=1,
        help="accepted for interface compatibility; computations are single-threaded",
    )
    only = command if command in _COMMANDS else None
    # With one subcommand built, the usage line still lists them all.
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        metavar=None if only is None else "{" + ",".join(_COMMANDS) + "}",
    )

    def add_command(name):
        if only not in (None, name):
            return None
        help_text, handler = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        return p

    p = add_command("energy")
    helper.add(p, "--grid", "--homotopy", dest="grid", required=True)
    helper.add(p, "--kind", default="geom_H0")
    helper.add(p, "--alpha", type=_number("--alpha"), default=2.0)
    helper.add(p, "--beta", type=_number("--beta"), default=1.0)
    helper.add(p, "--A", type=_number("--A"), default=0.0)
    helper.add(p, "--factor", default="identity",
               choices=["identity", "exp_length", "length"])
    helper.add(p, "--factor-lam", type=_number("--factor-lam"), default=0.0)
    helper.add(p, "--out")

    p = add_command("inner")
    helper.add(p, "--curve", required=True)
    helper.add(p, "--h", required=True)
    helper.add(p, "--k", required=True)
    helper.add(p, "--metric", default="geom_H0")
    helper.add(p, "--A", type=_number("--A"), default=0.0)
    helper.add(p, "--factor", default="identity",
               choices=["identity", "exp_length", "length"])
    helper.add(p, "--factor-lam", type=_number("--factor-lam"), default=0.0)

    p = add_command("reparam")
    helper.add(p, "--grid", required=True)
    helper.add(p, "--mode", default="horizontal",
               choices=["arclength", "horizontal", "unwind"])
    helper.add(p, "--out", required=True)

    p = add_command("flow")
    helper.add(p, "--kind", default="heat", choices=["heat", "mm", "h0", "conformal"])
    helper.add(p, "--curve", help="input for heat and mm kinds")
    helper.add(p, "--grid", help="input for h0 and conformal kinds")
    helper.add(p, "--steps", type=_count("--steps"), default=100)
    helper.add(p, "--dt", type=_number("--dt", above=0.0, auto=True), default="auto")
    helper.add(p, "--A", type=_number("--A"), default=0.0)
    helper.add(p, "--lam", type=_number("--lam", auto=True), default="auto")
    helper.add(p, "--factor", default=None,
               choices=["identity", "exp_length", "length"],
               help="conformal factor; default e^(lam L)")
    helper.add(p, "--factor-lam", type=_number("--factor-lam"), default=0.0)
    helper.add(p, "--drop-magnitude", action="store_true")
    helper.add(p, "--renormalize-every", type=_count("--renormalize-every"), default=10)
    helper.add(p, "--stop-displacement", type=_number("--stop-displacement", at_least=0.0),
               default=0.0)
    helper.add(p, "--dump-every", type=_count("--dump-every"), default=0)
    helper.add(p, "--out-prefix")

    p = add_command("geodesic")
    helper.add(p, "--c0", required=True)
    helper.add(p, "--c1", required=True)
    helper.add(p, "--nx", type=_count("--nx"), default=64)
    helper.add(p, "--ny", type=_count("--ny"), default=64)
    helper.add(p, "--nv", type=_count("--nv"), default=17)
    helper.add(p, "--steps", type=_count("--steps"), default=1500)
    helper.add(p, "--tol", type=_number("--tol", at_least=0.0), default=1e-3)
    helper.add(p, "--out", required=True)

    p = add_command("counterexample")
    helper.add(p, "--name", "--family", dest="name", required=True,
               choices=["winding", "wiggle", "tessellation", "zigzag", "pulley", "stretch"])
    helper.add(p, "--values", "--k", dest="values",
               help="comma list of the primary parameter")
    helper.add(p, "--grid", help="optional base homotopy for winding")
    helper.add(p, "--eps", default="0.1,0.25", help="stretch: comma list of eps")
    helper.add(p, "--lam-values", default="0.5,1,2", help="stretch: comma list of lambda")
    helper.add(p, "--out")

    p = add_command("dirshape")
    helper.add(p, "--mode", default="constraints",
               choices=["constraints", "project", "distance"])
    helper.add(p, "--d1", required=True)
    helper.add(p, "--d2")
    helper.add(p, "--distance-mode", default="l2", choices=["l2", "quotient_shift"])
    helper.add(p, "--out")

    p = add_command("hausdorff")
    helper.add(p, "--a")
    helper.add(p, "--b")
    if p is not None:
        p.add_argument("--path", nargs="+", help="point-set files forming a path")

    p = add_command("selfcheck")

    return parser, helper


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        path, command = _scan_argv(argv)
        config = {} if path is None else _read_config(path)
        parser, helper = build_parser(config, command)
        unknown = set(config) - helper.known
        if unknown:
            raise InputDataError(
                f"config keys {sorted(unknown)} do not match any option"
            )
        args = parser.parse_args(argv)
        if getattr(args, "bad_config", None):
            raise InputDataError(args.bad_config)
        # Overflows surface as typed errors, not as numpy warnings.
        with np.errstate(all="ignore"):
            return args.handler(args)
    except CurveMetricsError as e:
        print(f"{e.__class__.__name__}: {e}", file=sys.stderr)
        return e.exit_code
    except OSError as e:
        print(f"InputDataError: {e.filename}: {e.strerror}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
