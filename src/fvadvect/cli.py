"""Command-line driver: single runs, convergence studies, scheme analysis.

Exit codes: 0 success, 1 configuration error, 2 numerical failure (NaN),
3 I/O error.  All output is CSV with 17-significant-digit numbers so runs
are diffable and bit-reproducible.
"""

import argparse
import sys
import warnings

import numpy as np

from .analysis import (
    STABILITY_TOL,
    max_amplification,
    phase_dissipation_curve,
    phase_modes,
    stability_table,
)
from .driver import NumericsError, integrate
from .fct import LIMITER_MODES
from .grid import Grid, check_cells
from .problems import (
    IC_KINDS,
    convergence_study,
    initial_condition,
    standard_problem,
)
from .schemes import SCHEME_NAMES, default_product_order, scheme_coefficients
from .velocity import make_velocity

FMT = "%.17g"


class ConfigError(ValueError):
    pass


def _fmt(x):
    return FMT % float(x)


def read_config_file(path):
    """Parse ``key = value`` lines; '#' starts a comment."""
    entries = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, value = (part.strip() for part in line.split("=", 1))
                entries[key.replace("-", "_")] = value
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return entries


# Every option of ``run`` and ``converge``: its type in a config file and
# its default in each command (None: unset).
_OPTIONS = {
    "ic": (str, "square", "cosine8"),
    "velocity": (str, "constant", "constant"),
    "scheme": (str, "u9", "u5"),
    "order": (int, None, None),
    "sigma": (float, 0.8, 0.8),
    "n": (int, 128, None),
    "n_list": (str, None, "32,64,128,256"),
    "t_final": (float, 1.0, 1.0),
    "limiter": (str, "on", "on"),
    "radius": (float, None, None),
    "extent": (float, 1.0, None),
    "out": (str, None, None),
    "centerline": (str, None, None),
    "eta_stats": (str, None, None),
    "dump_every": (int, 0, None),
    "dump_prefix": (str, None, None),
    "dim": (int, None, None),
}
_COMMANDS = ("run", "converge")


def _configure(args, command):
    """Config file, then defaults, then the checks both commands share.

    Flags take precedence over the config file.  Sets ``args.n_list`` to
    the grid sizes to run: ``[n]`` for ``run``.
    """
    if getattr(args, "config", None):
        for key, raw in read_config_file(args.config).items():
            if key not in _OPTIONS:
                raise ConfigError(f"unknown config key: {key}")
            if getattr(args, key, None) is None:
                try:
                    setattr(args, key, _OPTIONS[key][0](raw))
                except ValueError as exc:
                    raise ConfigError(f"bad value for {key}: {raw!r}") from exc
    column = 1 + _COMMANDS.index(command)
    for key, spec in _OPTIONS.items():
        if getattr(args, key, None) is None:
            setattr(args, key, spec[column])
    if args.ic not in IC_KINDS:
        raise ConfigError(f"unknown ic {args.ic!r}; expected one of {', '.join(IC_KINDS)}")
    if args.velocity not in ("constant", "rotation"):
        raise ConfigError(f"unknown velocity {args.velocity!r}")
    if args.scheme not in SCHEME_NAMES:
        raise ConfigError(f"unknown scheme {args.scheme!r}")
    if args.limiter not in LIMITER_MODES:
        raise ConfigError(f"unknown limiter mode {args.limiter!r}")
    # checked before the stability probe, which reads sigma first
    if not 0.0 < args.sigma < np.inf:
        raise ConfigError(f"sigma must be positive and finite, got {args.sigma}")
    if command == "run" and args.dump_every < 0:
        raise ConfigError("dump-every must be non-negative")
    if command == "run" and args.dump_every and not args.dump_prefix:
        raise ConfigError("dump-every needs a dump-prefix to write to")
    if command == "run" and args.dump_prefix and not args.dump_every:
        raise ConfigError("dump-prefix needs a positive dump-every")
    if command == "run":
        args.n_list = [args.n]
    else:
        try:
            args.n_list = [int(tok) for tok in str(args.n_list).split(",") if tok.strip()]
        except ValueError:
            raise ConfigError(f"bad n-list: {args.n_list!r}") from None
        if not args.n_list:
            raise ConfigError("n-list names no grid size")
    for n in args.n_list:
        check_cells(n)
    if args.dim is None:
        args.dim = 2 if (args.velocity == "rotation" or args.ic == "slotted") else 1
    if args.dim not in (1, 2):
        raise ConfigError("dim must be 1 or 2")


def _write_solution_csv(path, grid, q, metadata):
    with open(path, "w") as fh:
        for key, value in metadata:
            fh.write(f"# {key}: {value}\n")
        if grid.dim == 1:
            fh.write("i,x,q\n")
            x = grid.cell_centers(0)
            for i in range(grid.n):
                fh.write(f"{i},{_fmt(x[i])},{_fmt(q[i])}\n")
        else:
            fh.write("i,j,x,y,q\n")
            x = grid.cell_centers(0)
            y = grid.cell_centers(1)
            for i in range(grid.n):
                for j in range(grid.n):
                    fh.write(f"{i},{j},{_fmt(x[i])},{_fmt(y[j])},{_fmt(q[i, j])}\n")


def _write_centerline_csv(path, grid, q):
    """Row j = n/2 of a 2D field (the full profile in 1D)."""
    with open(path, "w") as fh:
        fh.write("i,x,q\n")
        x = grid.cell_centers(0)
        vals = q if grid.dim == 1 else q[:, grid.n // 2]
        for i in range(grid.n):
            fh.write(f"{i},{_fmt(x[i])},{_fmt(vals[i])}\n")


def cmd_run(args):
    _configure(args, "run")
    grid = Grid(args.dim, args.n, lo=0.0, hi=args.extent)
    velocity = make_velocity(args.velocity, grid)
    scheme = scheme_coefficients(args.scheme)
    order = args.order if args.order is not None else default_product_order(scheme)
    growth = max_amplification(phase_modes(scheme, grid.dim), args.sigma)
    if growth > 1.0 + STABILITY_TOL:
        warnings.warn(
            f"sigma={args.sigma} exceeds the stability bound for {args.scheme} "
            f"in {grid.dim}D (max |g| = {growth:.4f})",
            stacklevel=1,
        )
    spec = standard_problem(args.ic, args.velocity, grid, radius=args.radius)
    q0 = initial_condition(spec, grid)

    if args.dump_every:
        def on_step(step, t, q):
            if step % args.dump_every == 0:
                path = f"{args.dump_prefix}{step:06d}.csv"
                _write_solution_csv(path, grid, q, [("t", _fmt(t)), ("step", step)])
    else:
        on_step = None

    result = integrate(
        q0, velocity, grid, scheme, args.sigma, args.t_final,
        limiter=args.limiter, order=order,
        collect_eta_stats=bool(args.eta_stats), on_step=on_step,
    )

    metadata = [
        ("ic", args.ic), ("velocity", args.velocity), ("scheme", args.scheme),
        ("order", order), ("sigma", _fmt(args.sigma)), ("n", args.n),
        ("dim", grid.dim), ("extent", _fmt(args.extent)),
        ("t_final", _fmt(args.t_final)), ("limiter", args.limiter),
        ("steps", result.steps), ("dt", _fmt(result.dt)),
        ("conserved_initial", _fmt(result.conserved_initial)),
        ("conserved_final", _fmt(result.conserved_final)),
        ("conservation_drift", _fmt(result.conservation_drift)),
        ("solution_min", _fmt(result.solution_min)),
        ("solution_max", _fmt(result.solution_max)),
    ]
    if args.out:
        _write_solution_csv(args.out, grid, result.field, metadata)
    if args.centerline:
        _write_centerline_csv(args.centerline, grid, result.field)
    if args.eta_stats:
        with open(args.eta_stats, "w") as fh:
            fh.write("step,eta_min,eta_mean,frac_below_one\n")
            for k, (emin, emean, frac) in enumerate(result.eta_stats, 1):
                fh.write(f"{k},{_fmt(emin)},{_fmt(emean)},{_fmt(frac)}\n")
    for key, value in metadata:
        print(f"{key}: {value}")
    return 0


def cmd_converge(args):
    _configure(args, "converge")
    records = convergence_study(
        args.ic, args.velocity, args.scheme, args.sigma, args.n_list,
        limiter=args.limiter, dim=args.dim, t_final=args.t_final,
        radius=args.radius, order=args.order,
    )
    lines = ["N,error,order"]
    for rec in records:
        order = "" if rec.order is None else _fmt(rec.order)
        lines.append(f"{rec.n},{_fmt(rec.error)},{order}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    print(text, end="")
    return 0


def cmd_analyze(args):
    if args.samples < 1:
        raise ConfigError("samples must be at least 1")
    if args.stability:
        rows = stability_table(dims=(1, 2))
        lines = ["scheme,D,sigma_max"]
        lines += [f"{name},{dim},{_fmt(val)}" for name, dim, val in rows]
        text = "\n".join(lines) + "\n"
    else:
        if args.scheme is None:
            raise ConfigError("analyze needs --scheme (or --stability)")
        sigma = 0.8 if args.sigma is None else args.sigma
        if not 0.0 < sigma < np.inf:
            raise ConfigError(f"sigma must be positive and finite, got {sigma}")
        table = phase_dissipation_curve(args.scheme, sigma, samples=args.samples)
        lines = ["beta,dissipation,phase_error"]
        lines += [f"{_fmt(b)},{_fmt(d)},{_fmt(p)}" for b, d, p in table]
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    print(text, end="")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fvadvect",
        description="FCT-limited high-order finite-volume scalar advection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="advect one initial condition and dump CSV")
    run.add_argument("--config", help="key = value file; flags take precedence")
    run.add_argument("--ic", choices=IC_KINDS)
    run.add_argument("--velocity", choices=("constant", "rotation"))
    run.add_argument("--scheme", choices=SCHEME_NAMES)
    run.add_argument("--order", type=int, choices=(2, 4, 6),
                     help="product-rule order (default per scheme)")
    run.add_argument("--sigma", type=float)
    run.add_argument("--n", type=int)
    run.add_argument("--dim", type=int, choices=(1, 2))
    run.add_argument("--t-final", dest="t_final", type=float)
    run.add_argument("--limiter", choices=LIMITER_MODES)
    run.add_argument("--radius", type=float, help="feature radius override")
    run.add_argument("--extent", type=float, help="domain edge length")
    run.add_argument("--out", help="solution CSV path")
    run.add_argument("--centerline", help="centerline CSV path")
    run.add_argument("--eta-stats", dest="eta_stats",
                     help="per-step limiter statistics CSV path")
    run.add_argument("--dump-every", dest="dump_every", type=int)
    run.add_argument("--dump-prefix", dest="dump_prefix")
    run.set_defaults(func=cmd_run)

    conv = sub.add_parser("converge", help="grid refinement study")
    conv.add_argument("--config", help="key = value file; flags take precedence")
    conv.add_argument("--ic", choices=IC_KINDS)
    conv.add_argument("--velocity", choices=("constant", "rotation"))
    conv.add_argument("--scheme", choices=SCHEME_NAMES)
    conv.add_argument("--order", type=int, choices=(2, 4, 6))
    conv.add_argument("--sigma", type=float)
    conv.add_argument("--n-list", dest="n_list")
    conv.add_argument("--dim", type=int, choices=(1, 2))
    conv.add_argument("--t-final", dest="t_final", type=float)
    conv.add_argument("--limiter", choices=LIMITER_MODES)
    conv.add_argument("--radius", type=float)
    conv.add_argument("--out")
    conv.set_defaults(func=cmd_converge)

    ana = sub.add_parser("analyze", help="stability limits and mode diagnostics")
    ana.add_argument("--scheme", choices=SCHEME_NAMES)
    ana.add_argument("--sigma", type=float)
    ana.add_argument("--samples", type=int, default=256)
    ana.add_argument("--stability", action="store_true",
                     help="emit the sigma_max table instead of curves")
    ana.add_argument("--out")
    ana.set_defaults(func=cmd_analyze)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
