"""Command-line driver: single runs, convergence studies, scheme analysis.

Exit codes: 0 success, 1 configuration error, 2 numerical failure (NaN),
3 I/O error.  All output is CSV with 17-significant-digit numbers so runs
are diffable and bit-reproducible.
"""

import argparse
import contextlib
import errno
import itertools
import os
import sys
import warnings

import numpy as np

from .analysis import (STABILITY_TOL, max_amplification, phase_dissipation_curve, phase_modes,
                       stability_table)
from .driver import NumericsError, integrate
from .fct import LIMITER_MODES
from .grid import Grid, check_cells
from .problems import IC_KINDS, convergence_study, initial_condition, standard_problem
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


_BOTH = ("run", "converge")
_ALL = ("run", "converge", "analyze")
# ``run``'s default CFL number per dimension.  The 2D one is below u9's 2D
# stability limit (0.7992), the lowest of the schemes, so a run with no
# option set fails none of its own checks.
_RUN_SIGMA = {1: 0.8, 2: 0.75}

# Every option of every command: its type, its choices (None: any value),
# its help, and its default in each command that takes it (None: unset).
# A command missing from the defaults does not take the option, as a flag
# or as a config-file key.
_OPTIONS = {
    "ic": (str, IC_KINDS, None, {"run": "square", "converge": "cosine8"}),
    "velocity": (str, ("constant", "rotation"), None, dict.fromkeys(_BOTH, "constant")),
    "scheme": (str, SCHEME_NAMES, None, {"run": "u9", "converge": "u5", "analyze": None}),
    "order": (int, (2, 4, 6), "product-rule order (default per scheme)", dict.fromkeys(_BOTH)),
    "sigma": (float, None, "CFL number (run: 0.8 in 1D, 0.75 in 2D)",
              {"run": None, "converge": 0.8, "analyze": 0.8}),
    "n": (int, None, "cells per dimension", {"run": 128}),
    "n_list": (str, None, "comma-separated cells per dimension", {"converge": "32,64,128,256"}),
    "dim": (int, (1, 2), "default: 2 for rotation or slotted, else 1", dict.fromkeys(_BOTH)),
    "t_final": (float, None, None, dict.fromkeys(_BOTH, 1.0)),
    "limiter": (str, LIMITER_MODES, None, dict.fromkeys(_BOTH, "on")),
    "radius": (float, None, "feature radius override", dict.fromkeys(_BOTH)),
    "extent": (float, None, "domain edge length", {"run": 1.0}),
    "samples": (int, None, "phase angles in (0, pi]", {"analyze": 256}),
    "out": (str, None, "CSV output path", dict.fromkeys(_ALL)),
    "centerline": (str, None, "centerline CSV path", {"run": None}),
    "eta_stats": (str, None, "per-step limiter statistics CSV path", {"run": None}),
    "dump_every": (int, None, "snapshot every K steps", {"run": 0}),
    "dump_prefix": (str, None, "snapshot path prefix", {"run": None}),
}


def _config_tokens(path, command):
    """A config file's entries as ``--key=value`` flags of ``command``."""
    tokens = []
    for key, raw in read_config_file(path).items():
        if key not in _OPTIONS or command not in _OPTIONS[key][3]:
            raise ConfigError(f"config key {key} is not an option of {command}")
        tokens.append(f"--{key.replace('_', '-')}={raw}")
    return tokens


def _parse(argv):
    """Flags, with a config file's entries read as flags given before them:
    the file passes the same type and choice checks, and a flag overrides it."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        at = argv.index(args.command) + 1
        tokens = _config_tokens(args.config, args.command)
        args = parser.parse_args([*argv[:at], *tokens, *argv[at:]])
    return args


def _configure(args):
    """The checks that tie options together.  Sets ``args.n_list`` to the
    grid sizes to run (``[n]`` for ``run``), and ``args.dim`` and ``run``'s
    ``args.sigma`` (``_RUN_SIGMA`` of the dimension) when unset."""
    if args.command != "analyze" and args.dim is None:
        args.dim = 2 if (args.velocity == "rotation" or args.ic == "slotted") else 1
    if args.sigma is None:
        args.sigma = _RUN_SIGMA[args.dim]
    # checked before the stability probe, which reads sigma first
    if not 0.0 < args.sigma < np.inf:
        raise ConfigError(f"sigma must be positive and finite, got {args.sigma}")
    if args.command == "analyze":
        if args.samples < 1:
            raise ConfigError("samples must be at least 1")
        return
    if args.command == "run":
        if args.dump_every < 0:
            raise ConfigError("dump-every must be non-negative")
        if args.dump_every and not args.dump_prefix:
            raise ConfigError("dump-every needs a dump-prefix to write to")
        if args.dump_prefix and not args.dump_every:
            raise ConfigError("dump-prefix needs a positive dump-every")
        args.n_list = [args.n]
    else:
        try:
            args.n_list = [int(tok) for tok in args.n_list.split(",") if tok.strip()]
        except ValueError:
            raise ConfigError(f"bad n-list: {args.n_list!r}") from None
        if not args.n_list:
            raise ConfigError("n-list names no grid size")
    for n in args.n_list:
        check_cells(n)


def _cell(value):
    return str(value) if isinstance(value, (int, str)) else FMT % value


def _write_csv(dest, header, rows, comments=()):
    """``# key: value`` lines, a header, then the rows, to ``dest``: a path
    or an open file, which is flushed.  Integers and strings are written as
    they are, other numbers as FMT."""
    with open(dest, "w") if isinstance(dest, str) else contextlib.nullcontext(dest) as fh:
        fh.writelines(f"# {key}: {value}\n" for key, value in comments)
        fh.write(header + "\n")
        fh.writelines(",".join(map(_cell, row)) + "\n" for row in rows)
        fh.flush()


@contextlib.contextmanager
def _outputs(*paths):
    """Each path opened for appending (None where no path is given), before
    the work that fills them: a bad path fails at once, and work that fails
    leaves an existing file as it was.  Truncate a file before writing it."""
    with contextlib.ExitStack() as stack:
        yield [stack.enter_context(open(path, "a")) if path else None for path in paths]


def _write_table(args, header, work):
    """The rows ``work()`` returns, to ``--out`` when given, then to stdout."""
    with _outputs(args.out) as (fh,):
        rows = list(work())
        if fh:
            fh.truncate(0)
            _write_csv(fh, header, rows)
    _write_csv(sys.stdout, header, rows)
    return 0


def _write_field(path, grid, q, comments):
    x = grid.cell_centers(0)
    if grid.dim == 1:
        _write_csv(path, "i,x,q", zip(range(grid.n), x, q), comments)
        return
    y = grid.cell_centers(1)
    cells = itertools.product(range(grid.n), repeat=2)
    _write_csv(path, "i,j,x,y,q", ((i, j, x[i], y[j], q[i, j]) for i, j in cells), comments)


def cmd_run(args):
    grid = Grid(args.dim, args.n, lo=0.0, hi=args.extent)
    velocity = make_velocity(args.velocity, grid)
    scheme = scheme_coefficients(args.scheme)
    order = args.order if args.order is not None else default_product_order(scheme)
    # a sigma so large that |g| overflows is as unstable as any other
    with np.errstate(all="ignore"):
        growth = max_amplification(phase_modes(scheme, grid.dim), args.sigma)
    if not growth <= 1.0 + STABILITY_TOL:
        warnings.warn(
            f"sigma={args.sigma} exceeds the stability bound for {args.scheme} "
            f"in {grid.dim}D (max |g| = {growth:.4f})",
            stacklevel=1,
        )
    spec = standard_problem(args.ic, args.velocity, grid, radius=args.radius)
    q0 = initial_condition(spec, grid)

    def on_step(step, t, q):
        if step % args.dump_every == 0:
            path = f"{args.dump_prefix}{step:06d}.csv"
            _write_field(path, grid, q, [("t", _fmt(t)), ("step", step)])

    if args.dump_prefix:
        folder = os.path.dirname(args.dump_prefix) or "."
        if not os.path.isdir(folder):
            raise FileNotFoundError(errno.ENOENT, "no directory for dump-prefix", folder)
    with _outputs(args.out, args.centerline, args.eta_stats) as (out, centerline, eta_stats):
        result = integrate(
            q0, velocity, grid, scheme, args.sigma, args.t_final,
            limiter=args.limiter, order=order,
            collect_eta_stats=bool(args.eta_stats),
            on_step=on_step if args.dump_every else None,
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
        # each file is emptied just before its own write, so of two
        # outputs given one path the later replaces the earlier
        if out:
            out.truncate(0)
            _write_field(out, grid, result.field, metadata)
        if centerline:
            centerline.truncate(0)
            # row j = n/2 of a 2D field (the full profile in 1D)
            line = result.field if grid.dim == 1 else result.field[:, grid.n // 2]
            _write_csv(centerline, "i,x,q", zip(range(grid.n), grid.cell_centers(0), line))
        if eta_stats:
            eta_stats.truncate(0)
            stats = ((k, *s) for k, s in enumerate(result.eta_stats, 1))
            _write_csv(eta_stats, "step,eta_min,eta_mean,frac_below_one", stats)
    for key, value in metadata:
        print(f"{key}: {value}")
    return 0


def cmd_converge(args):
    def rows():
        records = convergence_study(
            args.ic, args.velocity, args.scheme, args.sigma, args.n_list,
            limiter=args.limiter, dim=args.dim, t_final=args.t_final,
            radius=args.radius, order=args.order,
        )
        return ((rec.n, rec.error, "" if rec.order is None else rec.order) for rec in records)

    return _write_table(args, "N,error,order", rows)


def cmd_analyze(args):
    if args.stability:
        return _write_table(args, "scheme,D,sigma_max", lambda: stability_table(dims=(1, 2)))
    if args.scheme is None:
        raise ConfigError("analyze needs --scheme (or --stability)")
    return _write_table(args, "beta,dissipation,phase_error", lambda: phase_dissipation_curve(
        args.scheme, args.sigma, samples=args.samples))


_COMMANDS = {
    "run": (cmd_run, "advect one initial condition and dump CSV"),
    "converge": (cmd_converge, "grid refinement study"),
    "analyze": (cmd_analyze, "stability limits and mode diagnostics"),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fvadvect", description="FCT-limited high-order finite-volume scalar advection")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, about) in _COMMANDS.items():
        cmd = sub.add_parser(command, help=about)
        cmd.set_defaults(func=func)
        if command in _BOTH:
            cmd.add_argument("--config", help="key = value file; flags take precedence")
        for key, (kind, choices, about, defaults) in _OPTIONS.items():
            if command in defaults:
                cmd.add_argument("--" + key.replace("_", "-"), type=kind, choices=choices,
                                 default=defaults[command], help=about)
    sub.choices["analyze"].add_argument(
        "--stability", action="store_true", help="emit the sigma_max table instead of curves")
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(argv)
        _configure(args)
        return args.func(args)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return 1
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
