"""Seeded in-process fuzz of ``cli.main``: no input ends in a traceback.

The first pass gives every option of every command each edge value in
turn; the second passes a seeded sample of three-option combinations that
mix edge and valid values.  Every call must return a documented exit code
(0, 1, 2 or 3), raise nothing, and print no ``nan`` when it exits 0.  The
base arguments keep every run to a few steps on at most 16 cells, and
``analyze --stability`` bisects on a coarse phase grid (the full table is
checked in ``test_cli.py``).
"""

import functools
import warnings

import numpy as np
import pytest

from fvadvect import analysis, cli
from fvadvect.cli import _OPTIONS, main

EDGE = ("0", "-1", "1e-300", "1e300", "inf", "nan", "", ",", "/nonexistent/x")
BASE = {
    "run": {"--n": "16", "--t-final": "0.05"},
    "converge": {"--n-list": "11,16", "--t-final": "0.05"},
    "analyze": {"--scheme": "u5", "--samples": "8"},
}
VALID = {
    "sigma": ("0.4", "0.8", "1.9"), "n": ("11", "16"), "n_list": ("11,16", "16"),
    "t_final": ("0", "0.05"), "radius": ("0.1", "0.3"), "extent": ("0.5", "2"),
    "samples": ("1", "8"), "out": ("out.csv",), "centerline": ("line.csv",),
    "eta_stats": ("eta.csv",), "dump_every": ("1", "2"), "dump_prefix": ("snap",),
    "config": ("ok.cfg",), "stability": (None,),
}


def options(command):
    """Each option of ``command`` with its valid values (None: a bare flag)."""
    table = {
        key: VALID[key] if choices is None else tuple(map(str, choices))
        for key, (_, choices, _, defaults) in _OPTIONS.items() if command in defaults
    }
    extra = ("stability",) if command == "analyze" else ("config",)
    return {**table, **{key: VALID[key] for key in extra}}


def call(command, chosen):
    """argv for ``command`` with ``chosen`` {key: value} over the base."""
    flags = dict(BASE[command])
    for key, value in chosen.items():
        flags["--" + key.replace("_", "-")] = value
    argv = [command]
    for flag, value in flags.items():
        argv += [flag] if value is None else [flag, value]
    return argv


def check(argv, capsys):
    """The fault of one call, or None."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(argv)
    except Exception as exc:  # any exception escaping main is the fault
        capsys.readouterr()
        return f"{argv}: raised {exc!r}"
    out, _ = capsys.readouterr()
    if code not in (0, 1, 2, 3):
        return f"{argv}: exit {code!r}"
    if code == 0 and "nan" in out.lower():
        return f"{argv}: printed nan"
    return None


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    # ``--out 1e300`` writes a file named 1e300 into the working directory
    monkeypatch.chdir(tmp_path)
    coarse = functools.partial(analysis.stability_table, n_beta=17, tol=0.05)
    monkeypatch.setattr(cli, "stability_table", coarse)
    (tmp_path / "ok.cfg").write_text("sigma = 0.5\n")
    return tmp_path


@pytest.mark.parametrize("command", list(BASE))
def test_every_option_at_every_edge_value(workdir, capsys, command):
    faults = [
        check(call(command, {key: value}), capsys)
        for key, valid in options(command).items() if valid != (None,)
        for value in EDGE
    ]
    assert [f for f in faults if f] == []


def test_seeded_three_option_combinations(workdir, capsys):
    rng = np.random.default_rng(0)
    faults = []
    for _ in range(600):
        command = list(BASE)[rng.integers(len(BASE))]
        table = options(command)
        keys = rng.choice(sorted(table), size=min(3, len(table)), replace=False)
        chosen = {}
        for key in keys:
            values = table[key] + (EDGE if table[key] != (None,) else ())
            chosen[key] = values[rng.integers(len(values))]
        faults.append(check(call(command, chosen), capsys))
    assert [f for f in faults if f] == []
