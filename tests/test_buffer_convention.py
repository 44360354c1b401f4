"""Every kernel of the step writes into the buffers its caller passes.

No buffer parameter of the package has a default, so no kernel can fall
back to a fresh output or scratch array.  The walk reads the sources, so
a new function is checked without being listed here.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fvadvect"
BUFFERS = {"out", "term", "total", "twice", "diff", "scaled"}
# ``_lone_amplification`` and ``phase_dissipation_curve`` evaluate a few
# points with the fresh default; the stability scans pass a buffer.
ALLOWED = {("analysis", "rk4_amplification", "out")}


def defaulted_buffers(source):
    """``(function, parameter)`` for each buffer parameter with a default."""
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        defaulted = positional[len(positional) - len(args.defaults):]
        defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        for a in defaulted:
            if a.arg in BUFFERS:
                yield getattr(node, "name", "<lambda>"), a.arg


def test_no_buffer_parameter_has_a_default():
    found = {(path.stem, *hit) for path in sorted(SRC.glob("*.py"))
             for hit in defaulted_buffers(path.read_text())}
    # equality: nothing beyond the exception, and the walk does see it
    assert found == ALLOWED


@pytest.mark.parametrize("source, hits", [
    ("def f(q, out=None): pass", [("f", "out")]),
    ("def f(q, term, *, twice=None, total): pass", [("f", "twice")]),
    ("class W:\n    def __call__(self, a, diff=()): pass", [("__call__", "diff")]),
    ("g = lambda z, scaled=None: z", [("<lambda>", "scaled")]),
    ("def f(q, out, sigma=0.5, *, total): pass", []),
])
def test_the_walk_finds_every_kind_of_default(source, hits):
    assert list(defaulted_buffers(source)) == hits
