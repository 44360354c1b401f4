"""Buffers for direct calls of the step's kernels.

Every kernel writes into the output and scratch buffers its caller
passes.  The tests pass these, filled with NaN, so that a kernel which
reads a buffer before it writes all of it shows the NaN in its result.
"""

import numpy as np


def nan_buffer(like):
    """A float array of the shape of ``like``, filled with NaN."""
    return np.full(np.shape(like), np.nan)


def nan_buffers(like, count):
    """``count`` float arrays of the shape of ``like``, filled with NaN."""
    return tuple(nan_buffer(like) for _ in range(count))
