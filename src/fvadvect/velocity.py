"""Analytic divergence-free velocity fields and their face/cell averages.

Both supported fields are affine in position, so the average of a component
over a face (or a cell) equals its value at the centroid; no quadrature is
needed and the discrete face-velocity divergence telescopes to zero exactly.
"""

import numpy as np


class ConstantDiagonal:
    """Uniform velocity, one unit per component by default."""

    kind = "constant"

    def __init__(self, components=None, dim=2):
        if components is None:
            components = (1.0,) * dim
        self.components = tuple(float(c) for c in components)
        self.dim = len(self.components)

    def component(self, d, coords):
        return np.full_like(np.asarray(coords[0], dtype=float), self.components[d])

    def trace_back(self, coords, t):
        """Characteristic foot points: subtract u*t (caller handles wrap)."""
        return tuple(np.asarray(x) - self.components[d] * t for d, x in enumerate(coords))

    def max_component_speed(self, grid):
        return max(abs(c) for c in self.components)


class SolidBodyRotation:
    """Rigid rotation about ``center`` with period 1 (angular speed 2*pi).

    u_x = 2*pi*(y - cy), u_y = 2*pi*(cx - x).  2D only.
    """

    kind = "rotation"

    def __init__(self, center=(0.5, 0.5)):
        self.center = (float(center[0]), float(center[1]))
        self.dim = 2

    def component(self, d, coords):
        x, y = (np.asarray(c, dtype=float) for c in coords)
        cx, cy = self.center
        if d == 0:
            return 2.0 * np.pi * (y - cy)
        return 2.0 * np.pi * (cx - x)

    def trace_back(self, coords, t):
        """Rotate by +2*pi*t about the center (inverse of the forward flow)."""
        x, y = (np.asarray(c, dtype=float) for c in coords)
        cx, cy = self.center
        th = 2.0 * np.pi * t
        dx, dy = x - cx, y - cy
        return (
            cx + np.cos(th) * dx - np.sin(th) * dy,
            cy + np.sin(th) * dx + np.cos(th) * dy,
        )

    def max_component_speed(self, grid):
        cx, cy = self.center
        sup_y = max(abs(grid.lo - cy), abs(grid.hi - cy))
        sup_x = max(abs(grid.lo - cx), abs(grid.hi - cx))
        return 2.0 * np.pi * max(sup_x, sup_y)


def make_velocity(kind, grid):
    """Field for a CLI keyword, with the conventional center for rotation."""
    if kind == "constant":
        return ConstantDiagonal(dim=grid.dim)
    if kind == "rotation":
        if grid.dim != 2:
            raise ValueError("rotation velocity requires a 2D grid")
        mid = 0.5 * (grid.lo + grid.hi)
        return SolidBodyRotation(center=(mid, mid))
    raise ValueError(f"unknown velocity kind: {kind!r}")


def face_average_velocity(v, grid):
    """Per-dimension face arrays of the normal velocity component.

    Exact for affine fields: the face average is the centroid value.  The
    component is evaluated on the sparse face-centroid coordinates, each
    of length 1 along every axis but its own, and returned as a read-only
    view broadcast to the face shape: no whole-grid array is made.
    """
    return tuple(
        np.broadcast_to(v.component(d, grid.face_center_mesh(d, sparse=True)), grid.shape)
        for d in range(grid.dim)
    )


def cell_average_velocity(v, grid):
    """Per-dimension arrays of cell-averaged velocity components."""
    mesh = grid.cell_center_mesh()
    return tuple(v.component(d, mesh) for d in range(grid.dim))


def max_speed(v, grid):
    """Largest |u^d| over the closed domain; converts a CFL number to dt.

    Raises for an identically zero field, where no time step exists.
    """
    s = v.max_component_speed(grid)
    if s == 0.0:
        raise ValueError("velocity field has zero maximum speed; cannot set dt")
    return s
