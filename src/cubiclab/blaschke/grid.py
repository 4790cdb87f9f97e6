"""Uniform finite-difference grids on axis-aligned rectangles."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import BadParameters

DIRICHLET = "dirichlet"
PERIODIC = "periodic"


@dataclass(frozen=True)
class Grid2D:
    """Node layout for the 5-point stencil on [x0,x1] x [y0,y1].

    Dirichlet grids include their boundary nodes; doubly periodic grids
    exclude the right/top edge (which wraps to the left/bottom).  Fields are
    arrays of shape (ny, nx), row-major, x varying along the last axis.
    """

    x0: float
    x1: float
    y0: float
    y1: float
    nx: int
    ny: int
    bc: str = DIRICHLET

    def __post_init__(self):
        if self.nx < 8 or self.ny < 8:
            raise BadParameters(f"grids need at least 8 nodes per axis, got "
                                f"nx={self.nx}, ny={self.ny}")
        if self.x1 <= self.x0 or self.y1 <= self.y0:
            raise BadParameters(f"empty domain rectangle [{self.x0}, "
                                f"{self.x1}] x [{self.y0}, {self.y1}]")
        if self.bc not in (DIRICHLET, PERIODIC):
            raise BadParameters(f"unknown boundary condition {self.bc!r}")

    @property
    def dx(self) -> float:
        n = self.nx - 1 if self.bc == DIRICHLET else self.nx
        return (self.x1 - self.x0) / n

    @property
    def dy(self) -> float:
        n = self.ny - 1 if self.bc == DIRICHLET else self.ny
        return (self.y1 - self.y0) / n

    @property
    def xs(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.nx)

    @property
    def ys(self) -> np.ndarray:
        return self.y0 + self.dy * np.arange(self.ny)

    @property
    def zs(self) -> np.ndarray:
        X, Y = np.meshgrid(self.xs, self.ys)
        return X + 1j * Y

    def interior_mask(self) -> np.ndarray:
        m = np.ones((self.ny, self.nx), dtype=bool)
        if self.bc == DIRICHLET:
            m[0, :] = m[-1, :] = m[:, 0] = m[:, -1] = False
        return m

    def nearest_node(self, z: complex) -> tuple[int, int]:
        ix = int(round((z.real - self.x0) / self.dx))
        iy = int(round((z.imag - self.y0) / self.dy))
        if not (0 <= ix < self.nx and 0 <= iy < self.ny):
            raise BadParameters(f"point {z} outside the grid")
        return iy, ix

    def cell_area(self) -> float:
        return self.dx * self.dy

    def integrate(self, field) -> float:
        """Quadrature of a node field over the domain: the trapezoid rule on
        Dirichlet grids, the cell sum (the periodic trapezoid rule) on the
        torus."""
        wx = np.ones(self.nx)
        wy = np.ones(self.ny)
        if self.bc == DIRICHLET:
            wx[[0, -1]] = wy[[0, -1]] = 0.5
        return float(wy @ np.asarray(field, dtype=float) @ wx) \
            * self.cell_area()


def square_window(center: complex, side: float, n: int) -> Grid2D:
    h = side / 2.0
    return Grid2D(center.real - h, center.real + h,
                  center.imag - h, center.imag + h, n, n)


def unit_torus_grid(n: int) -> Grid2D:
    return Grid2D(0.0, 1.0, 0.0, 1.0, n, n, bc=PERIODIC)
