"""Cubic differentials sampled on grids."""

from __future__ import annotations

import numpy as np

from ..errors import BadParameters
from .grid import Grid2D


class CubicDifferentialField:
    """Values of q(z) for a cubic differential q dz^3 on a grid."""

    def __init__(self, grid: Grid2D, values):
        self.grid = grid
        vals = np.asarray(values, dtype=complex)
        if vals.shape != (grid.ny, grid.nx):
            raise BadParameters(f"samples of shape {vals.shape} on a grid of "
                                f"shape {(grid.ny, grid.nx)}")
        if not np.all(np.isfinite(vals)):
            raise BadParameters(f"cubic differential samples must be finite, "
                                f"got {vals[~np.isfinite(vals)][0]}")
        self.values = vals
        self.abs2 = np.abs(vals) ** 2
        self.abs23 = self.abs2 ** (1.0 / 3.0)

    @classmethod
    def from_polynomial(cls, grid: Grid2D, coeffs) -> "CubicDifferentialField":
        """q from its coefficients in ascending powers."""
        coeffs = np.asarray(coeffs, dtype=complex)
        return cls(grid, np.polyval(coeffs[::-1], grid.zs))

    def flat_area(self) -> float:
        """Quadrature of |q|^(2/3) over the grid domain."""
        return self.grid.integrate(self.abs23)
