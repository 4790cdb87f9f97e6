"""Cubic differentials sampled on grids, optionally polynomial-backed."""

from __future__ import annotations

import numpy as np

from .grid import Grid2D


class CubicDifferentialField:
    """Values of q(z) for a cubic differential q dz^3 on a grid.

    Either explicit samples or polynomial coefficients (ascending powers)
    may be given; when both are present they must agree at the nodes.
    """

    def __init__(self, grid: Grid2D, values=None, coeffs=None):
        self.grid = grid
        self.coeffs = None if coeffs is None else np.asarray(coeffs,
                                                             dtype=complex)
        if values is None:
            if self.coeffs is None:
                raise ValueError("need samples or polynomial coefficients")
            values = np.polyval(self.coeffs[::-1], grid.zs)
        vals = np.asarray(values, dtype=complex)
        if vals.shape != (grid.ny, grid.nx):
            raise ValueError("sample shape does not match the grid")
        if not np.all(np.isfinite(vals)):
            raise ValueError("cubic differential samples must be finite")
        if self.coeffs is not None:
            ref = np.polyval(self.coeffs[::-1], grid.zs)
            scale = max(1.0, float(np.abs(ref).max()))
            if float(np.abs(ref - vals).max()) > 1e-9 * scale:
                raise ValueError("samples disagree with the polynomial")
        self.values = vals
        self.abs2 = np.abs(vals) ** 2
        self.abs23 = self.abs2 ** (1.0 / 3.0)

    @classmethod
    def from_polynomial(cls, grid: Grid2D, coeffs) -> "CubicDifferentialField":
        return cls(grid, coeffs=coeffs)

    @classmethod
    def constant(cls, grid: Grid2D, c: complex = 1.0) -> "CubicDifferentialField":
        return cls(grid, coeffs=[c])

    def scaled(self, factor: complex) -> "CubicDifferentialField":
        coeffs = None if self.coeffs is None else self.coeffs * factor
        return CubicDifferentialField(self.grid, self.values * factor, coeffs)

    def eval(self, z):
        if self.coeffs is None:
            raise ValueError("no polynomial form attached")
        return np.polyval(self.coeffs[::-1], z)

    def zeros(self) -> np.ndarray:
        if self.coeffs is None:
            raise ValueError("no polynomial form attached")
        c = np.trim_zeros(self.coeffs, "b")
        if len(c) <= 1:
            return np.array([], dtype=complex)
        return np.roots(c[::-1])

    def flat_area(self) -> float:
        """Quadrature of |q|^(2/3) over the grid domain."""
        return self.grid.integrate(self.abs23)
