"""Comparison quantities attached to a Wang-equation solution: curvature,
subsolution margin, area bounds, the density-comparison root, the gap upper
bound, and the induced minimal-surface metric."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import NegativeInput, NonpositiveRadius
from .cubic import CubicDifferentialField
from .grid import DIRICHLET, Grid2D
from .solver import BlaschkeSolution, _safe_exp

CBRT2 = 2.0 ** (1.0 / 3.0)


def discrete_laplacian(field: np.ndarray, dx: float, dy: float,
                       periodic: bool = False) -> np.ndarray:
    """5-point Laplacian of a field; NaN on the boundary unless periodic."""
    f = np.asarray(field, dtype=float)
    if periodic:
        return ((np.roll(f, -1, 1) - 2 * f + np.roll(f, 1, 1)) / dx ** 2
                + (np.roll(f, -1, 0) - 2 * f + np.roll(f, 1, 0)) / dy ** 2)
    out = np.full_like(f, np.nan)
    out[1:-1, 1:-1] = ((f[1:-1, 2:] - 2 * f[1:-1, 1:-1] + f[1:-1, :-2])
                       / dx ** 2
                       + (f[2:, 1:-1] - 2 * f[1:-1, 1:-1] + f[:-2, 1:-1])
                       / dy ** 2)
    return out


def log_density_curvature(log_density: np.ndarray, dx: float, dy: float,
                          periodic: bool = False) -> np.ndarray:
    """Curvature -(1/2) e^(-w) Lap w of the metric e^w |dz|^2."""
    lap = discrete_laplacian(log_density, dx, dy, periodic)
    return -0.5 * _safe_exp(-np.asarray(log_density, dtype=float)) * lap


def curvature_field(sol: BlaschkeSolution) -> np.ndarray:
    """Curvature of the solved metric at interior nodes (NaN on boundary
    for Dirichlet grids)."""
    return log_density_curvature(sol.psi, sol.grid.dx, sol.grid.dy,
                                 periodic=sol.grid.bc != DIRICHLET)


def check_subsolution(sol: BlaschkeSolution,
                      q: CubicDifferentialField) -> np.ndarray:
    """Margin e^psi - 2^(1/3)|q|^(2/3); nonnegative for valid solutions,
    identically zero exactly in the flat torus case."""
    return sol.h - CBRT2 * q.abs23


def largest_root(a: float) -> float:
    """Largest positive root of p(t) = 2 t^3 - 2 t^2 - 4 a, for a >= 0.

    The root is >= 1 with p > 0 beyond it; the residual is polished below
    1e-12 by Newton steps.
    """
    if a < 0:
        raise NegativeInput("the comparison root needs a >= 0")
    if a == 0:
        return 1.0

    def p(t):
        return 2.0 * t ** 3 - 2.0 * t ** 2 - 4.0 * a

    def dp(t):
        return 6.0 * t ** 2 - 4.0 * t

    hi = max(2.0, (2.0 * a) ** (1.0 / 3.0) + 1.5)
    while p(hi) <= 0:
        hi *= 2.0
    lo = 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if p(mid) > 0:
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-14 * hi:
            break
    r = 0.5 * (lo + hi)
    for _ in range(4):
        r -= p(r) / dp(r)
    return float(r)


@dataclass(frozen=True)
class AreaBounds:
    area_h: float
    flat_area: float
    lower: float
    upper: float
    literal: bool  # bounds literal only on closed surfaces (periodic torus)


def area_and_bounds(sol: BlaschkeSolution, q: CubicDifferentialField,
                    region: str = "torus") -> AreaBounds:
    """Quadrature of the metric area against 2^(1/3)||q||.

    On the periodic torus (chi = 0) the two-sided bound collapses to an
    equality for constant q; on a subregion the caveat flag is cleared and
    the numbers are reported without the closed-surface interpretation.
    """
    area_h = sol.grid.integrate(sol.h)
    flat = q.flat_area()
    lower = CBRT2 * flat
    if region == "torus":
        upper = lower  # chi = 0 closes the two-sided bound
        literal = True
    else:
        upper = math.inf
        literal = False
    return AreaBounds(area_h, flat, lower, upper, literal)


def minimal_surface_metric(sol: BlaschkeSolution) -> np.ndarray:
    """Density of 12 (e^(-2F) + 1) h; equals 24 h where F = 0 and tends to
    12 h as F grows (exactly 12 h at zeros of q, where F = +inf)."""
    F = sol.gap
    damp = np.where(np.isinf(F), 0.0, _safe_exp(-2.0 * np.where(
        np.isinf(F), 0.0, F)))
    return 12.0 * (damp + 1.0) * sol.h


def gap_upper_bound(area_h: float, r: float) -> float:
    """(3/2) log(area / (2^(1/3) pi r^2)) for a zero-free flat ball of
    radius r."""
    if r <= 0:
        raise NonpositiveRadius("ball radius must be positive")
    return 1.5 * math.log(area_h / (CBRT2 * math.pi * r * r))
