"""Comparison quantities attached to a Wang-equation solution: curvature,
area bounds, the density-comparison root, the gap upper bound, and the
induced minimal-surface metric."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import BadParameters
from .grid import Grid2D
from .solver import CBRT2, BlaschkeSolution, _safe_exp


def log_density_curvature(grid: Grid2D, log_density) -> np.ndarray:
    """Curvature -(1/2) e^(-w) Lap w of the metric e^w |dz|^2 at the grid's
    nodes (NaN on the rim)."""
    w = np.asarray(log_density, dtype=float)
    lap = np.full_like(w, np.nan)
    grid.laplacian(w, out=lap[grid.inner])
    return -0.5 * _safe_exp(-w) * lap


def largest_root(a: float) -> float:
    """Largest positive root of p(t) = 2 t^3 - 2 t^2 - 4 a, for a >= 0.

    The root is >= 1, and p is increasing and convex on [1, inf).  So
    Newton's method from t = max(2, (2a)^(1/3) + 1.5), where p > 0 because
    2 t^2 (t - 1) > 4a, falls monotonically onto it; it stops when a step
    no longer moves down.
    """
    if not a >= 0:
        raise BadParameters(f"the comparison root needs a >= 0, got {a}")
    if a == 0:
        return 1.0
    r = max(2.0, (2.0 * a) ** (1.0 / 3.0) + 1.5)
    while True:
        nxt = r - (2.0 * r ** 3 - 2.0 * r ** 2 - 4.0 * a) \
            / (6.0 * r ** 2 - 4.0 * r)
        if not nxt < r:
            return float(r)
        r = nxt


@dataclass(frozen=True)
class AreaBounds:
    area_h: float
    flat_area: float
    lower: float


def area_and_bounds(sol: BlaschkeSolution) -> AreaBounds:
    """Quadrature of the metric area against its lower bound 2^(1/3)||q||,
    which constant q attains with the flat solution e^(3 psi) = 2|q|^2."""
    flat = sol.q.flat_area()
    return AreaBounds(sol.grid.integrate(sol.h), flat, CBRT2 * flat)


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
    if not r > 0:
        raise BadParameters(f"ball radius must be positive, got {r}")
    return 1.5 * math.log(area_h / (CBRT2 * math.pi * r * r))
