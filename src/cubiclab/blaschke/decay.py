"""Decay certification for the gap along rays t * q of cubic differentials.

For each t the gap equation is solved on a Dirichlet window with constant
boundary value B.  On a coordinate disk of radius R around the probe that
is free of zeros of q, the gap G satisfies Lap G >= m G with

    m = 3 * 2^(4/3) e^(-B/3) * min_disk |t q|^(2/3)

(or any m below it, as G >= 0), so g = B cosh(a x) cosh(a y) / cosh(a R),
a = sqrt(m/2), dominates G on the disk (g >= B on its boundary and
Lap g = m g); in particular G(probe) <= B / cosh(a R).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import BadParameters
from .cubic import CubicDifferentialField
from .grid import square_window
from .solver import solve_tzitzeica


@dataclass(frozen=True)
class DecayCertificate:
    """One barrier check: measured gap at the probe against the closed form."""

    t: float
    coord_radius: float   # coordinate radius of the comparison disk
    barrier: float        # B / cosh(sqrt(m/2) * coord_radius)
    measured: float       # solved gap at the probe node
    residual: float       # max-norm residual of the gap solve
    passed: bool


def _min_abs_q_on_disk(lead, zeros, center: complex, radius: float) -> float:
    """A lower bound on |q| over a disk free of the zeros of q = lead *
    prod (z - z_k): |lead| prod (|center - z_k| - radius), exact for
    degree <= 1 and 0 for q = 0."""
    return float(abs(lead) * np.prod(np.abs(center - zeros) - radius))


def decay_experiment(q_coeffs, t_list, probe: complex, *,
                     window_side: float = 4.0, n: int = 129,
                     bound: float = 1.0) -> list[DecayCertificate]:
    """Certify the gap decay for the ray t * q at a probe point.

    The window is a Dirichlet square centered at the probe with boundary
    gap value ``bound``; t_list must be positive and increasing (the
    equation sees only |t q|) and the probe must keep a positive coordinate
    distance from the zeros of q.
    """
    ts = [float(t) for t in t_list]
    if not ts or any(b <= a for a, b in zip(ts, ts[1:])):
        raise BadParameters(f"t_list must be strictly increasing and "
                            f"nonempty, got {ts}")
    nonpositive = [t for t in ts if not t > 0]
    if nonpositive:
        raise BadParameters(f"t_list must be positive on the ray t * q, got "
                            f"{nonpositive}")
    coeffs = np.asarray(q_coeffs, dtype=complex)
    nonzero = np.trim_zeros(coeffs, "b")
    zero_pts = np.roots(nonzero[::-1]) if len(nonzero) > 1 else np.array([])
    d_boundary = window_side / 2.0
    d_zero = float(np.abs(zero_pts - probe).min()) if zero_pts.size else \
        math.inf
    coord_radius = 0.999 * min(d_boundary, d_zero)
    grid = square_window(probe, window_side, n)
    if coord_radius <= 3.0 * grid.dx:
        raise BadParameters(
            f"zero-free coordinate radius {coord_radius:.3g} around the "
            f"probe {probe} is below 3 grid steps of {grid.dx:.3g}")

    # solve on the inscribed coordinate disk: all nodes outside it carry
    # the boundary bound, matching the comparison region of the barrier
    disk_fixed = np.abs(grid.zs - probe) >= coord_radius
    # |t q| is t |q|, so the disk minimum scales as t: it is computed
    # once, at t = 1
    min_q = _min_abs_q_on_disk(nonzero[-1] if len(nonzero) else 0.0,
                               zero_pts, probe, coord_radius)
    # 0 <= F <= bound: solve to twice the residual's rounding floor where
    # that is above 1e-10 (from n = 381 on a window of side 1.6)
    tol = max(1e-10, 2.0 * grid.rounding_floor(bound))
    out = []
    for t in ts:
        q = CubicDifferentialField.from_polynomial(grid, coeffs * t)
        F, residual = solve_tzitzeica(grid, q, boundary=bound, tol=tol,
                                      fixed_mask=disk_fixed)
        iy, ix = grid.nearest_node(probe)
        measured = float(F[iy, ix])
        min_d = (t * min_q) ** (2 / 3)
        m = 3.0 * 2.0 ** (4.0 / 3.0) * math.exp(-bound / 3.0) * min_d
        barrier = bound / math.cosh(math.sqrt(m / 2.0) * coord_radius)
        passed = measured <= barrier + 1e-6 * max(1.0, bound)
        out.append(DecayCertificate(t, coord_radius, barrier, measured,
                                    residual, passed))
    return out
