"""Damped-Newton solvers for the Wang equation and the gap equation.

In coordinate gauge (h = e^psi |dz|^2) the Wang equation reads

    Lap psi = 2 e^psi - 4 |q|^2 e^(-2 psi),

and the log-density gap F = (3/2)(psi - (1/3) log(2 |q|^2)) between h and
the flat comparison metric 2^(1/3)|q|^(2/3) satisfies

    Lap F = 3 * 2^(4/3) |q|^(2/3) e^(-F/3) sinh(F).

Both read Lap x = f(x) with f' > 0, so the Newton systems are uniformly
invertible and the discrete solutions obey the maximum principle.  One
matrix-free damped Newton kernel solves both on the free nodes (those not
pinned to boundary values), applying the grid's 5-point stencil to arrays
of its stencil block, where a 0/1 float mask holds the pinned nodes at
zero.  Each step solves (-Lap + diag f') d = r by the kernel's own
conjugate-gradient loop (SciPy's ``sparse.linalg.cg`` step for step, on
buffers allocated once per solve), preconditioned by the grid: by a
single-precision spectral inverse of -Lap + c if no node of the block is
pinned, by a multigrid V-cycle if some are.  Iterates and stopping tests
stay in double.  The kernel never asks the grid's boundary condition.  A
Wang solve starts from the solve on the halved grid, prolonged (nested
iteration), and on the coarsest level from the harmonic extension.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import BadParameters, NoConvergence, SingularJacobian
from .cubic import CubicDifferentialField
from .grid import Grid2D

_EXP_CAP = 300.0
_CG_MAXITER = 500
CBRT2 = 2.0 ** (1.0 / 3.0)


def _safe_exp(x):
    return np.exp(np.clip(x, -_EXP_CAP, _EXP_CAP))


@dataclass
class BlaschkeSolution:
    """Discrete solution of the Wang equation on a grid."""

    grid: Grid2D
    q: CubicDifferentialField
    psi: np.ndarray
    residual: float
    newton_iterations: int
    flags: dict = field(default_factory=dict)

    @property
    def h(self) -> np.ndarray:
        return _safe_exp(self.psi)

    @property
    def gap(self) -> np.ndarray:
        """F = (3/2)(psi - (1/3) log(2|q|^2)); +inf at zeros of q."""
        with np.errstate(divide="ignore"):
            flat = np.log(2.0 * self.q.abs2) / 3.0
        return 1.5 * (self.psi - flat)


def check_subsolution(sol: BlaschkeSolution) -> np.ndarray:
    """Margin e^psi - 2^(1/3)|q|^(2/3); nonnegative for valid solutions,
    identically zero for the flat solution e^(3 psi) = 2|q|^2 of a constant
    q."""
    return sol.h - CBRT2 * sol.q.abs23


def _pcg(grid: Grid2D, mask: np.ndarray, fp: np.ndarray, b: np.ndarray,
         tol: float, label: str) -> np.ndarray:
    """Solve (-Lap + diag fp) d = b on the stencil block, with d = 0 on its
    pinned nodes; ``mask`` is 1.0 on the free nodes and 0.0 on the pinned
    ones, where b must vanish.

    The loop is SciPy's ``sparse.linalg.cg`` from x = 0, step for step, on
    the block's arrays, with atol = 0.01 tol and rtol = 1e-3 min(1, max|b|):
    the matvec (fp p - Lap p) mask and the preconditioner
    ``grid.preconditioner(fp, mask)`` r mask."""
    precondition = grid.preconditioner(fp, mask)
    x = np.zeros_like(b)
    b_norm = np.linalg.norm(b)
    if b_norm == 0:
        return x
    atol = max(0.01 * tol,
               1e-3 * min(1.0, float(np.abs(b).max())) * float(b_norm))
    full = np.zeros((grid.ny, grid.nx))  # a block array, zero-padded
    r = b.copy()
    p, q, z, tmp = (np.empty_like(b) for _ in range(4))

    def matvec(v, out):
        full[grid.inner] = v
        np.multiply(fp, v, out=out)
        out -= grid.laplacian(full, out=tmp)
        out *= mask
        return out

    rho_prev = None
    for it in range(_CG_MAXITER):
        if np.linalg.norm(r) < atol:
            break
        np.multiply(precondition(r), mask, out=z)
        rho = np.vdot(r, z)  # SciPy's np.dot of the flattened arrays
        if it:
            p *= rho / rho_prev
            p += z
        else:
            p[...] = z
        matvec(p, q)
        alpha = rho / np.vdot(p, q)
        x += np.multiply(p, alpha, out=tmp)
        r -= np.multiply(q, alpha, out=tmp)
        rho_prev = rho
    else:
        rel = np.linalg.norm(b - matvec(x, q)) / b_norm
        raise SingularJacobian(
            f"{label}: CG stopped after {_CG_MAXITER} iterations at "
            f"relative residual {rel:.3e}")
    return x


def _pinned(grid: Grid2D, values, mask, label: str):
    """The pinned nodes and their values, checked: the grid's rim and
    ``mask``, pinned to ``values`` (a number or a node field), finite
    there."""
    fixed = ~grid.interior_mask()
    if mask is not None:
        fixed |= np.asarray(mask, dtype=bool)
    if np.ndim(values) == 0:
        values = np.full((grid.ny, grid.nx), float(values))
    bvals = np.asarray(values, dtype=float)
    if bvals.shape != (grid.ny, grid.nx):
        raise BadParameters(f"{label}: boundary field of shape {bvals.shape} "
                            f"on a grid of shape {(grid.ny, grid.nx)}")
    bad = bvals[fixed][~np.isfinite(bvals[fixed])]
    if bad.size:
        raise BadParameters(f"{label}: {bad.size} pinned boundary values are "
                            f"not finite, e.g. {bad[0]}")
    return fixed, bvals


def _solve_semilinear(grid: Grid2D, f_and_deriv, fixed_mask, fixed_values,
                      x0, tol, max_iter, label):
    """Damped Newton for Lap x = f(x), f' > 0, on the nodes outside
    ``fixed_mask`` (x = ``fixed_values`` on it): the solution field, its
    max-norm residual over the free nodes and the Newton step count."""
    mask = np.where(fixed_mask[grid.inner], 0.0, 1.0)
    x = np.where(fixed_mask, fixed_values, x0)

    def residual(v):
        """The residual at v, with f' at v for the next Newton step."""
        fv, fp = f_and_deriv(v)
        r = grid.laplacian(v)
        r -= fv[grid.inner]
        r *= mask
        return r, fp[grid.inner]

    r, fp = residual(x)
    rn = float(np.abs(r).max())
    for it in range(max_iter):
        if rn <= tol:
            return x, rn, it
        delta = _pcg(grid, mask, fp, r, tol, label)
        step = 1.0
        while step > 1e-8:
            xn = x.copy()
            xn[grid.inner] += step * delta
            r2, fp2 = residual(xn)
            rn2 = float(np.abs(r2).max())
            if rn2 < (1.0 - 0.25 * step) * rn or rn2 <= tol:
                x, r, rn, fp = xn, r2, rn2, fp2
                break
            step *= 0.5
        else:
            floor = grid.rounding_floor(
                float(np.abs(x[grid.inner] * mask).max()))
            raise NoConvergence(
                f"{label}: line search stalled at residual {rn:.3e} for tol "
                f"{tol:.3e}; the residual's rounding floor is {floor:.3e}")
    if rn <= tol:
        return x, rn, max_iter
    raise NoConvergence(f"{label}: residual {rn:.3e} after {max_iter} steps")


def _wang(grid: Grid2D, abs2, fixed, bvals, tol, max_iter):
    """Newton for the Wang equation from the prolonged solve on
    ``grid.halved()`` (|q|^2, pins and values injected), or on the coarsest
    level from the capped subsolution and the harmonic extension."""
    label, every = f"wang on {grid.nx} x {grid.ny}", np.s_[::2, ::2]
    if (coarse := grid.halved()) is not None:
        x0 = grid.prolong(_wang(coarse, abs2[every], fixed[every],
                                bvals[every], tol, max_iter)[0])
    else:
        with np.errstate(divide="ignore"):
            sub = np.log(2.0 * abs2) / 3.0
        # with f' = 0 the preconditioner is the inverse
        lap = grid.laplacian(base := np.where(fixed, bvals, 0.0))
        base[grid.inner] += _pcg(grid, np.ones_like(lap), np.zeros_like(lap),
                                 lap, tol, label)
        x0 = np.maximum(base, np.maximum(sub, bvals[fixed].min() - 50.0))

    def f_and_deriv(psi):
        e1, e2 = _safe_exp(psi), _safe_exp(-2.0 * psi)
        return 2.0 * e1 - 4.0 * abs2 * e2, 2.0 * e1 + 8.0 * abs2 * e2

    return _solve_semilinear(grid, f_and_deriv, fixed, bvals, x0, tol,
                             max_iter, label)


def solve_wang(grid: Grid2D, q: CubicDifferentialField, tol: float = 1e-10,
               *, boundary_psi, max_iter: int = 60) -> BlaschkeSolution:
    """Solve Lap psi = 2 e^psi - 4 |q|^2 e^(-2 psi) on the grid, with psi
    pinned to ``boundary_psi`` (a number or a node field) on the rim.

    Newton starts from the same solve on ``grid.halved()``, if there is
    one; ``newton_iterations`` counts the steps on ``grid`` alone.
    """
    abs2 = q.abs2
    fixed, bvals = _pinned(grid, boundary_psi, None, "wang")
    psi, rn, its = _wang(grid, abs2, fixed, bvals, tol, max_iter)
    sol = BlaschkeSolution(grid, q, psi, rn, its)
    margin = check_subsolution(sol)
    sol.flags["subsolution_ok"] = bool(margin.min() >= -1e-8 * max(
        1.0, float(sol.h.max())))
    sol.flags["gap_nonnegative"] = bool((sol.gap[abs2 > 0] >= -1e-7).all())
    return sol


def solve_tzitzeica(grid: Grid2D, q: CubicDifferentialField,
                    boundary, tol: float = 1e-10,
                    fixed_mask=None) -> tuple[np.ndarray, float]:
    """Solve the gap equation Lap F = 3*2^(4/3)|q|^(2/3) e^(-F/3) sinh F.

    Returns F and its max-norm residual over the free nodes.  Dirichlet
    boundary values must be nonnegative; the discrete solution then
    satisfies F >= 0 everywhere (comparison with the zero solution).
    ``fixed_mask`` may pin additional nodes to the boundary value, e.g. to
    solve on an inscribed disk.
    """
    c = 3.0 * 2.0 ** (4.0 / 3.0) * q.abs23
    fixed, bvals = _pinned(grid, boundary, fixed_mask, "tzitzeica")
    low = float(bvals[fixed].min())
    if low < 0:
        raise BadParameters(f"boundary gap value {low:.6g} < 0")
    x0 = float(bvals[fixed].mean())

    def f_and_deriv(F):
        Fc = np.clip(F, -_EXP_CAP, _EXP_CAP)
        e3 = np.exp(-Fc / 3.0)
        return (c * e3 * np.sinh(Fc),
                c * e3 * (np.cosh(Fc) - np.sinh(Fc) / 3.0))

    F, rn, _its = _solve_semilinear(grid, f_and_deriv, fixed, bvals, x0,
                                    tol, 60, "tzitzeica")
    return F, rn
