"""Damped-Newton solvers for the Wang equation and the gap equation.

In coordinate gauge (h = e^psi |dz|^2) the Wang equation reads

    Lap psi = 2 e^psi - 4 |q|^2 e^(-2 psi),

and the log-density gap F = (3/2)(psi - (1/3) log(2 |q|^2)) between h and
the flat comparison metric 2^(1/3)|q|^(2/3) satisfies

    Lap F = 3 * 2^(4/3) |q|^(2/3) e^(-F/3) sinh(F).

Both read Lap x = f(x) with f' > 0, so the Newton systems are uniformly
invertible (also on the torus) and the discrete solutions obey the maximum
principle.  One matrix-free damped Newton kernel solves both on the free
nodes (those not pinned to boundary values), applying the 5-point stencil by
array slicing.  Each step solves (-Lap + diag f') d = r by conjugate
gradients, preconditioned by (-Lap + c I)^-1 on the whole rectangle, c the
mean of f' over the free nodes: a type-1 sine transform on Dirichlet grids,
an FFT on the torus, with free-node vectors zero-padded to the rectangle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla
from scipy.fft import dstn, fft2, idstn, ifft2

from ..errors import NegativeBoundary, NoConvergence, NoSolution, \
    SingularJacobian
from .cubic import CubicDifferentialField
from .grid import DIRICHLET, Grid2D

_EXP_CAP = 300.0
_CG_MAXITER = 500


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
    def u(self) -> np.ndarray:
        sigma = self.grid.sigma
        if sigma is None:
            return self.psi
        return self.psi - np.log(sigma)

    @property
    def h(self) -> np.ndarray:
        return _safe_exp(self.psi)

    @property
    def gap(self) -> np.ndarray:
        """F = (3/2)(psi - (1/3) log(2|q|^2)); +inf at zeros of q."""
        with np.errstate(divide="ignore"):
            flat = np.log(2.0 * self.q.abs2) / 3.0
        return 1.5 * (self.psi - flat)


def _laplacian(grid: Grid2D, x: np.ndarray) -> np.ndarray:
    """5-point Laplacian of a node field; zero on the rim of a Dirichlet
    grid, wrapped around on the torus."""
    idx2 = 1.0 / grid.dx ** 2
    idy2 = 1.0 / grid.dy ** 2
    if grid.bc != DIRICHLET:
        return ((np.roll(x, -1, 1) - 2.0 * x + np.roll(x, 1, 1)) * idx2
                + (np.roll(x, -1, 0) - 2.0 * x + np.roll(x, 1, 0)) * idy2)
    out = np.zeros_like(x)
    c = x[1:-1, 1:-1]
    out[1:-1, 1:-1] = ((x[1:-1, 2:] - 2.0 * c + x[1:-1, :-2]) * idx2
                       + (x[2:, 1:-1] - 2.0 * c + x[:-2, 1:-1]) * idy2)
    return out


def _symbol(n: int, h: float, periodic: bool) -> np.ndarray:
    """Eigenvalues of the 1-D negative second difference, in FFT order on n
    periodic nodes, in type-1 sine transform order on n - 2 inner nodes."""
    j, m = (np.arange(n), n) if periodic else (np.arange(1, n - 1), 2 * n - 2)
    return (2.0 / h * np.sin(np.pi * j / m)) ** 2


def _pcg(grid: Grid2D, free: np.ndarray, fp: np.ndarray, r: np.ndarray,
         tol: float, label: str) -> np.ndarray:
    """Solve (-Lap + diag fp) d = r on the free nodes; d = 0 elsewhere."""
    periodic = grid.bc != DIRICHLET
    eig = (_symbol(grid.ny, grid.dy, periodic)[:, None]
           + _symbol(grid.nx, grid.dx, periodic)[None, :] + float(fp.mean()))

    def pad(v):
        full = np.zeros((grid.ny, grid.nx))
        full[free] = v
        return full

    def matvec(v):
        return fp * v - _laplacian(grid, pad(v))[free]

    def precondition(v):
        full = pad(v)
        if periodic:
            full = ifft2(fft2(full) / eig).real
        else:
            full[1:-1, 1:-1] = idstn(dstn(full[1:-1, 1:-1], type=1) / eig,
                                     type=1)
        return full[free]

    op = (r.size, r.size)
    d, info = spla.cg(spla.LinearOperator(op, matvec, dtype=float), r,
                      rtol=1e-3 * min(1.0, float(np.abs(r).max())),
                      atol=0.01 * tol, maxiter=_CG_MAXITER,
                      M=spla.LinearOperator(op, precondition, dtype=float))
    if info != 0 or not np.all(np.isfinite(d)):
        rel = np.linalg.norm(r - matvec(d)) / np.linalg.norm(r)
        raise SingularJacobian(
            f"{label}: CG stopped after {info} iterations at relative "
            f"residual {rel:.3e}")
    return pad(d)


def _solve_semilinear(grid: Grid2D, f_and_deriv, fixed_mask, fixed_values,
                      x0, tol, max_iter, label):
    """Damped Newton for Lap x = f(x), f' > 0, on the nodes outside
    ``fixed_mask`` (x = ``fixed_values`` on it): the solution field, its
    max-norm residual over the free nodes and the Newton step count."""
    free = ~fixed_mask
    x = np.where(fixed_mask, fixed_values, x0)

    def residual(v):
        fv, _ = f_and_deriv(v)
        return (_laplacian(grid, v) - fv)[free]

    r = residual(x)
    rn = float(np.abs(r).max())
    for it in range(max_iter):
        if rn <= tol:
            return x, rn, it
        _, fp = f_and_deriv(x)
        delta = _pcg(grid, free, fp[free], r, tol, label)
        step = 1.0
        while step > 1e-8:
            xn = x + step * delta
            r2 = residual(xn)
            rn2 = float(np.abs(r2).max())
            if rn2 < (1.0 - 0.25 * step) * rn or rn2 <= tol:
                x, r, rn = xn, r2, rn2
                break
            step *= 0.5
        else:
            raise NoConvergence(
                f"{label}: line search stalled at residual {rn:.3e}")
    if rn <= tol:
        return x, rn, max_iter
    raise NoConvergence(f"{label}: residual {rn:.3e} after {max_iter} steps")


def solve_wang(grid: Grid2D, q: CubicDifferentialField, tol: float = 1e-10,
               boundary_psi=None, max_iter: int = 60) -> BlaschkeSolution:
    """Solve Lap psi = 2 e^psi - 4 |q|^2 e^(-2 psi) on the grid.

    Dirichlet solves take boundary psi values (array or callable of z);
    doubly periodic solves need q not identically zero.
    """
    abs2 = q.abs2
    periodic = grid.bc != DIRICHLET
    if periodic and float(abs2.max()) == 0.0:
        raise NoSolution(
            "q = 0 on a periodic grid: the integral of Lap psi vanishes "
            "but the right side 2 e^psi is strictly positive")

    fixed = ~grid.interior_mask()
    # initial guess: capped subsolution, blended with boundary data
    with np.errstate(divide="ignore"):
        sub = np.log(2.0 * abs2) / 3.0
    if periodic:
        bvals = 0.0
        x0 = np.maximum(sub, sub[np.isfinite(sub)].max() - 50.0)
    else:
        if boundary_psi is None:
            raise ValueError("Dirichlet solves need boundary psi values")
        bvals = np.asarray(boundary_psi(grid.zs) if callable(boundary_psi)
                           else boundary_psi, dtype=float)
        if bvals.shape != (grid.ny, grid.nx):
            raise ValueError("boundary field shape mismatch")
        if not np.all(np.isfinite(bvals[fixed])):
            raise ValueError("boundary psi must be finite")
        # harmonic extension: f' = 0 makes the preconditioner exact
        base = np.where(fixed, bvals, 0.0)
        harmonic = base + _pcg(grid, ~fixed, np.zeros(int((~fixed).sum())),
                               _laplacian(grid, base)[~fixed], tol, "wang")
        x0 = np.maximum(harmonic, np.maximum(sub, bvals[fixed].min() - 50.0))

    def f_and_deriv(psi):
        e1 = _safe_exp(psi)
        e2 = _safe_exp(-2.0 * psi)
        return 2.0 * e1 - 4.0 * abs2 * e2, 2.0 * e1 + 8.0 * abs2 * e2

    psi, rn, its = _solve_semilinear(grid, f_and_deriv, fixed, bvals, x0,
                                     tol, max_iter, "wang")
    sol = BlaschkeSolution(grid, q, psi, rn, its)
    margin = sol.h - 2.0 ** (1.0 / 3.0) * q.abs23
    sol.flags["subsolution_ok"] = bool(margin.min() >= -1e-8 * max(
        1.0, float(sol.h.max())))
    sol.flags["gap_nonnegative"] = bool((sol.gap[abs2 > 0] >= -1e-7).all())
    return sol


def solve_tzitzeica(grid: Grid2D, q: CubicDifferentialField,
                    boundary=None, tol: float = 1e-10,
                    max_iter: int = 60, fixed_mask=None) -> np.ndarray:
    """Solve the gap equation Lap F = 3*2^(4/3)|q|^(2/3) e^(-F/3) sinh F.

    Dirichlet boundary values must be nonnegative; the discrete solution
    then satisfies F >= 0 everywhere (comparison with the zero solution).
    ``fixed_mask`` may pin additional nodes of a Dirichlet grid to the
    boundary value, e.g. to solve on an inscribed disk.
    """
    c = 3.0 * 2.0 ** (4.0 / 3.0) * q.abs23
    fixed = ~grid.interior_mask()
    if grid.bc != DIRICHLET:
        bvals = x0 = 0.0
    else:
        if fixed_mask is not None:
            fixed = fixed | np.asarray(fixed_mask, dtype=bool)
        if boundary is None:
            raise ValueError("Dirichlet solves need boundary values")
        bvals = np.asarray(boundary, dtype=float)
        if bvals.ndim == 0:
            bvals = np.full((grid.ny, grid.nx), float(bvals))
        if bvals.shape != (grid.ny, grid.nx):
            raise ValueError("boundary field shape mismatch")
        if bvals[fixed].min() < 0:
            raise NegativeBoundary(
                f"boundary gap value {bvals[fixed].min():.6g} < 0")
        x0 = np.full((grid.ny, grid.nx), float(bvals[fixed].mean()))

    def f_and_deriv(F):
        Fc = np.clip(F, -_EXP_CAP, _EXP_CAP)
        e3 = np.exp(-Fc / 3.0)
        return (c * e3 * np.sinh(Fc),
                c * e3 * (np.cosh(Fc) - np.sinh(Fc) / 3.0))

    F, _rn, _its = _solve_semilinear(grid, f_and_deriv, fixed, bvals, x0,
                                     tol, max_iter, "tzitzeica")
    return F
