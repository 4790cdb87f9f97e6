"""Uniform finite-difference grids on axis-aligned rectangles.

The grid is the one place that knows its boundary condition, Dirichlet on
the rim: which nodes the 5-point stencil acts on, the stencil itself, and
how to precondition -Lap + diag f' on those nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..errors import BadParameters


@dataclass(frozen=True)
class Grid2D:
    """Node layout for the 5-point stencil on [x0,x1] x [y0,y1].

    The nodes include the rim, where Dirichlet values are pinned.  Fields
    are arrays of shape (ny, nx), row-major, x varying along the last axis.
    """

    x0: float
    x1: float
    y0: float
    y1: float
    nx: int
    ny: int

    COARSEST = 65  # levels below 65 nodes a side save no CG step above them

    def __post_init__(self):
        if self.nx < 8 or self.ny < 8:
            raise BadParameters(f"grids need at least 8 nodes per axis, got "
                                f"nx={self.nx}, ny={self.ny}")
        if self.x1 <= self.x0 or self.y1 <= self.y0:
            raise BadParameters(f"empty domain rectangle [{self.x0}, "
                                f"{self.x1}] x [{self.y0}, {self.y1}]")

    @property
    def dx(self) -> float:
        return (self.x1 - self.x0) / (self.nx - 1)

    @property
    def dy(self) -> float:
        return (self.y1 - self.y0) / (self.ny - 1)

    @property
    def zs(self) -> np.ndarray:
        X, Y = np.meshgrid(self.x0 + self.dx * np.arange(self.nx),
                           self.y0 + self.dy * np.arange(self.ny))
        return X + 1j * Y

    @property
    def inner(self) -> tuple[slice, slice]:
        """The block of nodes the stencil acts on: all but the rim."""
        return np.s_[1:-1, 1:-1]

    def interior_mask(self) -> np.ndarray:
        m = np.zeros((self.ny, self.nx), dtype=bool)
        m[self.inner] = True
        return m

    def laplacian(self, field, out=None) -> np.ndarray:
        """5-point Laplacian of a node field on the inner block, written
        into ``out`` if given."""
        x = np.asarray(field, dtype=float)
        # (x_e - 2 x_c + x_w) / dx^2 + (x_n - 2 x_c + x_s) / dy^2, in order
        c2 = 2.0 * x[1:-1, 1:-1]
        out = np.subtract(x[1:-1, 2:], c2, out=out)
        out += x[1:-1, :-2]
        out *= 1.0 / self.dx ** 2
        c2 = np.subtract(x[2:, 1:-1], c2, out=c2)
        c2 += x[:-2, 1:-1]
        c2 *= 1.0 / self.dy ** 2
        out += c2
        return out

    def rounding_floor(self, scale: float) -> float:
        """eps (2/dx^2 + 2/dy^2) scale: the rounding of the stencil's
        residual on a field of max-norm ``scale``."""
        return np.finfo(float).eps * (2 / self.dx**2 + 2 / self.dy**2) * scale

    def shifted_inverse(self, c: float):
        """The map b -> (-Lap + c)^-1 b on inner-block arrays, by type-1
        sine transforms.

        The transforms run in single precision, on a float32 copy of b that
        is divided by the eigenvalues (computed in double, then rounded),
        and the result comes back as float64.  This map only preconditions
        the Newton kernel's conjugate gradients, whose recurrences and
        stopping test read the double residual, so its rounding can cost
        iterations but not accuracy.  ``scipy.fft`` is imported here, so a
        process loads it with its first spectral inverse."""
        from scipy.fft import dstn, idstn

        def symbol(n, h):
            # eigenvalues of the 1-D negative second difference on the
            # n - 2 inner nodes, in DST-I order
            return (2.0 / h * np.sin(np.pi * np.arange(1, n - 1)
                                     / (2 * n - 2))) ** 2

        eig = (symbol(self.ny, self.dy)[:, None]
               + symbol(self.nx, self.dx)[None, :] + c).astype(np.float32)
        work = np.empty(eig.shape, dtype=np.float32)

        def solve(b):
            work[...] = b
            spec = dstn(work, type=1, overwrite_x=True)
            spec /= eig
            return idstn(spec, type=1, overwrite_x=True).astype(float)
        return solve

    def preconditioner(self, fp, mask):
        """r -> M r on inner-block arrays, preconditioning the masked
        -Lap + diag fp (``mask`` 1.0 on free nodes, 0.0 on pinned ones):
        ``shifted_inverse`` at c the mean of fp if no node is pinned, else,
        as no transform fits the free domain, a multigrid V-cycle."""
        if mask.all():
            return self.shifted_inverse(float(fp[mask > 0].mean()))
        scratch = np.empty((2, (mask.shape[0] + 2) * (mask.shape[1] + 2)))
        return _Level(mask, fp, self.dx, self.dy, scratch).apply

    def halved(self) -> Grid2D | None:
        """The grid of every other node; None on an even side or if it
        would have fewer than ``COARSEST`` nodes a side."""
        nx, ny = (self.nx + 1) // 2, (self.ny + 1) // 2
        if not self.nx % 2 == self.ny % 2 == 1 or min(nx, ny) < self.COARSEST:
            return None
        return replace(self, nx=nx, ny=ny)

    def prolong(self, coarse) -> np.ndarray:
        """A node field on ``halved()`` prolonged bilinearly, as in _Level."""
        _interpolate(coarse, half := np.empty((self.ny, coarse.shape[1])))
        _interpolate(half.T, (fine := np.empty((self.ny, self.nx))).T)
        return fine

    def nearest_node(self, z: complex) -> tuple[int, int]:
        ix = int(round((z.real - self.x0) / self.dx))
        iy = int(round((z.imag - self.y0) / self.dy))
        if not (0 <= ix < self.nx and 0 <= iy < self.ny):
            raise BadParameters(f"point {z} outside the grid")
        return iy, ix

    def integrate(self, field) -> float:
        """Quadrature of a node field over the domain: the trapezoid
        rule."""
        wx = np.ones(self.nx)
        wy = np.ones(self.ny)
        wx[[0, -1]] = wy[[0, -1]] = 0.5
        return float(wy @ np.asarray(field, dtype=float) @ wx) \
            * (self.dx * self.dy)


class _Level:
    """A level of the multigrid hierarchy for the masked -Lap + diag fp:
    each coarser one takes every other node, with fp and pins injected;
    prolongation P is bilinear, restriction P^T / 4.  Fields are padded by
    a zero rim and flattened: the stencil's neighbours lie at offsets +-1
    and +-(nx + 2), and the mask, 0 on the rim, drops the wrong ones.  The
    mask is stored times omega and the stencil over omega."""

    OMEGA = 0.8  # Jacobi damping: the 5-point stencil's best smoother

    def __init__(self, mask, fp, dx, dy, scratch):
        ny, nx = self.shape = mask.shape
        self.w, om = nx + 2, self.OMEGA
        fields = np.zeros((4, ny + 2, nx + 2))
        fields[1] = 1.0
        fields[:2, 1:-1, 1:-1] = om * mask, (2 / dx**2 + 2 / dy**2 + fp) / om
        self.mask, self.diag, self.rhs, self.x = fields.reshape(4, -1)
        self.res, self.tmp = scratch[:, :self.x.size]  # shared by all levels
        self.cx, self.cy = 1.0 / (om * dx ** 2), 1.0 / (om * dy ** 2)
        self.coarse = None if min(ny, nx) < 3 else _Level(
            mask[1::2, 1::2], fp[1::2, 1::2], 2 * dx, 2 * dy, scratch)

    def apply(self, r):
        """M r, as a view that the next application overwrites."""
        self.rhs.reshape(-1, self.w)[1:-1, 1:-1] = r
        self.cycle()
        return self.x.reshape(-1, self.w)[1:-1, 1:-1]

    def residual(self):
        """rhs - A x into ``res``, zero on the pinned nodes and the rim."""
        x, w = self.x, self.w
        self.res[:w] = self.res[-w:] = 0.0
        out, tmp = self.res[w:-w], self.tmp[w:-w]
        np.add(x[w - 1:-w - 1], x[w + 1:-w + 1], out=out)
        out *= self.cx
        np.add(x[:-2 * w], x[2 * w:], out=tmp)
        tmp *= self.cy
        out += tmp
        out -= np.multiply(self.diag[w:-w], x[w:-w], out=tmp)
        out *= self.mask[w:-w]
        out += self.rhs[w:-w]

    def cycle(self):
        """x = M rhs, M symmetric positive: a damped Jacobi sweep from 0, the
        coarse correction (none below 3 nodes wide) and another sweep."""
        np.divide(self.rhs, self.diag, out=self.x)
        co, w = self.coarse, self.w
        if co is not None:
            (my, mx), res = co.shape, self.res.reshape(-1, w)
            self.residual()
            rows = self.tmp[:my * w].reshape(my, w)
            _weigh(res[1:], rows)
            _weigh(rows.T[1:], co.rhs.reshape(my + 2, -1)[1:-1, 1:-1].T)
            co.rhs *= co.mask
            co.rhs *= 1.0 / (16.0 * self.OMEGA ** 2)  # P^T / 4, two masks
            co.cycle()
            half = self.tmp[:(my + 2) * w].reshape(-1, w)
            _interpolate(co.x.reshape(my + 2, -1).T, half.T)
            _interpolate(half, res)
            self.res *= self.mask
            self.x += self.res
        self.residual()
        self.x += np.divide(self.res, self.diag, out=self.res)


def _weigh(fine, coarse):
    """2 P^T along axis 0: fine[2j] + 2 fine[2j + 1] + fine[2j + 2]."""
    n = len(coarse)
    np.add(fine[:2 * n:2], fine[2:2 * n + 1:2], out=coarse)
    for _ in range(2):
        coarse += fine[1:2 * n:2]


def _interpolate(coarse, fine):
    """P along axis 0: fine 2j is coarse j, 2j + 1 the mean of j, j + 1."""
    n = len(fine)
    fine[0::2] = coarse[:(n + 1) // 2]
    np.add(coarse[:n // 2], coarse[1:n // 2 + 1], out=fine[1::2])
    fine[1::2] *= 0.5


def square_window(center: complex, side: float, n: int) -> Grid2D:
    h = side / 2.0
    return Grid2D(center.real - h, center.real + h,
                  center.imag - h, center.imag + h, n, n)
