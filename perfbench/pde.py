"""PDE workloads: the Wang equation on a rectangle and the gap-equation ray.

Each workload builds its inputs from the seed in ``__init__``.  ``ops(k)``
returns the operations of pass k; each takes the results of the pass's
earlier operations.  ``check(k, results)`` returns one verdict per counted
operation, with None standing for an operation that raised.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from cubiclab import blaschke

WANG_TOL = 1e-10


class WangZcubic:
    """``solve_wang`` for q = e^(i theta) z dz^3 on the window [-4, 4]^2.

    The boundary data is psi = log(2|z|^2)/3, as in the z-cubic test
    fixture.  The equation sees only |q|, so the seeded phase changes the
    input but neither the work nor the solution.
    """

    def __init__(self, seed: int, smoke: bool):
        rng = np.random.default_rng(seed)
        phase = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        self.problems = []
        for n in (129,) if smoke else (129, 257, 513):
            grid = blaschke.Grid2D(-4.0, 4.0, -4.0, 4.0, n, n)
            q = blaschke.CubicDifferentialField.from_polynomial(
                grid, [0.0, phase])
            with np.errstate(divide="ignore"):
                psi_b = np.log(2.0 * np.abs(grid.zs) ** 2) / 3.0
            self.problems.append((grid, q, psi_b))

    def ops(self, k: int):
        return [lambda done, g=g, q=q, b=b: blaschke.solve_wang(
                    g, q, tol=WANG_TOL, boundary_psi=b)
                for g, q, b in self.problems]

    def check(self, k: int, results) -> list[bool]:
        oks = [sol is not None and sol.residual <= WANG_TOL
               and sol.flags["subsolution_ok"] and sol.flags["gap_nonnegative"]
               for sol in results]
        if len(results) == 3:
            # the centre value converges as the grid is refined
            c = [math.nan if sol is None
                 else float(sol.psi[sol.grid.ny // 2, sol.grid.nx // 2])
                 for sol in results]
            oks[-1] = oks[-1] and abs(c[2] - c[1]) < abs(c[1] - c[0])
        return oks


class DecayRay:
    """``decay_experiment`` on the ray t * e^(i theta) z dz^3, t = 1..512.

    The probe is one of 1, i, -1, -i: the square window centred on it maps
    to the others under rotation, so the seed moves the input but not the
    work.  The window has side 1.6, the grid n = 257 nodes a side.
    """

    T_LIST = (1.0, 8.0, 64.0, 512.0)

    def __init__(self, seed: int, smoke: bool):
        rng = np.random.default_rng(seed)
        phase = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        self.coeffs = [0.0, phase]
        self.probe = (1.0 + 0j, 1j, -1.0 + 0j, -1j)[int(rng.integers(4))]
        self.n = 65 if smoke else 257

    def ops(self, k: int):
        return [lambda done: blaschke.decay_experiment(
            self.coeffs, self.T_LIST, self.probe, window_side=1.6, n=self.n)]

    def check(self, k: int, results) -> list[bool]:
        # one operation per gap solve; DecayCertificate.flat_radius is not
        # read (it is known to mix in the window edge)
        certs = results[0]
        if certs is None or len(certs) != len(self.T_LIST):
            return [False] * len(self.T_LIST)
        oks = []
        prev = math.inf
        for c in certs:
            oks.append(bool(c.passed) and c.residual < 1e-8
                       and c.measured < prev)
            prev = c.measured
        return oks
