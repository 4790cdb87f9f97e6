import math

import numpy as np
import pytest

from cubiclab.blaschke import (
    CubicDifferentialField,
    Grid2D,
    decay_experiment,
    discrete_laplacian,
    flat_metric_path_length,
    solve_tzitzeica,
    square_window,
    unit_torus_grid,
)
from cubiclab.errors import NegativeBoundary, ProbeTooCloseToZero


def test_torus_gap_vanishes():
    g = unit_torus_grid(24)
    q = CubicDifferentialField.constant(g, 1.0)
    F = solve_tzitzeica(g, q, tol=1e-12)
    assert np.abs(F).max() < 1e-10


def test_dirichlet_barrier_bound():
    # square of side 2d, boundary value 1, q = dz^3: the center value is
    # dominated by 1 / cosh(sqrt(C) d) with 2C = 3 * 2^(4/3) e^(-1/3)
    d = 2.0
    g = Grid2D(-d, d, -d, d, 65, 65)
    q = CubicDifferentialField.constant(g, 1.0)
    F = solve_tzitzeica(g, q, boundary=1.0, tol=1e-12)
    C = 0.5 * 3.0 * 2.0 ** (4.0 / 3.0) * math.exp(-1.0 / 3.0)
    barrier = 1.0 / math.cosh(math.sqrt(C) * d)
    center = float(F[g.ny // 2, g.nx // 2])
    assert 0.0 < center <= barrier + 1e-6
    assert (F >= -1e-12).all()


def test_dirichlet_barrier_refinement():
    # measured center value is stable under refinement (second order)
    d = 2.0
    vals = []
    for n in (33, 65, 129):
        g = Grid2D(-d, d, -d, d, n, n)
        q = CubicDifferentialField.constant(g, 1.0)
        F = solve_tzitzeica(g, q, boundary=1.0, tol=1e-12)
        vals.append(float(F[n // 2, n // 2]))
    assert abs(vals[1] - vals[2]) < abs(vals[0] - vals[1])


def test_disk_masked_residual_by_independent_stencil():
    # the gap solve of decay_experiment on the inscribed disk, residual
    # recomputed with estimates.discrete_laplacian on the free nodes
    probe, t = 1.0 + 0j, 8.0
    g = square_window(probe, 1.6, 65)
    disk_fixed = np.abs(g.zs - probe) >= 0.999 * 0.8
    q = CubicDifferentialField.from_polynomial(g, [0.0, t])
    F = solve_tzitzeica(g, q, boundary=1.0, tol=1e-10, fixed_mask=disk_fixed)
    assert (F[disk_fixed] == 1.0).all()
    free = ~disk_fixed & g.interior_mask()
    lap = discrete_laplacian(F, g.dx, g.dy)
    rhs = 3.0 * 2.0 ** (4.0 / 3.0) * q.abs23 * np.exp(-F / 3.0) * np.sinh(F)
    assert np.abs(lap - rhs)[free].max() <= 1e-10


def test_negative_boundary_rejected():
    g = Grid2D(-1, 1, -1, 1, 16, 16)
    q = CubicDifferentialField.constant(g, 1.0)
    with pytest.raises(NegativeBoundary):
        solve_tzitzeica(g, q, boundary=-0.1)


def test_flat_path_length_quadrature():
    # |t z|^(1/3) integrated from 1 to 0: t^(1/3) * 3/4
    for t in (1.0, 8.0):
        got = flat_metric_path_length([0.0, 1.0], 1.0 + 0j, 0j, scale=t)
        assert abs(got - 0.75 * t ** (1.0 / 3.0)) < 1e-10
    # constant differential: plain Euclidean distance times t^(1/3)
    got = flat_metric_path_length([1.0], 0j, 3.0 + 4.0j, scale=8.0)
    assert abs(got - 2.0 * 5.0) < 1e-10


def test_decay_certificates_constant_q():
    certs = decay_experiment([1.0], [1.0, 8.0, 64.0], 0j,
                             window_side=4.0, n=97, bound=1.0)
    assert all(c.passed for c in certs)
    meas = [c.measured for c in certs]
    assert meas[0] > meas[1] > meas[2] > 0
    logs = [math.log(m) for m in meas]
    t13 = [c.t ** (1.0 / 3.0) for c in certs]
    s1 = (logs[1] - logs[0]) / (t13[1] - t13[0])
    s2 = (logs[2] - logs[1]) / (t13[2] - t13[1])
    assert s2 < s1 < 0  # at least linear, in fact steepening
    assert all(c.residual < 1e-8 for c in certs)
    # a constant differential has no zeros
    assert all(c.flat_radius == math.inf for c in certs)


def test_decay_certificates_zq():
    certs = decay_experiment([0.0, 1.0], [1.0, 8.0], 1.0 + 0j,
                             window_side=1.6, n=97, bound=1.0)
    assert all(c.passed for c in certs)
    # flat distance from the probe to the zero: (3/4) t^(1/3), quadrature
    for c in certs:
        assert abs(c.flat_radius - 0.75 * c.t ** (1.0 / 3.0)) < 1e-8


def test_probe_at_zero_rejected():
    with pytest.raises(ProbeTooCloseToZero):
        decay_experiment([0.0, 1.0], [1.0], 0j, window_side=2.0, n=65)


def test_t_list_must_increase():
    with pytest.raises(ValueError):
        decay_experiment([1.0], [8.0, 1.0], 0j)
