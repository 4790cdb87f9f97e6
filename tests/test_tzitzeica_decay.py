import cmath
import math
import re

import numpy as np
import pytest

from cubiclab.blaschke import (
    CubicDifferentialField,
    Grid2D,
    decay_experiment,
    solve_tzitzeica,
    solve_wang,
    square_window,
)
from cubiclab.blaschke.decay import _min_abs_q_on_disk
from cubiclab.errors import BadParameters, NoConvergence
from oracles import five_point_laplacian


def test_constant_q_gap_vanishes():
    # the flat solution e^(3 psi) = 2|q|^2 of a constant q has F = 0: the
    # gap solve with boundary 0 and the gap of the Wang solve with the flat
    # boundary value both return it
    g = Grid2D(0.0, 1.0, 0.0, 1.0, 33, 33)
    q = CubicDifferentialField.from_polynomial(g, [2.0 - 1.0j])
    F, residual = solve_tzitzeica(g, q, boundary=0.0, tol=1e-12)
    assert not F.any() and residual == 0.0
    sol = solve_wang(g, q, tol=1e-12, boundary_psi=math.log(10.0) / 3.0)
    assert np.abs(sol.gap).max() < 1e-10


def test_dirichlet_barrier_bound():
    # square of side 2d, boundary value 1, q = dz^3: the center value is
    # dominated by 1 / cosh(sqrt(C) d) with 2C = 3 * 2^(4/3) e^(-1/3)
    d = 2.0
    g = Grid2D(-d, d, -d, d, 65, 65)
    q = CubicDifferentialField.from_polynomial(g, [1.0])
    F, _residual = solve_tzitzeica(g, q, boundary=1.0, tol=1e-12)
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
        q = CubicDifferentialField.from_polynomial(g, [1.0])
        F, _residual = solve_tzitzeica(g, q, boundary=1.0, tol=1e-12)
        vals.append(float(F[n // 2, n // 2]))
    assert abs(vals[1] - vals[2]) < abs(vals[0] - vals[1])


def test_disk_masked_residual_by_independent_stencil():
    # the gap solve of decay_experiment on the inscribed disk, residual
    # recomputed with the oracle's second differences on the free nodes
    probe, t = 1.0 + 0j, 8.0
    g = square_window(probe, 1.6, 65)
    disk_fixed = np.abs(g.zs - probe) >= 0.999 * 0.8
    q = CubicDifferentialField.from_polynomial(g, [0.0, t])
    F, residual = solve_tzitzeica(g, q, boundary=1.0, tol=1e-10,
                                  fixed_mask=disk_fixed)
    assert (F[disk_fixed] == 1.0).all()
    free = ~disk_fixed & g.interior_mask()
    lap = five_point_laplacian(F, g.dx, g.dy)
    rhs = 3.0 * 2.0 ** (4.0 / 3.0) * q.abs23 * np.exp(-F / 3.0) * np.sinh(F)
    oracle = np.abs(lap - rhs)[free].max()
    assert oracle <= 1e-10
    # the residual the solver returns is the one over the free nodes
    assert residual == pytest.approx(oracle, rel=1e-3)


@pytest.mark.parametrize("where", ["scalar", "rim", "pinned"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_nonfinite_dirichlet_data_rejected(where, bad):
    # NaN or inf on a pinned node is rejected before any solve, not left
    # to run CG to its iteration cap and raise SingularJacobian
    g = Grid2D(-1, 1, -1, 1, 16, 16)
    q = CubicDifferentialField.from_polynomial(g, [1.0])
    mask = np.zeros((g.ny, g.nx), dtype=bool)
    mask[7, 7] = True
    data = np.ones((g.ny, g.nx))
    data[{"rim": (0, 5), "pinned": (7, 7)}.get(where, (3, 3))] = bad
    boundary = bad if where == "scalar" else data
    with pytest.raises(ValueError, match="pinned boundary values are not "
                                         "finite"):
        solve_tzitzeica(g, q, boundary=boundary, fixed_mask=mask)
    if where == "rim":  # the Wang solve pins the rim only
        with pytest.raises(ValueError, match="pinned boundary values are "
                                             "not finite"):
            solve_wang(g, q, boundary_psi=data)


def test_negative_boundary_rejected():
    g = Grid2D(-1, 1, -1, 1, 16, 16)
    q = CubicDifferentialField.from_polynomial(g, [1.0])
    with pytest.raises(BadParameters, match=r"boundary gap value -0\.1 < 0"):
        solve_tzitzeica(g, q, boundary=-0.1)


def test_stalled_line_search_names_tol_and_rounding_floor():
    # ray-z-window's disk solve at t = 1 asked for tol 1e-12: the residual
    # stalls near 1.5e-12, below its rounding floor eps (2/dx^2 + 2/dy^2)
    # max|F| over the free nodes, about 3.2e-12 with dx = 1.6/96 and F <= 1
    g = square_window(1.0, 1.6, 97)
    q = CubicDifferentialField.from_polynomial(g, [0.0, 1.0])
    disk = np.abs(g.zs - 1.0) >= 0.999 * 0.8
    with pytest.raises(NoConvergence, match=r"^tzitzeica: line search stalled "
                       r"at residual \d\.\d{3}e-12 for tol 1\.000e-12; the "
                       r"residual's rounding floor is 3\.\d{3}e-12$") as err:
        solve_tzitzeica(g, q, boundary=1.0, tol=1e-12, fixed_mask=disk)
    stalled, _tol, floor = map(float, re.findall(r"\d\.\d{3}e-12",
                                                 str(err.value)))
    bound = np.finfo(float).eps * 4.0 / g.dx ** 2
    assert stalled < floor <= bound


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


def test_decay_certificates_zq():
    certs = decay_experiment([0.0, 1.0], [1.0, 8.0], 1.0 + 0j,
                             window_side=1.6, n=97, bound=1.0)
    assert all(c.passed for c in certs)


def test_decay_refines_past_the_rounding_floor():
    # at n = 769 the residual's rounding floor eps (2/dx^2 + 2/dy^2) max|F|
    # reaches 2.0e-10 on ray-z-window's inputs, above a fixed 1e-10: each t
    # is solved to twice the floor for max|F| = bound, 4.1e-10 here
    certs = decay_experiment([0.0, 1.0], [1.0], 1.0, window_side=1.6, n=769)
    dx = 1.6 / 768
    assert certs[0].passed
    assert certs[0].residual <= 2.0 * np.finfo(float).eps * 4.0 / dx ** 2


def test_disk_minimum_is_a_lower_bound():
    # on a disk free of the zeros, |q| = |lead| prod |z - z_k| is at least
    # |lead| prod (|centre - z_k| - R), and its minimum lies on the circle
    circle = np.exp(2j * math.pi * np.arange(100_000) / 100_000)
    for probe, radius in [(0.5, 0.9), (1.0 + 0.3j, 1.0), (-0.2 - 0.4j, 0.5)]:
        bound = _min_abs_q_on_disk(1.0, np.array([1j, -1j]), probe, radius)
        sampled = np.abs(1.0 + (probe + radius * circle) ** 2).min()
        assert 0.0 < bound <= sampled
    # for q = z it is the minimum 1 - R, where a 48 x 96 polar sample
    # missing the direction of the zero read 0.202272
    bound = _min_abs_q_on_disk(1.0, np.array([0j]), cmath.exp(0.3j), 0.7992)
    assert bound == pytest.approx(0.2008, rel=0.0, abs=1e-15)


def test_decay_cg_work_is_bounded(preconditioner_applications):
    # 96 CG iterations with the V-cycle on the disk, 203 with the spectral
    # inverse of the square: a preconditioner that lost accuracy fails here
    decay_experiment([0, 1], (1, 8, 64, 512), 1, window_side=1.6, n=129)
    assert len(preconditioner_applications) <= 100


def test_decay_cg_work_per_newton_step_is_h_independent(
        preconditioner_applications):
    # CG iterations per Newton step on the disk: 5.7 at n = 65 and 7.5 at
    # n = 257 with the V-cycle; the spectral inverse of the square took
    # 9.9 and 18.5, a growth like h^(-1/2)
    per_step = []
    for n in (65, 257):
        preconditioner_applications.clear()
        decay_experiment([0, 1], (1, 8, 64, 512), 1, window_side=1.6, n=n)
        solves = len(set(preconditioner_applications))
        per_step.append(len(preconditioner_applications) / solves)
    assert per_step[1] <= 1.5 * per_step[0], per_step


def test_probe_at_zero_rejected():
    with pytest.raises(BadParameters, match=r"coordinate radius 0 around "
                                            r"the probe 0j is below"):
        decay_experiment([0.0, 1.0], [1.0], 0j, window_side=2.0, n=65)


@pytest.mark.parametrize("t", [-1.0, 0.0])
def test_nonpositive_t_rejected(t):
    # t = -1 would repeat the t = 1 solve (only |t q| enters), t = 0 would
    # solve on q = 0: neither is a point of the ray
    with pytest.raises(BadParameters, match=re.escape(
            f"t_list must be positive on the ray t * q, got [{t}]")):
        decay_experiment([0.0, 1.0], [t, 1.0], 1.0 + 0j, window_side=1.6,
                         n=33)


def test_t_list_must_increase():
    with pytest.raises(ValueError):
        decay_experiment([1.0], [8.0, 1.0], 0j)
