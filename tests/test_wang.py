import math

import numpy as np
import pytest

from cubiclab.blaschke import (
    AreaBounds,
    CubicDifferentialField,
    Grid2D,
    area_and_bounds,
    check_subsolution,
    curvature_field,
    discrete_laplacian,
    gap_upper_bound,
    largest_root,
    log_density_curvature,
    minimal_surface_metric,
    solve_wang,
    square_window,
    unit_torus_grid,
)
from cubiclab.blaschke import solver
from cubiclab.errors import (
    NegativeInput,
    NoConvergence,
    NonpositiveRadius,
    NoSolution,
    SingularJacobian,
)

CBRT2 = 2.0 ** (1.0 / 3.0)


def hyperbolic_disk_density(zs):
    return np.log((4.0 / (4.0 - np.abs(zs) ** 2)) ** 2)


@pytest.fixture(scope="module")
def torus_solution():
    g = unit_torus_grid(24)
    q = CubicDifferentialField.constant(g, 1.0)
    return solve_wang(g, q, tol=1e-12), q


@pytest.fixture(scope="module")
def zcubic_solution():
    n = 129
    g = Grid2D(-4, 4, -4, 4, n, n)
    q = CubicDifferentialField.from_polynomial(g, [0.0, 1.0])
    with np.errstate(divide="ignore"):
        bc = np.log(2.0 * np.abs(g.zs) ** 2) / 3.0
    return solve_wang(g, q, tol=1e-10, boundary_psi=bc), q, g


def test_torus_constant_solution(torus_solution):
    sol, _q = torus_solution
    assert np.abs(sol.psi - math.log(2.0) / 3.0).max() < 1e-10
    assert sol.residual < 1e-12
    assert sol.flags["subsolution_ok"]


def test_torus_curvature_is_zero(torus_solution):
    sol, q = torus_solution
    kappa = curvature_field(sol)
    # - 1 + 2 |q|^2 e^(-3 psi) = -1 + 2 * (1/2) = 0: the flat boundary case
    assert np.abs(kappa).max() < 1e-9
    margin = check_subsolution(sol, q)
    assert np.abs(margin).max() < 1e-9  # the bound is an infimum here


def test_torus_area_equality(torus_solution):
    sol, q = torus_solution
    ab = area_and_bounds(sol, q, region="torus")
    assert abs(ab.flat_area - 1.0) < 1e-12
    assert abs(ab.area_h - CBRT2) < 1e-9
    assert ab.literal and abs(ab.lower - ab.upper) < 1e-15
    assert ab.area_h >= ab.lower - 1e-9


def test_torus_area_scaling():
    for c in (2.0, 5.0):
        g = unit_torus_grid(16)
        q = CubicDifferentialField.constant(g, c)
        sol = solve_wang(g, q, tol=1e-12)
        ab = area_and_bounds(sol, q, region="torus")
        assert abs(ab.area_h - CBRT2 * c ** (2.0 / 3.0)) < 1e-8


def test_window_area_constant_q():
    # constant q = c has the flat solution e^(3 psi) = 2|c|^2, so on a
    # Dirichlet window both areas are exact: |c|^(2/3) side^2 and 2^(1/3) of it
    c, side = 2.0 - 1.0j, 2.5
    g = square_window(0.3 + 0.2j, side, 33)
    q = CubicDifferentialField.constant(g, c)
    flat = abs(c) ** (2.0 / 3.0) * side ** 2
    assert abs(q.flat_area() - flat) < 1e-12
    psi = np.full((g.ny, g.nx), math.log(2.0 * abs(c) ** 2) / 3.0)
    sol = solve_wang(g, q, tol=1e-12, boundary_psi=psi)
    ab = area_and_bounds(sol, q, region="window")
    assert math.isfinite(ab.area_h) and math.isfinite(ab.lower)
    assert abs(ab.flat_area - flat) < 1e-12
    assert abs(ab.area_h - CBRT2 * flat) < 1e-9
    assert not ab.literal and ab.upper == math.inf


def _zcubic_problem(n):
    g = Grid2D(-4, 4, -4, 4, n, n)
    q = CubicDifferentialField.from_polynomial(g, [0.0, 1.0])
    with np.errstate(divide="ignore"):
        bc = np.log(2.0 * np.abs(g.zs) ** 2) / 3.0
    return g, q, bc


@pytest.mark.parametrize("periodic", [False, True])
def test_wang_residual_by_independent_stencil(periodic):
    # the solver's own residual cannot see a wrong stencil: recompute it
    # with estimates.discrete_laplacian on every free node
    if periodic:
        g = unit_torus_grid(24)
        q = CubicDifferentialField.from_polynomial(g, [0.3, 1.0])
        sol = solve_wang(g, q, tol=1e-10)
    else:
        g, q, bc = _zcubic_problem(65)
        sol = solve_wang(g, q, tol=1e-10, boundary_psi=bc)
        assert np.array_equal(sol.psi[~g.interior_mask()],
                              bc[~g.interior_mask()])
    lap = discrete_laplacian(sol.psi, g.dx, g.dy, periodic=periodic)
    rhs = 2.0 * np.exp(sol.psi) - 4.0 * q.abs2 * np.exp(-2.0 * sol.psi)
    assert np.abs(lap - rhs)[g.interior_mask()].max() <= 1e-10


def test_wang_newton_budget_reports_residual():
    g, q, bc = _zcubic_problem(65)
    with pytest.raises(NoConvergence, match=r"residual \d\.\d{3}e[+-]\d+ "
                                            r"after 1 steps"):
        solve_wang(g, q, tol=1e-10, boundary_psi=bc, max_iter=1)


def test_wang_cg_failure_reports_iterations(monkeypatch):
    # the harmonic start converges within two CG iterations, the first
    # Newton step needs five
    g, q, bc = _zcubic_problem(65)
    monkeypatch.setattr(solver, "_CG_MAXITER", 2)
    with pytest.raises(SingularJacobian, match=r"wang: CG stopped after 2 "
                       r"iterations at relative residual \d\.\d{3}e[+-]\d+"):
        solve_wang(g, q, tol=1e-10, boundary_psi=bc)


def test_q_zero_periodic_has_no_solution():
    g = unit_torus_grid(16)
    q = CubicDifferentialField.constant(g, 0.0)
    with pytest.raises(NoSolution):
        solve_wang(g, q, tol=1e-10)


def test_disk_refinement_second_order():
    errs = []
    for n in (65, 129):
        g = Grid2D(-1.3, 1.3, -1.3, 1.3, n, n)
        q = CubicDifferentialField.constant(g, 0.0)
        sol = solve_wang(g, q, tol=1e-10,
                         boundary_psi=hyperbolic_disk_density)
        err = np.abs(sol.psi - hyperbolic_disk_density(g.zs))
        errs.append(float(err[g.interior_mask()].max()))
    ratio = errs[0] / errs[1]
    assert 3.0 < ratio < 5.0


def test_disk_curvature_minus_one():
    g = Grid2D(-1.3, 1.3, -1.3, 1.3, 65, 65)
    q = CubicDifferentialField.constant(g, 0.0)
    sol = solve_wang(g, q, tol=1e-10, boundary_psi=hyperbolic_disk_density)
    kappa = curvature_field(sol)
    inner = g.interior_mask()
    assert np.abs(kappa[inner] + 1.0).max() < 1e-8


def test_curvature_stencil_second_order_on_exact_density():
    # apply the curvature stencil to the analytic hyperbolic density:
    # kappa -> -1 at second order under refinement.  The order is read on
    # the interior nodes of the n = 33 grid, which every finer grid holds:
    # each grid's own interior reaches closer to the corners (+-1.3, +-1.3),
    # where the density's fourth derivatives peak, so its maximum error
    # falls by less than 4 per halving (2.6, 3.1, 3.4)
    own, common = [], []
    for n in (33, 65, 129):
        g = Grid2D(-1.3, 1.3, -1.3, 1.3, n, n)
        k = log_density_curvature(hyperbolic_disk_density(g.zs), g.dx, g.dy)
        err = np.abs(k + 1.0)
        s = (n - 1) // 32
        own.append(float(err[g.interior_mask()].max()))
        common.append(float(err[s:-s:s, s:-s:s].max()))
    assert own[0] > own[1] > own[2]
    assert common[0] > common[1] > common[2]
    assert 3.0 < common[0] / common[1] < 5.0
    assert 3.0 < common[1] / common[2] < 5.0


def test_zcubic_estimate_suite(zcubic_solution):
    sol, q, g = zcubic_solution
    inner = g.interior_mask()
    assert (sol.gap[inner] > 0).all()
    kappa = curvature_field(sol)
    assert (kappa[inner] < 0).all()
    ident = np.abs(kappa + 1.0 - 2.0 * q.abs2 * np.exp(-3.0 * sol.psi))
    assert ident[inner].max() < 1e-4
    assert (check_subsolution(sol, q)[inner] > 0).all()


def test_zcubic_center_matches_fine_grid_oracle(zcubic_solution):
    sol, _q, g = zcubic_solution
    # frozen from a 257-node run of the same problem (4x the 65 grid)
    oracle_257 = -0.045085110473
    center = float(sol.psi[g.ny // 2, g.nx // 2])
    assert abs(center - oracle_257) < 1.2e-3


def test_minimal_surface_sandwich(zcubic_solution):
    sol, q, g = zcubic_solution
    gm = minimal_surface_metric(sol)
    h = sol.h
    inner = g.interior_mask()
    nz = q.abs2 > 0
    sel = inner & nz
    assert (gm[sel] > 12.0 * h[sel]).all()
    assert (gm[sel] <= 24.0 * h[sel] + 1e-12).all()
    # at the zero of q the gap is +inf and the metric collapses to 12 h
    assert np.allclose(gm[~nz], 12.0 * h[~nz])


def test_minimal_surface_limits(torus_solution):
    sol, _q = torus_solution
    gm = minimal_surface_metric(sol)
    assert np.allclose(gm, 24.0 * sol.h, atol=1e-9)  # gap identically zero


def test_gap_upper_bound_values():
    assert abs(gap_upper_bound(CBRT2 * math.pi, 1.0)) < 1e-14
    up1 = gap_upper_bound(2.0, 1.0)
    up2 = gap_upper_bound(4.0, 1.0)
    assert abs((up2 - up1) - 1.5 * math.log(2.0)) < 1e-14
    with pytest.raises(NonpositiveRadius):
        gap_upper_bound(1.0, 0.0)


def test_largest_root():
    assert largest_root(0.0) == 1.0
    for a in (0.5, 1.0, 4.0, 13.0):
        r = largest_root(a)
        assert abs(2 * r ** 3 - 2 * r ** 2 - 4 * a) < 1e-12
        assert r >= 1.0
        # numpy.roots as the independent oracle
        roots = np.roots([2.0, -2.0, 0.0, -4.0 * a])
        real = roots[np.abs(roots.imag) < 1e-9].real
        assert abs(r - real.max()) < 1e-9
    assert largest_root(4.0) > largest_root(1.0)
    with pytest.raises(NegativeInput):
        largest_root(-1.0)


def test_phase_invariance_of_solutions():
    g = unit_torus_grid(16)
    base = CubicDifferentialField.from_polynomial(g, [0.3, 1.0])
    sol = solve_wang(g, base, tol=1e-12)
    # exact negation: |q|^2 bit-identical, hence bit-identical psi
    neg = CubicDifferentialField(g, -base.values)
    sol_neg = solve_wang(g, neg, tol=1e-12)
    assert np.array_equal(sol.psi, sol_neg.psi)
    # generic unit phase: identical up to rounding in |q|^2
    rot = CubicDifferentialField(g, base.values * np.exp(0.7j))
    sol_rot = solve_wang(g, rot, tol=1e-12)
    assert np.abs(sol.psi - sol_rot.psi).max() < 1e-12


def test_discrete_maximum_principle():
    n = 65
    g = Grid2D(-2, 2, -2, 2, n, n)
    q = CubicDifferentialField.from_polynomial(g, [0.5, 0.8])
    with np.errstate(divide="ignore"):
        bc = np.log(2.0 * np.abs(q.values) ** 2 + 0.3) / 3.0
    sol = solve_wang(g, q, tol=1e-10, boundary_psi=bc)
    bmask = ~g.interior_mask()
    # the right side of Lap psi = 2 e^psi - 4 |q|^2 e^(-2 psi) increases
    # with psi, so at an interior maximum e^(3 psi) <= 2 |q|^2 and at an
    # interior minimum z* e^(3 psi) >= 2 |q(z*)|^2.  The latter is no floor
    # where q vanishes: psi dips to -0.156 at the zero z = -0.625 of q.
    ceiling = max(float(sol.psi[bmask].max()),
                  float(np.log(2.0 * q.abs2.max()) / 3.0))
    assert sol.psi.max() <= ceiling + 1e-8
    # log(2 |q|^2) / 3 solves the equation away from the zeros of q and
    # lies below the boundary data: a subsolution (margin 0.0023 here)
    with np.errstate(divide="ignore"):
        sub = np.log(2.0 * q.abs2) / 3.0
    assert (sol.psi >= sub - 1e-8).all()
    # the q = 0 solution with the same boundary data is a subsolution too
    free = solve_wang(g, CubicDifferentialField.constant(g, 0.0), tol=1e-10,
                      boundary_psi=bc)
    assert (sol.psi >= free.psi - 1e-8).all()
