import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.special import k0

from cubiclab.blaschke import (
    CubicDifferentialField,
    Grid2D,
    area_and_bounds,
    check_subsolution,
    gap_upper_bound,
    largest_root,
    log_density_curvature,
    minimal_surface_metric,
    solve_wang,
    square_window,
)
from cubiclab.blaschke import solver
from cubiclab.errors import BadParameters, NoConvergence, SingularJacobian
from oracles import five_point_laplacian, radial_wang, scipy_pcg

CBRT2 = 2.0 ** (1.0 / 3.0)


def hyperbolic_disk_density(zs):
    return np.log((4.0 / (4.0 - np.abs(zs) ** 2)) ** 2)


@pytest.fixture(scope="module")
def flat_solution():
    # a constant q has the flat solution e^(3 psi) = 2|q|^2, the one
    # solution on a flat torus; on a window it takes that boundary value
    g = Grid2D(0.0, 1.0, 0.0, 1.0, 33, 33)
    q = CubicDifferentialField.from_polynomial(g, [1.0])
    return solve_wang(g, q, tol=1e-12, boundary_psi=math.log(2.0) / 3.0)


@pytest.fixture(scope="module")
def zcubic_solution():
    n = 129
    g = Grid2D(-4, 4, -4, 4, n, n)
    q = CubicDifferentialField.from_polynomial(g, [0.0, 1.0])
    with np.errstate(divide="ignore"):
        bc = np.log(2.0 * np.abs(g.zs) ** 2) / 3.0
    return solve_wang(g, q, tol=1e-10, boundary_psi=bc), q, g


def test_constant_q_solution_is_flat(flat_solution):
    sol = flat_solution
    assert np.abs(sol.psi - math.log(2.0) / 3.0).max() < 1e-10
    assert sol.residual < 1e-12
    assert sol.flags["subsolution_ok"]


def test_constant_q_curvature_is_zero(flat_solution):
    sol = flat_solution
    kappa = log_density_curvature(sol.grid, sol.psi)
    # - 1 + 2 |q|^2 e^(-3 psi) = -1 + 2 * (1/2) = 0: the flat boundary case
    assert np.abs(kappa[sol.grid.interior_mask()]).max() < 1e-9
    margin = check_subsolution(sol)
    assert np.abs(margin).max() < 1e-9  # the bound is an infimum here


def test_torus_area_equality(flat_solution):
    # the flat torus's one solution e^(3 psi) = 2|q|^2, held on the unit
    # window by its boundary value: area_h = 2^(1/3) flat, the lower bound
    ab = area_and_bounds(flat_solution)
    assert abs(ab.flat_area - 1.0) < 1e-12
    assert abs(ab.area_h - CBRT2) < 1e-9
    assert abs(ab.lower - CBRT2) < 1e-12
    assert ab.area_h >= ab.lower - 1e-9


def test_torus_area_scaling():
    for c in (2.0, 5.0):
        g = Grid2D(0.0, 1.0, 0.0, 1.0, 17, 17)
        q = CubicDifferentialField.from_polynomial(g, [c])
        sol = solve_wang(g, q, tol=1e-12,
                         boundary_psi=math.log(2.0 * c * c) / 3.0)
        ab = area_and_bounds(sol)
        assert abs(ab.area_h - CBRT2 * c ** (2.0 / 3.0)) < 1e-8


def test_window_area_constant_q():
    # constant q = c has the flat solution e^(3 psi) = 2|c|^2, so on a
    # Dirichlet window both areas are exact: |c|^(2/3) side^2 and 2^(1/3) of it
    c, side = 2.0 - 1.0j, 2.5
    g = square_window(0.3 + 0.2j, side, 33)
    q = CubicDifferentialField.from_polynomial(g, [c])
    flat = abs(c) ** (2.0 / 3.0) * side ** 2
    assert abs(q.flat_area() - flat) < 1e-12
    psi = np.full((g.ny, g.nx), math.log(2.0 * abs(c) ** 2) / 3.0)
    sol = solve_wang(g, q, tol=1e-12, boundary_psi=psi)
    ab = area_and_bounds(sol)
    assert math.isfinite(ab.area_h) and math.isfinite(ab.lower)
    assert abs(ab.flat_area - flat) < 1e-12
    assert abs(ab.area_h - CBRT2 * flat) < 1e-9
    assert abs(ab.lower - CBRT2 * flat) < 1e-12


def _zcubic_problem(n):
    g = Grid2D(-4, 4, -4, 4, n, n)
    q = CubicDifferentialField.from_polynomial(g, [0.0, 1.0])
    with np.errstate(divide="ignore"):
        bc = np.log(2.0 * np.abs(g.zs) ** 2) / 3.0
    return g, q, bc


def test_wang_residual_by_independent_stencil():
    # the solver's own residual cannot see a wrong stencil: recompute it
    # with the oracle's second differences on every free node
    g, q, bc = _zcubic_problem(65)
    sol = solve_wang(g, q, tol=1e-10, boundary_psi=bc)
    assert np.array_equal(sol.psi[~g.interior_mask()],
                          bc[~g.interior_mask()])
    lap = five_point_laplacian(sol.psi, g.dx, g.dy)
    rhs = 2.0 * np.exp(sol.psi) - 4.0 * q.abs2 * np.exp(-2.0 * sol.psi)
    assert np.abs(lap - rhs)[g.interior_mask()].max() <= 1e-10


def test_wang_newton_budget_reports_residual():
    g, q, bc = _zcubic_problem(65)
    with pytest.raises(NoConvergence, match=r"^wang on 65 x 65: residual "
                       r"\d\.\d{3}e[+-]\d+ after 1 steps$"):
        solve_wang(g, q, tol=1e-10, boundary_psi=bc, max_iter=1)


def test_nested_wang_failure_names_its_level():
    # the 129-node solve starts from the 65-node one, which fails first:
    # the error names the 65-node grid, not the 129-node grid asked for
    g, q, bc = _zcubic_problem(129)
    with pytest.raises(NoConvergence, match=r"^wang on 65 x 65: residual "):
        solve_wang(g, q, tol=1e-10, boundary_psi=bc, max_iter=1)


def test_wang_cg_failure_reports_iterations(monkeypatch):
    # 65 nodes a side is not halved: the solve starts from the harmonic
    # extension, whose CG solve takes one iteration, and the first Newton
    # step needs five
    g, q, bc = _zcubic_problem(65)
    monkeypatch.setattr(solver, "_CG_MAXITER", 2)
    with pytest.raises(SingularJacobian, match=r"^wang on 65 x 65: CG stopped "
                       r"after 2 iterations at relative residual "
                       r"\d\.\d{3}e[+-]\d+$"):
        solve_wang(g, q, tol=1e-10, boundary_psi=bc)


def test_zcubic_cg_work_is_pinned(preconditioner_applications):
    # the applications of each CG solve, in order: on 65 nodes a side the
    # harmonic start and 4 Newton steps, as in double precision, then 3
    # steps on 129 from the prolonged 65-node solution; a preconditioner
    # that lost accuracy or a worse nested start fails here instead of
    # only running slower
    g, q, bc = _zcubic_problem(129)
    sol = solve_wang(g, q, tol=1e-10, boundary_psi=bc)
    per_solve = [preconditioner_applications.count(k)
                 for k in range(max(preconditioner_applications) + 1)]
    assert (per_solve, sol.newton_iterations) == ([1, 5, 5, 6, 10, 3, 8, 7],
                                                  3)


def test_halved_grid_takes_every_other_node():
    g = Grid2D(-4.0, 4.0, -2.0, 6.0, 129, 257)
    assert g.halved() == Grid2D(-4.0, 4.0, -2.0, 6.0, 65, 129)
    assert np.array_equal(g.halved().zs, g.zs[::2, ::2])


@pytest.mark.parametrize("grid", [
    Grid2D(-4.0, 4.0, -4.0, 4.0, 128, 129),  # an even side
    Grid2D(-4.0, 4.0, -4.0, 4.0, 129, 128),
    Grid2D(-4.0, 4.0, -4.0, 4.0, 129, 127),  # 64 nodes a side when halved
    Grid2D(-4.0, 4.0, -4.0, 4.0, 65, 65)])
def test_halved_is_none_on_an_even_side_or_below_the_threshold(grid):
    assert Grid2D.COARSEST == 65
    assert grid.halved() is None


def test_prolong_reproduces_bilinear_fields_exactly():
    # dyadic nodes and coefficients: every value and every mean of two is
    # exact, so bilinear interpolation must return a + bx + cy + dxy bit
    # for bit, on both axes of a grid that is not square
    g = Grid2D(-2.0, 2.0, -1.0, 5.0, 129, 193)

    def f(z):
        return 0.75 - 1.5 * z.real + 2.25 * z.imag + 0.5 * z.real * z.imag

    fine = g.prolong(f(g.halved().zs))
    assert fine.shape == (193, 129)
    assert np.array_equal(fine, f(g.zs))


def test_nested_start_agrees_with_the_harmonic_start(monkeypatch):
    # both are Newton solves of one discrete equation to residual 1e-10:
    # they differ by the residual over the smallest eigenvalue of the
    # Jacobian, far below the discretisation error
    g, q, bc = _zcubic_problem(257)
    nested = solve_wang(g, q, tol=1e-10, boundary_psi=bc)
    monkeypatch.setattr(Grid2D, "halved", lambda grid: None)
    harmonic = solve_wang(g, q, tol=1e-10, boundary_psi=bc)
    assert (nested.newton_iterations, harmonic.newton_iterations) == (3, 4)
    assert np.abs(nested.psi - harmonic.psi).max() <= 1e-9


def test_nested_solve_enters_solve_wang_once(monkeypatch):
    # the levels recurse through the private _wang, so a wrapper of
    # solve_wang (the benchmark's span) sees one call per solve
    calls, levels = [], []
    solve, wang = solver.solve_wang, solver._wang

    def counting_solve(*args, **kwargs):
        calls.append(args[0].nx)
        return solve(*args, **kwargs)

    def counting_wang(grid, *args):
        levels.append(grid.nx)
        return wang(grid, *args)

    monkeypatch.setattr(solver, "solve_wang", counting_solve)
    monkeypatch.setattr(solver, "_wang", counting_wang)
    g, q, bc = _zcubic_problem(257)
    solver.solve_wang(g, q, tol=1e-10, boundary_psi=bc)
    assert (calls, levels) == ([257], [257, 129, 65])


def test_zcubic_second_order_against_radial_solution():
    # q = e^(i theta) z on [-4, 4]^2 with Dirichlet data read off the radial
    # whole-plane solution: the max error falls by 4 per halving of the step
    psi = radial_wang(1, 9.0)
    # the oracle: above the flat value log(2 r^2)/3 by (2/3)F, F(4) = 5.8e-7
    assert 0.0 < psi(4.0) - math.log(32.0) / 3.0 < 5e-7
    for theta in (0.0, 2.0):
        errors = []
        for n in (65, 129, 257):
            g = Grid2D(-4, 4, -4, 4, n, n)
            q = CubicDifferentialField.from_polynomial(
                g, [0.0, np.exp(1j * theta)])
            exact = psi(np.abs(g.zs))
            sol = solve_wang(g, q, tol=1e-10, boundary_psi=exact)
            errors.append(np.abs(sol.psi - exact).max())
        orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
        assert all(1.9 < p < 2.1 for p in orders), (theta, errors)
        assert errors[-1] < 1e-4


def test_radial_oracle_fits_one_decay_constant():
    # far from the zero the gap of the oracle decays as A_1 K_0(c rho), rho
    # = (3/4) r^(4/3) the flat distance and c = sqrt(3 2^(4/3)): the fitted
    # A_1 reads 0.8269929 at rho = 4 and 0.8269930 at rho = 5 (at rho = 3,
    # 0.8269854: the next, nonlinear term is still 9.6e-6 of it)
    psi = radial_wang(1, 9.0)

    def fitted(rho):
        r = (4.0 * rho / 3.0) ** 0.75
        gap = 1.5 * (psi(r) - math.log(2.0 * r * r) / 3.0)
        return gap / k0(math.sqrt(3.0 * 2.0 ** (4.0 / 3.0)) * rho)

    assert fitted(4.0) == pytest.approx(fitted(5.0), rel=1e-6, abs=0.0)


def test_radial_oracle_fits_the_octagon_cone_constant():
    # k = 6, the cone point of angle 6 pi: rho = (1/3) r^3, and the fitted
    # A_6 reads 2.0940178 at rho = 4 and 2.0940203 at rho = 5, against the
    # 2.094021 of the whole-plane BVP probe on [0, 9]
    psi = radial_wang(6, 3.0)

    def fitted(rho):
        r = (3.0 * rho) ** (1.0 / 3.0)
        gap = 1.5 * (psi(r) - math.log(2.0 * r ** 12) / 3.0)
        return gap / k0(math.sqrt(3.0 * 2.0 ** (4.0 / 3.0)) * rho)

    for rho in (4.0, 5.0):
        assert fitted(rho) == pytest.approx(2.094021, rel=1e-5, abs=0.0)


def _allocating_laplacian(grid, field):
    """The stencil as one allocating expression, rounded in the order that
    ``Grid2D.laplacian`` keeps."""
    c2 = 2.0 * field[1:-1, 1:-1]
    return ((field[1:-1, 2:] - c2 + field[1:-1, :-2]) * (1.0 / grid.dx ** 2)
            + (field[2:, 1:-1] - c2 + field[:-2, 1:-1]) * (1.0 / grid.dy ** 2))


def test_buffered_laplacian_keeps_the_bits():
    # into a reused buffer, twice on different fields, so that neither call
    # reads what an earlier one left in the buffer or in its own temporary
    g = Grid2D(-1.0, 2.0, 0.0, 1.3, 40, 27)
    rng = np.random.default_rng(11)
    out = np.empty(g.laplacian(np.zeros((g.ny, g.nx))).shape)
    for _ in range(2):
        field = rng.standard_normal((g.ny, g.nx))
        want = _allocating_laplacian(g, field)
        assert g.laplacian(field, out=out) is out
        assert np.array_equal(out, want)
        assert np.array_equal(g.laplacian(field), want)


@pytest.mark.parametrize("domain,rhs", [
    (domain, rhs) for domain in ("square", "disk")
    for rhs in ("order-0.1", "order-1e-7", "harmonic")])
def test_pcg_matches_scipy_cg(domain, rhs):
    # the kernel's conjugate-gradient loop against SciPy's cg driving the
    # same operators: equal to the last bit, on the Dirichlet square and the
    # disk mask of decay_experiment; f' spread over five decades (11-36
    # iterations) and b of order 0.1 (rtol = 1e-3 max|b| sets the stopping
    # test) or 1e-7 (atol does), or f' = 0 and b of order 1 (rtol = 1e-3),
    # as in the harmonic start of solve_wang
    if domain == "disk":
        g = square_window(1.0, 1.6, 65)
        free = g.interior_mask() & (np.abs(g.zs - 1.0) < 0.999 * 0.8)
    else:
        g = Grid2D(-1.0, 1.0, -1.0, 1.0, 33, 33)
        free = g.interior_mask()
    mask = np.where(free[g.inner], 1.0, 0.0)
    rng = np.random.default_rng(7)
    fp = np.zeros(mask.shape) if rhs == "harmonic" else 10.0 ** rng.uniform(
        -1.0, 4.0, mask.shape)
    scale, tol = {"order-0.1": (0.1, 1e-10), "order-1e-7": (1e-7, 1e-8),
                  "harmonic": (1.0, 1e-10)}[rhs]
    b = scale * rng.standard_normal(mask.shape) * mask
    got = solver._pcg(g, mask, fp, b, tol, "test")
    assert not got[mask == 0].any()
    assert np.array_equal(got, scipy_pcg(g, mask, fp, b, tol))


def _disk_problem(nx, ny):
    """A disk pinned as in decay_experiment, inscribed in a grid of nx x ny
    nodes on [-0.8, 0.8] x [-b, b], with f' spread over five decades: the
    grid, the 0/1 mask on the stencil block and f' there."""
    b = 0.8 * (ny - 1) / (nx - 1)
    g = Grid2D(-0.8, 0.8, -b, b, nx, ny)
    free = g.interior_mask() & (np.abs(g.zs) < 0.999 * min(0.8, b))
    mask = np.where(free[g.inner], 1.0, 0.0)
    fp = 10.0 ** np.random.default_rng(3).uniform(-1.0, 4.0, mask.shape)
    return g, mask, fp


# the decay window's odd n, an even n and a rectangle: the CLI takes any
# n >= 8, so the hierarchy must coarsen blocks of either parity
SHAPES = [(65, 65), (64, 64), (65, 40)]


@pytest.mark.parametrize("nx,ny", SHAPES)
def test_vcycle_is_symmetric_positive_definite(nx, ny):
    # CG needs a symmetric positive definite preconditioner; the V-cycle is
    # one in exact arithmetic, and in double it keeps the symmetry to
    # rounding, relative to the Cauchy-Schwarz bound of the inner product
    g, mask, fp = _disk_problem(nx, ny)
    apply = g.preconditioner(fp, mask)
    rng = np.random.default_rng(11)
    for _ in range(4):
        u, v = (rng.standard_normal(mask.shape) * mask for _ in range(2))
        mu = apply(u).copy()  # a view, which the next application overwrites
        mv = apply(v).copy()
        assert not mu[mask == 0].any()
        scale = np.linalg.norm(mu) * np.linalg.norm(v)
        assert abs(np.vdot(mu, v) - np.vdot(u, mv)) <= 1e-12 * scale
        assert np.vdot(mu, u) > 0.0


@pytest.mark.parametrize("nx,ny", SHAPES)
def test_masked_pcg_matches_direct_solve(nx, ny):
    # the kernel's CG with the V-cycle against SciPy's sparse direct solve
    # of -Lap + diag f' on the free nodes: CG stops once its residual is
    # below atol, so the error is at most atol over the smallest eigenvalue,
    # which is at least the whole block's: the square's plus min f'
    g, mask, fp = _disk_problem(nx, ny)
    b = 1e-3 * np.random.default_rng(5).standard_normal(mask.shape) * mask
    got = solver._pcg(g, mask, fp, b, 1e-10, "test")
    assert not got[mask == 0].any()

    def second_difference(n, h):
        return sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(n - 2, n - 2)) \
            / h ** 2

    lap = sp.kronsum(second_difference(g.nx, g.dx),
                     second_difference(g.ny, g.dy))
    free = mask.ravel() > 0
    A = (sp.diags(fp.ravel()) - lap).tocsr()[free][:, free]
    exact = spla.spsolve(A.tocsc(), b.ravel()[free])
    atol = max(1e-12, 1e-3 * min(1.0, np.abs(b).max()) * np.linalg.norm(b))
    smallest = sum((2.0 / h * math.sin(math.pi / (2 * n - 2))) ** 2
                   for n, h in ((g.nx, g.dx), (g.ny, g.dy))) + fp.min()
    assert np.linalg.norm(A @ got.ravel()[free] - b.ravel()[free]) \
        <= 1.01 * atol
    assert np.linalg.norm(got.ravel()[free] - exact) <= 1.01 * atol / smallest


def test_polynomial_field_evaluated_once(monkeypatch):
    g = square_window(0.5j, 2.0, 17)
    calls = []
    polyval = np.polyval

    def counting_polyval(*args):
        calls.append(1)
        return polyval(*args)

    monkeypatch.setattr(np, "polyval", counting_polyval)
    q = CubicDifferentialField.from_polynomial(g, [0.5, 0.8])
    assert len(calls) == 1
    assert np.array_equal(q.values, polyval([0.8, 0.5], g.zs))


def test_disk_refinement_second_order():
    errs = []
    for n in (65, 129):
        g = Grid2D(-1.3, 1.3, -1.3, 1.3, n, n)
        q = CubicDifferentialField.from_polynomial(g, [0.0])
        sol = solve_wang(g, q, tol=1e-10,
                         boundary_psi=hyperbolic_disk_density(g.zs))
        err = np.abs(sol.psi - hyperbolic_disk_density(g.zs))
        errs.append(float(err[g.interior_mask()].max()))
    ratio = errs[0] / errs[1]
    assert 3.0 < ratio < 5.0


def test_disk_curvature_minus_one():
    g = Grid2D(-1.3, 1.3, -1.3, 1.3, 65, 65)
    q = CubicDifferentialField.from_polynomial(g, [0.0])
    sol = solve_wang(g, q, tol=1e-10,
                     boundary_psi=hyperbolic_disk_density(g.zs))
    kappa = log_density_curvature(sol.grid, sol.psi)
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
        k = log_density_curvature(g, hyperbolic_disk_density(g.zs))
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
    kappa = log_density_curvature(sol.grid, sol.psi)
    assert (kappa[inner] < 0).all()
    ident = np.abs(kappa + 1.0 - 2.0 * q.abs2 * np.exp(-3.0 * sol.psi))
    assert ident[inner].max() < 1e-4
    assert (check_subsolution(sol)[inner] > 0).all()


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


def test_minimal_surface_limits(flat_solution):
    sol = flat_solution
    gm = minimal_surface_metric(sol)
    assert np.allclose(gm, 24.0 * sol.h, atol=1e-9)  # gap identically zero


def test_gap_upper_bound_values():
    assert abs(gap_upper_bound(CBRT2 * math.pi, 1.0)) < 1e-14
    up1 = gap_upper_bound(2.0, 1.0)
    up2 = gap_upper_bound(4.0, 1.0)
    assert abs((up2 - up1) - 1.5 * math.log(2.0)) < 1e-14
    with pytest.raises(BadParameters,
                       match=r"ball radius must be positive, got 0\.0"):
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
    with pytest.raises(BadParameters, match=r"needs a >= 0, got -1\.0"):
        largest_root(-1.0)


def test_phase_invariance_of_solutions():
    # q = 0.3 + z, whose zero is no node, with the flat boundary value
    # log(2|q|^2)/3, which sees only |q| too
    g = Grid2D(-1.0, 1.0, -1.0, 1.0, 33, 33)
    base = CubicDifferentialField.from_polynomial(g, [0.3, 1.0])

    def solve(q):
        return solve_wang(g, q, tol=1e-12,
                          boundary_psi=np.log(2.0 * q.abs2) / 3.0).psi

    psi = solve(base)
    # exact negation: |q|^2 bit-identical, hence bit-identical psi
    assert np.array_equal(psi, solve(CubicDifferentialField(g, -base.values)))
    # generic unit phase: identical up to rounding in |q|^2
    rot = CubicDifferentialField(g, base.values * np.exp(0.7j))
    assert np.abs(psi - solve(rot)).max() < 1e-12


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
    free = solve_wang(g, CubicDifferentialField.from_polynomial(g, [0.0]),
                      tol=1e-10, boundary_psi=bc)
    assert (sol.psi >= free.psi - 1e-8).all()
