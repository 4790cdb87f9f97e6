"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `[acceptance] criterion N: PASS` line on success (run
with `pytest tests/test_acceptance.py -v -s` to see them); a failure raises
with the measured numbers.
"""

import math
import time

import numpy as np

from cubiclab import blaschke, currents, geomlimits
from cubiclab.flatsurface import presets, tighten_geodesic
from cubiclab.flatsurface.cylinders import insert_cylinder_detailed
from cubiclab.flatsurface.intersections import geometric_intersection_count
from cubiclab.flatsurface.surface import area, gauss_bonnet_defect

CBRT2 = 2.0 ** (1.0 / 3.0)


def _report(num, text):
    print(f"[acceptance] criterion {num}: PASS ({text})")


def test_criterion_1_gauss_bonnet_and_cone_arithmetic():
    t0 = time.perf_counter()
    for s in (presets.square_torus(), presets.regular_octagon()):
        assert abs(gauss_bonnet_defect(s)) < 1e-9
        assert s.total_cone_order() == -3 * s.euler_characteristic
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, f"defects < 1e-9, sum k = -3 chi, {elapsed:.3f}s")


def test_criterion_2_flat_length_identities():
    t0 = time.perf_counter()
    s = presets.square_torus()
    sp = currents.spectrum_from_flat(s, presets.torus_marking())
    expect = (1.0, 1.0, math.sqrt(2.0))
    err1 = max(abs(v - e) for v, e in zip(sp.values, expect))
    assert err1 < 1e-9

    res = insert_cylinder_detailed(s, presets.torus_class(1, 0), 2.0)
    moved = [res.transport.transport(c) for c in presets.torus_marking()]
    sp2 = currents.spectrum_from_flat(res.surface, moved)
    expect2 = (1.0, 3.0, math.sqrt(10.0))
    err2 = max(abs(v - e) for v, e in zip(sp2.values, expect2))
    assert err2 < 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(2, f"lattice errors {err1:.2e}, after-cylinder {err2:.2e}, "
               f"{elapsed:.3f}s")


def test_criterion_3_self_intersection_identity():
    worst = 0.0
    for s in (presets.square_torus(), presets.regular_octagon(),
              presets.regular_octagon().scaled(0.37)):
        worst = max(worst, abs(currents.self_intersection_flat(s)
                               - math.pi / 2.0 * area(s)))
    assert worst < 1e-12
    _report(3, f"(pi/2) * area identity, worst {worst:.2e}")


def test_criterion_4_wang_solver_correctness():
    # constant q: the flat solution e^(3 psi) = 2|q|^2, the flat torus's,
    # from its own boundary value
    g = blaschke.Grid2D(0.0, 1.0, 0.0, 1.0, 33, 33)
    q = blaschke.CubicDifferentialField.from_polynomial(g, [1.0])
    sol = blaschke.solve_wang(g, q, tol=1e-12,
                              boundary_psi=math.log(2.0) / 3.0)
    err_const = float(np.abs(sol.psi - math.log(2.0) / 3.0).max())
    assert err_const < 1e-10

    def exact(zs):
        return np.log((4.0 / (4.0 - np.abs(zs) ** 2)) ** 2)

    errs = []
    times = []
    for n in (65, 129, 257):
        gd = blaschke.Grid2D(-1.3, 1.3, -1.3, 1.3, n, n)
        qd = blaschke.CubicDifferentialField.from_polynomial(gd, [0.0])
        t1 = time.perf_counter()
        sd = blaschke.solve_wang(gd, qd, tol=1e-10,
                                 boundary_psi=exact(gd.zs))
        times.append(time.perf_counter() - t1)
        errs.append(float(np.abs(sd.psi - exact(gd.zs))
                          [gd.interior_mask()].max()))
    r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
    assert 3.0 < r1 < 5.0 and 3.0 < r2 < 5.0
    assert max(times) < 30.0
    _report(4, f"flat err {err_const:.1e}; disk ratios {r1:.2f}, {r2:.2f}; "
               f"max solve {max(times):.1f}s")


def test_criterion_5_estimate_suite_z_cubic():
    n = 257
    g = blaschke.Grid2D(-4, 4, -4, 4, n, n)
    q = blaschke.CubicDifferentialField.from_polynomial(g, [0.0, 1.0])
    with np.errstate(divide="ignore"):
        bc = np.log(2.0 * np.abs(g.zs) ** 2) / 3.0
    sol = blaschke.solve_wang(g, q, tol=1e-10, boundary_psi=bc)
    inner = g.interior_mask()
    assert (sol.gap[inner] > 0).all()
    kappa = blaschke.log_density_curvature(sol.grid, sol.psi)
    assert (kappa[inner] < 0).all()
    ident = float(np.abs(kappa + 1.0 - 2.0 * q.abs2
                         * np.exp(-3.0 * sol.psi))[inner].max())
    assert ident < 1e-4
    gm = blaschke.minimal_surface_metric(sol)
    h = sol.h
    nz = q.abs2 > 0
    sel = inner & nz
    assert (gm[sel] > 12.0 * h[sel]).all()
    assert (gm[sel] <= 24.0 * h[sel] + 1e-12).all()
    assert np.allclose(gm[~nz], 12.0 * h[~nz])
    _report(5, f"gap > 0, curvature < 0, identity {ident:.1e} < 1e-4, "
               f"sandwich holds at nx=257")


def test_criterion_6_decay_certification():
    t0 = time.perf_counter()
    certs = blaschke.decay_experiment([1.0], [1.0, 8.0, 64.0], 0j,
                                      window_side=4.0, n=129, bound=1.0)
    assert all(c.passed for c in certs)
    logs = [math.log(c.measured) for c in certs]
    t13 = [c.t ** (1.0 / 3.0) for c in certs]
    s1 = (logs[1] - logs[0]) / (t13[1] - t13[0])
    s2 = (logs[2] - logs[1]) / (t13[2] - t13[1])
    assert s2 < s1 < 0  # superlinear decrease of log gap in t^(1/3)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(6, f"certificates pass, slopes {s1:.3f} -> {s2:.3f}, "
               f"{elapsed:.1f}s")


def test_criterion_7_degeneration_classifier():
    s = presets.square_torus()
    marking = [presets.torus_class(1, 0), presets.torus_class(0, 1)]
    reps = [tighten_geodesic(s, c, tol=1e-12) for c in marking]
    table = np.array([[geometric_intersection_count(a, b) for b in reps]
                      for a in reps])
    assert table.tolist() == [[0, 1], [1, 0]]
    spectra = []
    for h in (1.0, 2.0, 4.0, 8.0, 16.0):
        res = insert_cylinder_detailed(s, presets.torus_class(1, 0), h)
        moved = [res.transport.transport(c) for c in marking]
        spectra.append(currents.spectrum_from_flat(res.surface, moved))
    cls = currents.classify_limit(spectra, table)
    assert cls.null_set == ("(1,0)",)
    assert any(p.label == "laminar-candidate" and p.classes == ("(1,0)",)
               for p in cls.parts)
    col = table[0] / table[0].max()
    err = float(np.abs(np.array(cls.limit.values) - col).max())
    assert err < 1e-3
    _report(7, f"null set = core, laminar candidate, column error {err:.1e}")


def test_criterion_8_appendix_formulas():
    err_mod = max(abs(geomlimits.modulus(math.exp(2 * math.pi)) - 1.0),
                  abs(geomlimits.modulus(math.exp(4 * math.pi)) - 2.0))
    err_core = abs(geomlimits.core_length(math.exp(2 * math.pi ** 2)) - 1.0)
    assert max(err_mod, err_core) < 1e-12
    R = math.exp(2 * math.pi)
    err_quad = abs(geomlimits.core_length_quadrature(R)
                   - geomlimits.core_length(R))
    assert err_quad < 1e-8
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(10):
        kappa = -float(rng.uniform(0.05, 1.0))
        Rn = float(np.exp(rng.uniform(2.0, 12.0)))
        C = float(np.exp(rng.uniform(0.1, 0.9) * np.log(Rn)))
        cf = geomlimits.far_end_mass(kappa, Rn, C)
        qd = geomlimits.far_end_mass_quadrature(kappa, Rn, C)
        worst = max(worst, abs(cf - qd) / abs(cf))
    assert worst < 1e-12
    for d in (1, 2, 3):
        assert geomlimits.pushforward_power_cover(d, float(d * d)) == 1.0

    seq1 = [(geomlimits.ModelSurface(geomlimits.ANNULUS, kappa=-0.5,
                                     R=math.exp(n)),
             0.5) for n in range(4, 14)]
    assert geomlimits.classify_geometric_limit(seq1).variant \
        == geomlimits.PUNCTURED_DISK
    seq2 = []
    for n in range(6, 16):
        Rn = math.exp(n)
        kap = -math.pi ** 4 / (4.0 * math.log(Rn) ** 2)
        seq2.append((geomlimits.ModelSurface(geomlimits.ANNULUS, kappa=kap,
                                             R=Rn),
                     1.0 / math.sqrt(Rn)))
    lim = geomlimits.classify_geometric_limit(seq2)
    assert lim.variant == geomlimits.PUNCTURED_PLANE
    assert abs(lim.r - 2.0) < 1e-9
    seq3 = [(geomlimits.ModelSurface(geomlimits.PUNCTURED_DISK,
                                     kappa=-1.0 / n ** 2),
             0.3) for n in range(2, 60, 4)]
    assert geomlimits.classify_geometric_limit(seq3).variant \
        == geomlimits.PLANE
    _report(8, f"identities exact, quadratures {err_quad:.1e}/{worst:.1e}, "
               f"three limit presets classified")


def test_criterion_9_comparison_root():
    for a in (0.0, 1.0, 4.0, 13.0):
        r = blaschke.largest_root(a)
        assert abs(2.0 * r ** 3 - 2.0 * r ** 2 - 4.0 * a) < 1e-12
    assert blaschke.largest_root(0.0) == 1.0
    _report(9, "p_a(r(a)) = 0 within 1e-12 for a in {0, 1, 4, 13}; r(0) = 1")
