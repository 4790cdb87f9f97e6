import math

import numpy as np
import pytest
import sympy

from cubiclab.blaschke import log_density_curvature
from cubiclab.errors import (
    BadParameters,
    BadR,
    IndeterminateSequence,
    OutOfDomain,
    SimplyConnected,
    UnsupportedCover,
)
from cubiclab.geomlimits import (
    ANNULUS,
    DISK,
    PLANE,
    PUNCTURED_DISK,
    PUNCTURED_PLANE,
    FramedBasepoint,
    ModelSurface,
    classify_geometric_limit,
    core_length,
    core_length_quadrature,
    cylinder_differential,
    density,
    far_end_mass,
    far_end_mass_quadrature,
    injectivity_radius,
    modulus,
    pushforward_power_cover,
)


def test_density_values():
    assert density(ModelSurface(PLANE), 3 + 4j) == 1.0
    assert density(ModelSurface(DISK, kappa=-1.0), 0j) == 1.0
    m = ModelSurface(PUNCTURED_PLANE, r=2.0)
    assert abs(density(m, 2j) - (2.0 / math.pi) ** 2 / 4.0) < 1e-15
    with pytest.raises(OutOfDomain):
        density(ModelSurface(DISK, kappa=-1.0), 3.0 + 0j)
    with pytest.raises(OutOfDomain):
        density(ModelSurface(PUNCTURED_DISK, kappa=-1.0), 0j)


def test_densities_reproduce_curvature():
    # discrete curvature of the closed-form log densities at 3 grid sizes
    cases = [
        (ModelSurface(PLANE), 0.0, (0.2, 0.8, 0.2, 0.8)),
        (ModelSurface(DISK, kappa=-0.25), -0.25, (-1.0, 1.0, -1.0, 1.0)),
        (ModelSurface(DISK, kappa=-1.0), -1.0, (-0.8, 0.8, -0.8, 0.8)),
        (ModelSurface(PUNCTURED_DISK, kappa=-1.0), -1.0,
         (0.15, 0.5, 0.05, 0.35)),
        (ModelSurface(ANNULUS, kappa=-0.5, R=20.0), -0.5,
         (0.3, 0.8, 0.05, 0.4)),
    ]
    for m, kappa, (x0, x1, y0, y1) in cases:
        maxima, common = [], []
        for n in (33, 65, 129):
            xs = np.linspace(x0, x1, n)
            ys = np.linspace(y0, y1, n)
            X, Y = np.meshgrid(xs, ys)
            Z = X + 1j * Y
            logdens = np.log(np.vectorize(
                lambda z: density(m, complex(z)))(Z))
            k = log_density_curvature(logdens, xs[1] - xs[0], ys[1] - ys[0])
            err = np.abs(k - kappa)
            s = (n - 1) // 32  # interior nodes of the n = 33 grid
            maxima.append(float(np.nanmax(err[1:-1, 1:-1])))
            common.append(float(np.nanmax(err[s:-s:s, s:-s:s])))
        if m.variant == PLANE:
            # log density identically 0: the stencil is exact at every n
            assert maxima == [0.0, 0.0, 0.0]
            continue
        assert maxima[0] > maxima[2]
        assert maxima[2] < 5e-3
        assert 3.0 < common[0] / common[1] < 5.0
        assert 3.0 < common[1] / common[2] < 5.0


def test_modulus_identities():
    assert abs(modulus(math.exp(2 * math.pi)) - 1.0) < 1e-15
    assert abs(modulus(math.exp(4 * math.pi)) - 2.0) < 1e-15
    # the degree-2 power cover halves the modulus
    R = 37.5
    assert abs(modulus(math.sqrt(R)) - modulus(R) / 2.0) < 1e-12
    with pytest.raises(BadR):
        modulus(0.5)


def test_core_length_identities():
    assert abs(core_length(math.exp(2 * math.pi ** 2)) - 1.0) < 1e-15
    assert core_length(1e8) < core_length(1e4)  # pinching
    R = math.exp(2 * math.pi)
    assert abs(core_length_quadrature(R) - core_length(R)) < 1e-8


def test_injectivity_radius():
    m = ModelSurface(PUNCTURED_PLANE, r=2.0)
    for z in (1 + 0j, 5j, -0.01 + 0j):
        assert abs(injectivity_radius(m, z) - 2.0) < 1e-15
    assert injectivity_radius(ModelSurface(PLANE), 0j) == math.inf
    a = ModelSurface(ANNULUS, kappa=-1.0, R=math.exp(2 * math.pi))
    core_pt = 1.0 / math.sqrt(a.R)
    assert abs(injectivity_radius(a, core_pt)
               - core_length(a.R) / 2.0) < 1e-12
    # off-core points have larger loops
    assert injectivity_radius(a, 0.9 * 1.0) > injectivity_radius(a, core_pt)


def test_cylinder_differential():
    assert cylinder_differential(
        ModelSurface(ANNULUS, kappa=-1.0, R=5.0)) == 1.0
    assert cylinder_differential(ModelSurface(PUNCTURED_PLANE, r=1.0)) == 1.0
    with pytest.raises(SimplyConnected):
        cylinder_differential(ModelSurface(PLANE))


def test_pushforward_against_symbolic_oracle():
    w, c = sympy.symbols("w c", positive=True)
    for d in (1, 2, 3):
        # branch rho_k(w) = zeta^k w^(1/d); pull back c dz^3/z^3 and sum
        total = 0
        for k in range(d):
            zeta = sympy.exp(2 * sympy.pi * sympy.I * k / d)
            rho = zeta * w ** sympy.Rational(1, d)
            pull = c * sympy.diff(rho, w) ** 3 / rho ** 3
            total += sympy.simplify(pull)
        total = sympy.simplify(total * w ** 3)  # coefficient of dw^3/w^3
        expect = sympy.simplify(c / d ** 2)
        assert sympy.simplify(total - expect) == 0
        assert pushforward_power_cover(d, 1.0) == 1.0 / d ** 2
    assert pushforward_power_cover(3, 9.0) == 1.0
    # composition: d1 then d2 scales by (d1 d2)^-2
    assert pushforward_power_cover(
        3, pushforward_power_cover(2, 1.0)) == pushforward_power_cover(6, 1.0)
    with pytest.raises(UnsupportedCover):
        pushforward_power_cover(0)


def test_far_end_mass_closed_form_vs_quadrature():
    rng = np.random.default_rng(3)
    for _ in range(10):
        kappa = -float(rng.uniform(0.05, 1.0))
        R = float(np.exp(rng.uniform(2.0, 12.0)))
        C = float(np.exp(rng.uniform(0.1, 0.9) * np.log(R)))
        cf = far_end_mass(kappa, R, C)
        qd = far_end_mass_quadrature(kappa, R, C)
        assert abs(cf - qd) / abs(cf) < 1e-6


def test_far_end_mass_limits_and_monotonicity():
    kappa, R = -0.3, 100.0
    vals = [far_end_mass(kappa, R, C) for C in (1.0001, 1.5, 3.0, 10.0, R)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[0] < 1e-6  # C -> 1+ gives vanishing mass
    full = far_end_mass(kappa, R, R)
    assert abs(full - 4.0 * math.sqrt(-kappa) * math.log(R) ** 2
               / math.pi) < 1e-12
    with pytest.raises(BadParameters):
        far_end_mass(0.5, 10.0, 2.0)
    with pytest.raises(BadParameters):
        far_end_mass(-1.0, 10.0, 0.5)


def test_classify_pinching_annuli():
    seq = [(ModelSurface(ANNULUS, kappa=-0.5, R=math.exp(n)),
            FramedBasepoint(0.5)) for n in range(4, 14)]
    lim = classify_geometric_limit(seq)
    assert lim.variant == PUNCTURED_DISK
    assert abs(lim.kappa + 0.5) < 1e-12


def test_classify_core_tracking():
    r = 2.0
    seq = []
    for n in range(6, 16):
        R = math.exp(n)
        kap = -math.pi ** 4 / (r ** 2 * math.log(R) ** 2)
        seq.append((ModelSurface(ANNULUS, kappa=kap, R=R),
                    FramedBasepoint(1.0 / math.sqrt(R))))
    lim = classify_geometric_limit(seq)
    assert lim.variant == PUNCTURED_PLANE
    assert abs(lim.r - r) < 1e-9


def test_classify_plane_limits():
    seq = [(ModelSurface(PUNCTURED_DISK, kappa=-1.0 / n ** 2),
            FramedBasepoint(0.3)) for n in range(2, 60, 4)]
    assert classify_geometric_limit(seq).variant == PLANE
    seq2 = [(ModelSurface(ANNULUS, kappa=-1.0 / n ** 2, R=15.0),
             FramedBasepoint(0.5)) for n in range(2, 60, 4)]
    assert classify_geometric_limit(seq2).variant == PLANE


def test_classify_rescaled_punctured_disks():
    r = 1.5
    seq = []
    for n in range(6, 30, 2):
        kap = -math.pi ** 2 / (r ** 2 * n ** 2)
        seq.append((ModelSurface(PUNCTURED_DISK, kappa=kap),
                    FramedBasepoint(math.exp(-n))))
    lim = classify_geometric_limit(seq)
    assert lim.variant == PUNCTURED_PLANE
    assert abs(lim.r - r) < 1e-9


def test_classify_scale_consistency():
    # rescaling the annulus parameters per the documented law keeps the
    # classification (here: trivial constant-sequence case)
    seq = [(ModelSurface(ANNULUS, kappa=-0.7, R=9.0), FramedBasepoint(0.5))
           for _ in range(5)]
    lim = classify_geometric_limit(seq)
    assert lim.variant == ANNULUS and abs(lim.R - 9.0) < 1e-12


def test_classify_indeterminate():
    seq = [(ModelSurface(ANNULUS, kappa=(-0.3 if n % 2 else -0.6), R=20.0),
            FramedBasepoint(0.5)) for n in range(8)]
    with pytest.raises(IndeterminateSequence):
        classify_geometric_limit(seq)


def test_framed_basepoint_injectivity_validation():
    # at the core circle |z| = R^(-1/2) the injectivity radius is half the
    # core length, pi^2 / log R: at least one exactly when log R <= pi^2
    thick = ModelSurface(ANNULUS, kappa=-1.0, R=math.exp(1.0))  # 9.87
    v = FramedBasepoint(1.0 / math.sqrt(thick.R))
    assert v.validated_on(thick) is v
    thin = ModelSurface(ANNULUS, kappa=-1.0, R=math.exp(30.0))  # 0.329
    with pytest.raises(BadParameters, match=r"injectivity radius 0\.328987 "):
        FramedBasepoint(1.0 / math.sqrt(thin.R)).validated_on(thin)
