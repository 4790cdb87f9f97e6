import math

import numpy as np
import pytest
import sympy

from cubiclab.blaschke import Grid2D, log_density_curvature
from cubiclab.errors import BadParameters, IndeterminateSequence
from cubiclab.geomlimits import (
    ANNULUS,
    DISK,
    PLANE,
    PUNCTURED_DISK,
    PUNCTURED_PLANE,
    ModelSurface,
    classify_geometric_limit,
    core_length,
    core_length_quadrature,
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
    with pytest.raises(BadParameters,
                       match=r"\(3\+0j\) outside the domain of disk"):
        density(ModelSurface(DISK, kappa=-1.0), 3.0 + 0j)
    with pytest.raises(BadParameters,
                       match=r"0j outside the domain of punctured-disk"):
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
            g = Grid2D(x0, x1, y0, y1, n, n)
            logdens = np.log(np.vectorize(
                lambda z: density(m, complex(z)))(g.zs))
            k = log_density_curvature(g, logdens)
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
    with pytest.raises(BadParameters, match=r"modulus needs R > 1, got 0\.5"):
        modulus(0.5)


def test_core_length_identities():
    assert abs(core_length(math.exp(2 * math.pi ** 2)) - 1.0) < 1e-15
    assert core_length(1e8) < core_length(1e4)  # pinching


@pytest.mark.parametrize("kappa", [-1.0, -0.3])
@pytest.mark.parametrize("R", [math.exp(2 * math.pi), math.exp(5.0)])
def test_core_length_quadrature(kappa, R):
    # the line integral of lambda |dz| over the core circle |z| = 1/sqrt(R)
    want = core_length(R, kappa)
    assert abs(core_length_quadrature(R, kappa) - want) <= 1e-12 * want


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
    with pytest.raises(BadParameters,
                       match=r"cover degree 0 is not a positive integer"):
        pushforward_power_cover(0)


def test_far_end_mass_closed_form_vs_quadrature():
    rng = np.random.default_rng(3)
    triples = []
    for _ in range(10):
        kappa = -float(rng.uniform(0.05, 1.0))
        R = float(np.exp(rng.uniform(2.0, 12.0)))
        C = float(np.exp(rng.uniform(0.1, 0.9) * np.log(R)))
        triples.append((kappa, R, C))
    for kappa in (-0.25, -1.0, -4.0):
        for R in (1.5, 10.0, 1e3, 1e5, 1e8):
            triples += [(kappa, R, C)
                        for C in (1.0 + 1e-9, 1.0001, math.sqrt(R), R)]
    for kappa, R, C in triples:
        cf = far_end_mass(kappa, R, C)
        qd = far_end_mass_quadrature(kappa, R, C)
        assert abs(cf - qd) / abs(cf) < 1e-12, (kappa, R, C)


def test_far_end_mass_near_an_empty_collar():
    # as C -> 1+ the mass is pi sqrt(-kappa) log^2 C to relative order
    # log^2 C / log^2 R; 1 - cos(pi log C / log R) rounded to 0 here
    C = 1.0 + 1e-9
    for kappa in (-0.25, -1.0, -4.0):
        for R in (1.5, 10.0, 1e8):
            want = math.pi * math.sqrt(-kappa) * math.log(C) ** 2
            assert abs(far_end_mass(kappa, R, C) - want) <= 1e-15 * want


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
            0.5) for n in range(4, 14)]
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
                    1.0 / math.sqrt(R)))
    lim = classify_geometric_limit(seq)
    assert lim.variant == PUNCTURED_PLANE
    assert abs(lim.r - r) < 1e-9


def test_classify_plane_limits():
    seq = [(ModelSurface(PUNCTURED_DISK, kappa=-1.0 / n ** 2),
            0.3) for n in range(2, 60, 4)]
    assert classify_geometric_limit(seq).variant == PLANE
    seq2 = [(ModelSurface(ANNULUS, kappa=-1.0 / n ** 2, R=15.0),
             0.5) for n in range(2, 60, 4)]
    assert classify_geometric_limit(seq2).variant == PLANE


def test_classify_rescaled_punctured_disks():
    r = 1.5
    seq = []
    for n in range(6, 30, 2):
        kap = -math.pi ** 2 / (r ** 2 * n ** 2)
        seq.append((ModelSurface(PUNCTURED_DISK, kappa=kap),
                    math.exp(-n)))
    lim = classify_geometric_limit(seq)
    assert lim.variant == PUNCTURED_PLANE
    assert abs(lim.r - r) < 1e-9


def test_classify_scale_consistency():
    # rescaling the annulus parameters per the documented law keeps the
    # classification (here: trivial constant-sequence case)
    seq = [(ModelSurface(ANNULUS, kappa=-0.7, R=9.0), 0.5)
           for _ in range(5)]
    lim = classify_geometric_limit(seq)
    assert lim.variant == ANNULUS and abs(lim.R - 9.0) < 1e-12


def test_classify_indeterminate():
    seq = [(ModelSurface(ANNULUS, kappa=(-0.3 if n % 2 else -0.6), R=20.0),
            0.5) for n in range(8)]
    with pytest.raises(IndeterminateSequence):
        classify_geometric_limit(seq)


def test_framed_basepoint_injectivity_validation():
    # at the core circle |z| = R^(-1/2) the injectivity radius is half the
    # core length, pi^2 / log R: at least one exactly when log R <= pi^2
    thick = ModelSurface(ANNULUS, kappa=-1.0, R=math.exp(1.0))  # 9.87
    assert classify_geometric_limit(
        [(thick, 1.0 / math.sqrt(thick.R))]) == thick
    thin = ModelSurface(ANNULUS, kappa=-1.0, R=math.exp(30.0))  # 0.329
    with pytest.raises(BadParameters, match=r"injectivity radius 0\.328987 "):
        classify_geometric_limit([(thick, 1.0 / math.sqrt(thick.R)),
                                  (thin, 1.0 / math.sqrt(thin.R))])


@pytest.mark.parametrize("variant,kappa,r", [
    (PLANE, 0.0, 1.0), (PUNCTURED_PLANE, 0.0, 2.0), (DISK, -1.0, 1.0)])
def test_classify_constant_variant(variant, kappa, r):
    # a model that keeps its variant while kappa and r settle is its own
    # limit, at the last parameters
    seq = [(ModelSurface(variant, kappa=kappa * (1.0 + 1.0 / n ** 3),
                         r=r * (1.0 + 1.0 / n ** 3)),
            0.5) for n in range(20, 30)]
    lim = classify_geometric_limit(seq)
    assert lim.variant == variant
    last = seq[-1][0]
    if variant == DISK:
        assert lim.kappa == last.kappa
    if variant == PUNCTURED_PLANE:
        assert lim.r == last.r


def test_classify_punctured_disk_that_stays():
    # kappa and the basepoint settle inside the disk: no rescaling limit
    seq = [(ModelSurface(PUNCTURED_DISK, kappa=-1.0 - 1.0 / n ** 4),
            0.5 + 1.0 / n ** 4) for n in range(20, 30)]
    lim = classify_geometric_limit(seq)
    assert lim.variant == PUNCTURED_DISK
    assert lim.kappa == -1.0 - 1.0 / 29 ** 4


def test_classify_empty_sequence():
    with pytest.raises(IndeterminateSequence, match=r"^empty sequence: 0 "):
        classify_geometric_limit([])


def test_classify_mixed_variants():
    seq = [(ModelSurface(PLANE), 0.0),
           (ModelSurface(DISK, kappa=-1.0), 0.0)]
    with pytest.raises(IndeterminateSequence,
                       match=r"mixed model variants .*\['disk', 'plane'\]$"):
        classify_geometric_limit(seq)


def test_classify_unsettled_names_its_rule_and_values():
    # kappa_n = -1 - 1/n^3 is monotone and converges, but its last four
    # terms (n = 5..8) still step by 0.00337 > 1e-3 |kappa_8|
    seq = [(ModelSurface(DISK, kappa=-1.0 - 1.0 / n ** 3),
            0.0) for n in range(1, 9)]
    with pytest.raises(IndeterminateSequence, match=(
            r"^disk sequence fits no supported case \(kappa and r settle\): "
            r"kappa ends \[-1\.008, -1\.00463, -1\.00292, -1\.00195\], "
            r"steps up to 0\.00337 against 0\.001; r ends \[1, 1, 1, 1\], "
            r"steps up to 0 against 0\.001$")):
        classify_geometric_limit(seq)


def test_classify_punctured_disk_that_fits_no_case():
    seq = [(ModelSurface(PUNCTURED_DISK, kappa=(-1.0 if n % 2 else -2.0)),
            0.5) for n in range(8)]
    with pytest.raises(IndeterminateSequence, match=(
            r"^punctured-disk sequence fits no supported case \(inj "
            r"diverges, or .*\): inj ends .*; kappa ends \[-2, -1, -2, -1\], "
            r"steps up to 1 against 0\.001; z ends \[0\.5, 0\.5, 0\.5, "
            r"0\.5\], .*; p ends ")):
        classify_geometric_limit(seq)
