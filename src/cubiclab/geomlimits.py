"""Constant-curvature model surfaces with cyclic or trivial fundamental
group: closed-form densities, modulus and core-length identities, limit
classification for parameter sequences, and push-forward of the invariant
cubic differential under power-map covers.

Supported models (kappa < 0 throughout where it appears):

    plane                 lambda^2 = 1                          on C
    disk(kappa)           (4 / (4 + kappa |z|^2))^2             on |z| < 2/sqrt(-kappa)
    punctured-plane(r)    (r^2/pi^2) / |z|^2                    on C*
    punctured-disk(kappa) 1 / (-kappa (|z| log|z|)^2)           on 0 < |z| < 1
    annulus(R, kappa)     pi^2 / (-kappa log^2 R) / (|z| sin(pi log|z| / log R))^2
                                                                on 1/R < |z| < 1
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParameters, IndeterminateSequence

PLANE = "plane"
DISK = "disk"
PUNCTURED_PLANE = "punctured-plane"
PUNCTURED_DISK = "punctured-disk"
ANNULUS = "annulus"


@dataclass(frozen=True)
class ModelSurface:
    """One of the constant-curvature models, with closed-form density."""

    variant: str
    kappa: float = 0.0
    R: float = 0.0   # annulus outer/inner ratio
    r: float = 1.0   # punctured-plane injectivity radius

    def __post_init__(self):
        v = self.variant
        if v not in (PLANE, DISK, PUNCTURED_PLANE, PUNCTURED_DISK, ANNULUS):
            raise BadParameters(f"unknown model variant {v!r}")
        if v in (DISK, PUNCTURED_DISK, ANNULUS) and not self.kappa < 0:
            raise BadParameters(f"{v} needs kappa < 0, got {self.kappa}")
        if v == ANNULUS and not self.R > 1:
            raise BadParameters(f"annulus needs R > 1, got {self.R}")
        if v == PUNCTURED_PLANE and not self.r >= 1:
            raise BadParameters(f"punctured-plane needs r >= 1, got {self.r}")

    def contains(self, z: complex) -> bool:
        az = abs(z)
        if self.variant == PLANE:
            return True
        if self.variant == DISK:
            return az < 2.0 / math.sqrt(-self.kappa)
        if self.variant == PUNCTURED_PLANE:
            return az > 0.0
        if self.variant == PUNCTURED_DISK:
            return 0.0 < az < 1.0
        return 1.0 / self.R < az < 1.0


def density(m: ModelSurface, z: complex) -> float:
    """The squared conformal density lambda(z)^2 of the model metric."""
    if not m.contains(z):
        raise BadParameters(f"{z} outside the domain of {m.variant}")
    az = abs(z)
    if m.variant == PLANE:
        return 1.0
    if m.variant == DISK:
        return (4.0 / (4.0 + m.kappa * az * az)) ** 2
    if m.variant == PUNCTURED_PLANE:
        return (m.r / math.pi) ** 2 / az ** 2
    if m.variant == PUNCTURED_DISK:
        return 1.0 / (-m.kappa * (az * math.log(az)) ** 2)
    logR = math.log(m.R)
    s = math.sin(math.pi * math.log(az) / logR)
    return math.pi ** 2 / (-m.kappa * logR ** 2) / (az * s) ** 2


def modulus(R: float) -> float:
    """Conformal modulus log(R) / (2 pi) of the annulus 1/R < |z| < 1."""
    if not R > 1:
        raise BadParameters(f"modulus needs R > 1, got {R}")
    return math.log(R) / (2.0 * math.pi)


def core_length(R: float, kappa: float = -1.0) -> float:
    """Length of the core geodesic |z| = 1/sqrt(R): 2 pi^2 / log R at
    curvature -1, scaled by 1/sqrt(-kappa) in general."""
    ModelSurface(ANNULUS, kappa=kappa, R=R)  # checks R > 1 and kappa < 0
    return 2.0 * math.pi ** 2 / math.log(R) / math.sqrt(-kappa)


def injectivity_radius(m: ModelSurface, z: complex) -> float:
    """Half the shortest geodesic loop through z (closed form).

    Plane and disk are simply connected and complete: infinite.  The flat
    punctured plane has constant radius r.  For the hyperbolic-type models
    the loop through a point at distance d from the core (or around the
    cusp) has sinh(L/2) = cosh(d) sinh(l0 / 2) in curvature -1 units.
    """
    if not m.contains(z):
        raise BadParameters(f"{z} outside the domain of {m.variant}")
    if m.variant in (PLANE, DISK):
        return math.inf
    if m.variant == PUNCTURED_PLANE:
        return m.r
    scale = 1.0 / math.sqrt(-m.kappa)
    if m.variant == PUNCTURED_DISK:
        # cusp loop: 2 arcsinh(pi / (-log|z|)) at curvature -1
        y = -math.log(abs(z))
        return scale * math.asinh(math.pi / y)
    ell0 = 2.0 * math.pi ** 2 / math.log(m.R)  # curvature -1 core length
    d = _annulus_core_distance(m.R, abs(z))
    return scale * math.asinh(math.cosh(d) * math.sinh(ell0 / 2.0))


def _annulus_core_distance(R: float, az: float) -> float:
    """Curvature -1 distance from |z| = az to the core circle."""
    logR = math.log(R)
    u = math.pi * math.log(az) / logR  # in (-pi, 0); core at -pi/2
    return abs(math.log(abs(math.tan(u / 2.0))))


def pushforward_power_cover(d: int, coefficient: complex = 1.0) -> complex:
    """Push forward c dz^3/z^3 under z -> z^d: each of the d branches
    w -> w^(1/d) pulls the differential back to (1/d^3) dw^3/w^3, so the
    branch sum carries coefficient c / d^2."""
    if not isinstance(d, int) or d < 1:
        raise BadParameters(f"cover degree {d!r} is not a positive integer")
    return coefficient / float(d * d)


def far_end_mass(kappa: float, R: float, C: float) -> float:
    """Mass of |q| lambda^(-1) for q = dz^3/z^3 over the far-end collar
    N(R) = {1/R < |z| < C/R} of the annulus:

        2 sqrt(-kappa) (log^2 R / pi) (1 - cos(pi log C / log R)),

    evaluated as 4 sqrt(-kappa) (log^2 R / pi) sin^2(pi log C / (2 log R)),
    which does not cancel as C -> 1+.
    """
    if not (kappa < 0 and R > 1 and 1 < C <= R):
        raise BadParameters(f"need kappa < 0, R > 1, 1 < C <= R, got "
                            f"kappa={kappa}, R={R}, C={C}")
    logR = math.log(R)
    s = math.sin(math.pi * math.log(C) / (2.0 * logR))
    return 4.0 * math.sqrt(-kappa) * logR ** 2 / math.pi * s * s


def far_end_mass_quadrature(kappa: float, R: float, C: float) -> float:
    """A 30-point Gauss-Legendre rule for the same mass integral, as a
    cross-check.

    The integrand |q| lambda^(-1) r depends on the radius alone, so the
    angular integral is the factor 2 pi and a 1-d quadrature remains.  In
    v = log(R r) it is sqrt(-kappa) (log R / pi) sin(pi v / log R) dv,
    smooth and positive on (0, log C]; in log r itself the sine would
    cancel near r = 1/R.
    """
    if not (kappa < 0 and R > 1 and 1 < C <= R):
        raise BadParameters(f"need kappa < 0, R > 1, 1 < C <= R, got "
                            f"kappa={kappa}, R={R}, C={C}")
    logR = math.log(R)
    pref = math.sqrt(-kappa) * logR / math.pi
    nodes, weights = np.polynomial.legendre.leggauss(30)
    half = math.log(C) / 2.0
    v = half * (nodes + 1.0)
    val = half * float(weights @ np.sin(np.pi * v / logR))
    return 2.0 * math.pi * pref * val


def core_length_quadrature(R: float, kappa: float = -1.0) -> float:
    """Line integral of lambda |dz| along the core circle |z| = 1/sqrt(R).

    The annulus density is radial, so lambda is constant on the circle and
    the integral is its circumference 2 pi r times sqrt(density) at one
    point of it: a check of ``density`` against ``core_length``.
    """
    m = ModelSurface(ANNULUS, kappa=kappa, R=R)
    rad = 1.0 / math.sqrt(R)
    return 2.0 * math.pi * rad * math.sqrt(density(m, complex(rad)))


# -- geometric limits of parameter sequences ---------------------------------


def _tail(xs):
    """The last (up to) 4 values, their largest step, and the step a
    settled tail stays within: 1e-3 of the last value, at least 1e-12."""
    tail = xs[-4:]
    step = max((abs(b - a) for a, b in zip(tail, tail[1:])), default=0.0)
    return tail, step, max(1e-12, 1e-3 * abs(xs[-1]))


def _converges(xs):
    _last, step, bound = _tail(xs)
    return step <= bound, xs[-1]


def _no_case(variant, rule, **params) -> IndeterminateSequence:
    """The error for a sequence that fits no case: the rule it breaks, and
    the tail of each parameter with its largest step against the bound."""
    tails = []
    for name, xs in params.items():
        tail, step, bound = _tail(xs)
        tails.append(f"{name} ends [{', '.join(f'{x:.6g}' for x in tail)}], "
                     f"steps up to {step:.3g} against {bound:.3g}")
    return IndeterminateSequence(f"{variant} sequence fits no supported case "
                                 f"({rule}): {'; '.join(tails)}")


def _diverges(xs):
    if len(xs) < 2:
        return xs[-1] > 1e6
    increasing = all(b >= a for a, b in zip(xs[-3:], xs[-2:]))
    return increasing and xs[-1] >= 20.0 * max(abs(xs[0]), 1.0)


def classify_geometric_limit(seq) -> ModelSurface:
    """Limit model of a sequence of (ModelSurface, z) pairs, z a basepoint
    where the injectivity radius is at least one.

    It decides from a finite tail, not from the parameter laws: a
    parameter settles when its last four terms step by at most 1e-3 of its
    last value, and diverges when its last three terms rise to at least 20
    times max(1, |first term|).  So a slowly divergent law can pass for a
    limit.  A sequence that fits no case raises IndeterminateSequence,
    naming the rules and the last values (inj is the injectivity radius at
    the basepoint and z its modulus).
    """
    if not seq:
        raise IndeterminateSequence("empty sequence: 0 terms to classify")
    models = [m for m, _z in seq]
    points = [z for _m, z in seq]
    inj = [injectivity_radius(m, z) for m, z in seq]
    for m, z, rad in zip(models, points, inj):
        if rad < 1.0 - 1e-12:
            raise BadParameters(
                f"injectivity radius {rad:.6g} at {z} below one on "
                f"{m.variant}")
    variants = {m.variant for m in models}
    if len(variants) != 1:
        raise IndeterminateSequence(f"mixed model variants in one "
                                    f"sequence: {sorted(variants)}")
    variant = variants.pop()

    if variant in (PLANE, PUNCTURED_PLANE, DISK):
        kap = [m.kappa for m in models]
        ok_k, k_lim = _converges(kap)
        rr = [m.r for m in models]
        ok_r, r_lim = _converges(rr)
        if not (ok_k and ok_r):
            raise _no_case(variant, "kappa and r settle", kappa=kap, r=rr)
        if variant == PUNCTURED_PLANE:
            return ModelSurface(PUNCTURED_PLANE, r=r_lim)
        if variant == DISK:
            return ModelSurface(DISK, kappa=k_lim)
        return ModelSurface(PLANE)

    if variant == PUNCTURED_DISK:
        if _diverges(inj):
            return ModelSurface(PLANE)
        p = [-m.kappa * math.log(abs(z)) ** 2 for m, z in seq]
        kap = [m.kappa for m in models]
        zs = [abs(z) for z in points]
        ok_k, k_lim = _converges(kap)
        ok_z, z_lim = _converges(zs)
        if ok_k and k_lim < -1e-12 and ok_z and 0 < z_lim < 1:
            return ModelSurface(PUNCTURED_DISK, kappa=k_lim)
        ok_p, p_lim = _converges(p)
        if ok_p and p_lim > 1e-12 and zs[-1] < zs[0]:
            return ModelSurface(PUNCTURED_PLANE,
                                r=max(1.0, math.pi / math.sqrt(p_lim)))
        raise _no_case(variant, "inj diverges, or kappa < 0 and 0 < z < 1 "
                       "settle, or p = -kappa log^2 z > 0 settles as z "
                       "falls", inj=inj, kappa=kap, z=zs, p=p)

    # annuli
    kap = [m.kappa for m in models]
    Rs = [m.R for m in models]
    ok_k, k_lim = _converges(kap)
    ok_R, R_lim = _converges(Rs)
    if ok_k and ok_R and k_lim < -1e-12:
        return ModelSurface(ANNULUS, kappa=k_lim, R=R_lim)
    if ok_k and k_lim < -1e-12 and _diverges(Rs):
        return ModelSurface(PUNCTURED_DISK, kappa=k_lim)
    if _diverges(inj):
        return ModelSurface(PLANE)
    q = [-m.kappa * math.log(m.R) ** 2 for m in models]
    t = [abs(z) * math.sqrt(m.R) for m, z in seq]
    ok_q, q_lim = _converges(q)
    ok_t, _t_lim = _converges(t)
    if ok_q and q_lim > 1e-12 and ok_t and _diverges(Rs):
        return ModelSurface(PUNCTURED_PLANE,
                            r=max(1.0, math.pi ** 2 / math.sqrt(q_lim)))
    raise _no_case(variant, "kappa < 0 settles as R settles or diverges, "
                   "or inj diverges, or q = -kappa log^2 R > 0 and "
                   "t = z sqrt(R) settle as R diverges",
                   kappa=kap, R=Rs, inj=inj, q=q, t=t)
