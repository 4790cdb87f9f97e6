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

from .errors import (
    BadParameters,
    BadR,
    IndeterminateSequence,
    OutOfDomain,
    SimplyConnected,
    UnsupportedCover,
)

PLANE = "plane"
DISK = "disk"
PUNCTURED_PLANE = "punctured-plane"
PUNCTURED_DISK = "punctured-disk"
ANNULUS = "annulus"

_CYCLIC = (PUNCTURED_PLANE, PUNCTURED_DISK, ANNULUS)


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
            raise BadParameters(f"{v} needs curvature kappa < 0")
        if v == ANNULUS and not self.R > 1:
            raise BadR("annulus parameter must satisfy R > 1")
        if v == PUNCTURED_PLANE and not self.r >= 1:
            raise BadParameters("punctured-plane radius must be >= 1")

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
        raise OutOfDomain(f"{z} outside the domain of {m.variant}")
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
        raise BadR("modulus needs R > 1")
    return math.log(R) / (2.0 * math.pi)


def core_length(R: float, kappa: float = -1.0) -> float:
    """Length of the core geodesic |z| = 1/sqrt(R): 2 pi^2 / log R at
    curvature -1, scaled by 1/sqrt(-kappa) in general."""
    if not R > 1:
        raise BadR("core length needs R > 1")
    if not kappa < 0:
        raise BadParameters("core length needs kappa < 0")
    return 2.0 * math.pi ** 2 / math.log(R) / math.sqrt(-kappa)


def injectivity_radius(m: ModelSurface, z: complex) -> float:
    """Half the shortest geodesic loop through z (closed form).

    Plane and disk are simply connected and complete: infinite.  The flat
    punctured plane has constant radius r.  For the hyperbolic-type models
    the loop through a point at distance d from the core (or around the
    cusp) has sinh(L/2) = cosh(d) sinh(l0 / 2) in curvature -1 units.
    """
    if not m.contains(z):
        raise OutOfDomain(f"{z} outside the domain of {m.variant}")
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


def cylinder_differential(m: ModelSurface) -> complex:
    """Coefficient c with q = c dz^3 / z^3 the invariant cubic differential
    in the model's standard coordinate."""
    if m.variant not in _CYCLIC:
        raise SimplyConnected(
            f"{m.variant} has no invariant cubic differential")
    return 1.0


def pushforward_power_cover(d: int, coefficient: complex = 1.0) -> complex:
    """Push forward c dz^3/z^3 under z -> z^d: each of the d branches
    w -> w^(1/d) pulls the differential back to (1/d^3) dw^3/w^3, so the
    branch sum carries coefficient c / d^2."""
    if not isinstance(d, int) or d < 1:
        raise UnsupportedCover("cover degree must be a positive integer")
    return coefficient / float(d * d)


def far_end_mass(kappa: float, R: float, C: float) -> float:
    """Mass of |q| lambda^(-1) for q = dz^3/z^3 over the far-end collar
    N(R) = {1/R < |z| < C/R} of the annulus:

        2 sqrt(-kappa) (log^2 R / pi) (1 - cos(pi log C / log R)).
    """
    if not (kappa < 0 and R > 1 and 1 < C <= R):
        raise BadParameters("need kappa < 0, R > 1, 1 < C <= R")
    logR = math.log(R)
    return (2.0 * math.sqrt(-kappa) * logR ** 2 / math.pi
            * (1.0 - math.cos(math.pi * math.log(C) / logR)))


def far_end_mass_quadrature(kappa: float, R: float, C: float,
                            rel_tol: float = 1e-8) -> float:
    """2-d adaptive quadrature of the same mass integral, as a cross-check."""
    from scipy.integrate import dblquad

    if not (kappa < 0 and R > 1 and 1 < C <= R):
        raise BadParameters("need kappa < 0, R > 1, 1 < C <= R")
    logR = math.log(R)
    pref = math.sqrt(-kappa) * logR / math.pi

    def integrand(rad, _theta):
        s = abs(math.sin(math.pi * math.log(rad) / logR))
        # |q| lambda^{-1} r dr dtheta with |q| = 1/r^3
        return pref * s / rad ** 2 * rad

    val, _err = dblquad(integrand, 0.0, 2.0 * math.pi,
                        lambda _t: 1.0 / R, lambda _t: C / R,
                        epsabs=0.0, epsrel=rel_tol)
    return float(val)


def core_length_quadrature(R: float, kappa: float = -1.0,
                           n: int = 20000) -> float:
    """Line integral of the model density along the core circle."""
    m = ModelSurface(ANNULUS, kappa=kappa, R=R)
    rad = 1.0 / math.sqrt(R)
    theta = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    lam = math.sqrt(density(m, rad))  # density is constant on the circle
    return float(lam * rad * 2.0 * math.pi + 0.0 * theta.sum())


# -- geometric limits of parameter sequences ---------------------------------


@dataclass(frozen=True)
class FramedBasepoint:
    """A basepoint with unit frame; the injectivity radius must be >= 1."""

    z: complex
    direction: complex = 1.0 + 0.0j

    def validated_on(self, m: ModelSurface) -> "FramedBasepoint":
        rad = injectivity_radius(m, self.z)
        if rad < 1.0 - 1e-12:
            raise BadParameters(
                f"injectivity radius {rad:.6g} at {self.z} below one on "
                f"{m.variant}")
        return self


def _converges(xs, rtol=1e-3, atol=1e-12):
    if len(xs) < 2:
        return True, xs[-1]
    tail = xs[-min(4, len(xs)):]
    ref = abs(tail[-1])
    ok = all(abs(b - a) <= max(atol, rtol * max(ref, 1e-30))
             for a, b in zip(tail, tail[1:]))
    return ok, xs[-1]


def _diverges(xs, factor=20.0):
    if len(xs) < 2:
        return xs[-1] > 1e6
    increasing = all(b >= a for a, b in zip(xs[-3:], xs[-2:]))
    return increasing and xs[-1] >= factor * max(abs(xs[0]), 1.0)


def classify_geometric_limit(seq) -> ModelSurface:
    """Limit model of a sequence of (ModelSurface, FramedBasepoint).

    The decision rules are closed-form predicates on the parameter laws;
    the sequence itself must satisfy a single case's hypotheses, otherwise
    IndeterminateSequence is raised.
    """
    if not seq:
        raise IndeterminateSequence("empty sequence")
    models = [m for m, _v in seq]
    points = [v for _m, v in seq]
    for m, v in zip(models, points):
        v.validated_on(m)
    variants = {m.variant for m in models}
    if len(variants) != 1:
        raise IndeterminateSequence("mixed model variants in one sequence")
    variant = variants.pop()
    inj = [injectivity_radius(m, v.z) for m, v in zip(models, points)]

    if variant in (PLANE, PUNCTURED_PLANE, DISK):
        kap = [m.kappa for m in models]
        ok_k, k_lim = _converges(kap)
        rr = [m.r for m in models]
        ok_r, r_lim = _converges(rr)
        if ok_k and ok_r:
            if variant == PUNCTURED_PLANE:
                return ModelSurface(PUNCTURED_PLANE, r=r_lim)
            if variant == PLANE:
                return ModelSurface(PLANE)
            if k_lim < 0:
                return ModelSurface(DISK, kappa=k_lim)
            return ModelSurface(PLANE)
        raise IndeterminateSequence("constant-variant parameters oscillate")

    if variant == PUNCTURED_DISK:
        if _diverges(inj):
            return ModelSurface(PLANE)
        p = [-m.kappa * math.log(abs(v.z)) ** 2
             for m, v in zip(models, points)]
        kap = [m.kappa for m in models]
        zs = [abs(v.z) for v in points]
        ok_k, k_lim = _converges(kap)
        ok_z, z_lim = _converges(zs)
        if ok_k and k_lim < -1e-12 and ok_z and 0 < z_lim < 1:
            return ModelSurface(PUNCTURED_DISK, kappa=k_lim)
        ok_p, p_lim = _converges(p)
        if ok_p and p_lim > 1e-12 and zs[-1] < zs[0]:
            return ModelSurface(PUNCTURED_PLANE,
                                r=max(1.0, math.pi / math.sqrt(p_lim)))
        raise IndeterminateSequence(
            "punctured-disk sequence fits no supported case")

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
    t = [abs(v.z) * math.sqrt(m.R) for m, v in zip(models, points)]
    ok_q, q_lim = _converges(q)
    ok_t, _t_lim = _converges(t)
    if ok_q and q_lim > 1e-12 and ok_t and _diverges(Rs):
        return ModelSurface(PUNCTURED_PLANE,
                            r=max(1.0, math.pi ** 2 / math.sqrt(q_lim)))
    raise IndeterminateSequence("annulus sequence fits no supported case")
