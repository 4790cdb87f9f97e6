"""Planar geometry in complex numbers, shared by the flat-surface modules.

A point or vector of a chart is a Python ``complex``.  The flat metric
|q|^(2/3) comes from natural coordinates w with dw^3 = q, and every chart
change w -> zeta w + c is one ``PlanarIsometry``.  Every product with a
conjugate is written in this module.  The saddle enumerator holds points
as (re, im) pairs of float arrays, and the array forms here round as
Python's complex arithmetic: a product (ar br - ai bi, ar bi + ai br), a
cross ar bi + (-ai) br, a magnitude ``np.hypot``, a threshold EPS |u| |v|
grouped from the left; NumPy's complex product and ``np.abs`` do not.

``EPS`` is the flat layer's one rounding tolerance, relative to the scale
of what a decision compares: directions are parallel within EPS |u| |v|
(``left_of`` is the strict test), lengths and levels are zero within EPS
of their surface, strip or geodesic, an edge param pins within EPS of an
end, a holonomy is a translation within EPS of rotation 1, and an angle
reaches pi, or its whole fan, within EPS of it.  So results do not change
when a surface is rescaled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EPS = 1e-12


def cross(u: complex, v: complex) -> float:
    """Im(conj(u) v) = u.x v.y - u.y v.x: positive when v points left of u."""
    return (u.conjugate() * v).imag


def left_of(u: complex, v: complex) -> bool:
    """Whether v points strictly left of u, beyond rounding."""
    return cross(u, v) > EPS * abs(u) * abs(v)


def dot(u: complex, v: complex) -> float:
    """Re(conj(u) v) = u.x v.x + u.y v.y."""
    return (u.conjugate() * v).real


def mul(u, v):
    """u v for (re, im) pairs of arrays, rounded as Python's."""
    return u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0]


def _cross(u, v):
    """cross(u, v) for (re, im) pairs of arrays, rounded as Python's."""
    return u[0] * v[1] + (-u[1]) * v[0]


def in_wedge(w1, w2, c):
    """Where c lies strictly inside the wedge from w1 to w2."""
    hc = np.hypot(*c)
    return ((_cross(w1, c) > EPS * np.hypot(*w1) * hc)
            & (_cross(c, w2) > EPS * hc * np.hypot(*w2)))


def clip_cone(a1, a2, b1, b2):
    """The ccw cone (s, e) where the cones a1 -> a2 and b1 -> b2, each of
    span < pi, overlap, and where that is open beyond rounding."""
    b = _cross(a1, b1) > 0
    s = np.where(b, b1[0], a1[0]), np.where(b, b1[1], a1[1])
    b = _cross(b2, a2) > 0
    e = np.where(b, b2[0], a2[0]), np.where(b, b2[1], a2[1])
    return s, e, _cross(s, e) > EPS * np.hypot(*s) * np.hypot(*e)


def origin_to_segment(a, b):
    """Distance from the origin to the segment [a, b].  Re(conj(u) v) is
    ur vr + ui vi bit for bit, and t d, for finite d, differs from Python's
    complex(t) * d only in signed zeros, which the magnitude drops."""
    dr, di = b[0] - a[0], b[1] - a[1]
    L2 = dr * dr + di * di
    x = np.divide(-(a[0] * dr + a[1] * di), L2, out=np.zeros_like(L2),
                  where=L2 != 0.0)
    # min(1.0, max(0.0, x)) as Python picks it, and t = 0 when L2 = 0
    t = np.where(x > 0.0, x, 0.0)
    t = np.where(t < 1.0, t, 1.0)
    return np.hypot(a[0] + t * dr, a[1] + t * di)


def turn(o: complex, a: complex, b: complex) -> float:
    """cross(a - o, b - o): positive when b lies left of the ray o -> a."""
    return cross(a - o, b - o)


def angle_between(u: complex, v: complex) -> float:
    """The unsigned angle between u and v, accurate near 0 and pi."""
    w = u.conjugate() * v
    return math.atan2(abs(w.imag), w.real)


def ccw_angle(r: complex, d: complex) -> float:
    """Counterclockwise angle from ray r to direction d, in [0, 2*pi).

    A cross product below EPS |r| |d| is snapped to zero so directions
    exactly along the ray never wrap to 2*pi through rounding noise.
    """
    w = r.conjugate() * d
    cr = w.imag
    if abs(cr) < EPS * abs(w):
        cr = 0.0
    a = math.atan2(cr, w.real)
    return a + 2.0 * math.pi if a < 0 else a


@dataclass(frozen=True, slots=True)
class PlanarIsometry:
    """Orientation-preserving isometry z -> rot * z + shift, |rot| = 1."""

    rot: complex
    shift: complex

    def __call__(self, z: complex) -> complex:
        return self.rot * z + self.shift

    def compose(self, other: "PlanarIsometry") -> "PlanarIsometry":
        """self after other: (self o other)(z) = self(other(z))."""
        return PlanarIsometry(self.rot * other.rot, self(other.shift))

    def inverse(self) -> "PlanarIsometry":
        r = self.rot.conjugate()
        return PlanarIsometry(r, -(r * self.shift))

    @staticmethod
    def from_segment_match(a: complex, b: complex,
                           c: complex, d: complex) -> "PlanarIsometry":
        """The orientation-preserving isometry with a -> c and b -> d
        (|d - c| = |b - a| up to rounding)."""
        rot = (d - c) / (b - a)
        rot /= abs(rot)
        return PlanarIsometry(rot, c - rot * a)
