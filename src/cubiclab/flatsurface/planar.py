"""Planar geometry in complex numbers, shared by the flat-surface modules.

A point or vector of a chart is a Python ``complex``.  The flat metric
|q|^(2/3) comes from natural coordinates w with dw^3 = q, and every chart
change w -> zeta w + c is one ``PlanarIsometry``.  The saddle enumerator's
inner loop alone carries its frames as bare (rot, shift) pairs, composed
with the same two products as ``PlanarIsometry.compose``.  Every product
with a conjugate is written in this module.

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


def in_wedge(w1: complex, w2: complex, c: complex) -> bool:
    """left_of(w1, c) and left_of(c, w2), fused: c lies strictly inside
    the wedge from w1 to w2."""
    return ((w1.conjugate() * c).imag > EPS * abs(w1) * abs(c)
            and (c.conjugate() * w2).imag > EPS * abs(c) * abs(w2))


def clip_cone(a1: complex, a2: complex, b1: complex, b2: complex):
    """The ccw cone (s, e) where the cones a1 -> a2 and b1 -> b2, each of
    span < pi, overlap beyond rounding, or None."""
    s = b1 if (a1.conjugate() * b1).imag > 0 else a1
    e = b2 if (b2.conjugate() * a2).imag > 0 else a2
    if (s.conjugate() * e).imag > EPS * abs(s) * abs(e):
        return s, e
    return None


def origin_to_segment(a: complex, b: complex) -> float:
    """Distance from the origin to the segment [a, b]."""
    d = b - a
    L2 = (d.conjugate() * d).real
    if L2 == 0.0:
        return abs(a)
    t = min(1.0, max(0.0, -(a.conjugate() * d).real / L2))
    return abs(a + t * d)


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
