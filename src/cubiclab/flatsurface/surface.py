"""Flat metrics with cone singularities as glued Euclidean triangle complexes.

A surface is a finite list of planar triangles together with an involutive
pairing of edge slots.  Each pairing carries the orientation-preserving planar
isometry identifying the two edge charts, so the complex can be developed
triangle by triangle.  Cone data is derived from vertex-orbit angle sums and
validated against the admissible angles 2*pi*(1 + k/3), k >= -2 an integer,
with k < 0 allowed only at marked punctures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import (
    BadConeAngle,
    BadParameters,
    EdgeLengthMismatch,
    NegativeOrderAtInterior,
    NonInvolutiveGluing,
)
from .planar import PlanarIsometry, angle_between, turn

# Checks on a surface handed in, not rounding decisions: edge lengths and
# triangle areas relative to its size, and how near each cone order k must
# be to a whole number
GEOM_TOL = 1e-9
_ORDER_TOL = 1e-8

Slot = tuple[int, int]  # (triangle index, edge index); edge e runs v[e] -> v[e+1]


@dataclass(frozen=True)
class ConePoint:
    """A vertex orbit carrying a cone angle c = 2*pi*(1 + k/3)."""

    orbit: int
    angle: float
    order: int  # the integer k


class TriangulatedFlatSurface:
    """A closed flat cone surface encoded as glued Euclidean triangles.

    ``triangles[t]`` holds the three corners of triangle t, counterclockwise,
    as complex numbers in its own chart, and ``gluings`` lists (slot, slot)
    pairs, each edge slot once.  Instances are immutable; all
    derived combinatorics (vertex orbits, cone points, Euler characteristic)
    are computed at construction time and the constructor raises if any
    invariant fails.
    """

    def __init__(self, triangles, gluings, marked_punctures=()):
        tris = [tuple(map(complex, t)) for t in triangles]
        for idx, t in enumerate(tris):
            if len(t) != 3:
                raise BadParameters(f"triangle {idx} has {len(t)} corners")
            longest = max(abs(t[1] - t[0]), abs(t[2] - t[1]),
                          abs(t[0] - t[2]))
            if _signed_area(t) <= GEOM_TOL * longest ** 2:
                raise BadParameters(
                    f"triangle {idx} is degenerate or not counterclockwise: "
                    f"{t}")
        self.triangles: list[tuple[complex, complex, complex]] = tris

        self.gluings: dict[Slot, Slot] = {}
        self.isometries: dict[Slot, PlanarIsometry] = {}
        self._install_gluings(gluings)
        self._check_edges()

        self._build_orbits()
        # punctures may be given as orbit ids or as (triangle, corner) pairs
        resolved = set()
        for p in marked_punctures:
            if isinstance(p, (tuple, list)):
                resolved.add(self.orbit_of[(int(p[0]), int(p[1]))])
            else:
                p = int(p)
                if not 0 <= p < len(self.vertex_orbits):
                    raise BadParameters(
                        f"marked puncture {p} is not a vertex orbit id")
                resolved.add(p)
        self.marked_punctures = frozenset(resolved)
        self._check_cone_angles()

    # -- construction helpers ---------------------------------------------

    def _install_gluings(self, gluings) -> None:
        pairs: dict[Slot, Slot] = {}
        for a, b in gluings:
            a = (int(a[0]), int(a[1]))
            b = (int(b[0]), int(b[1]))
            for s in (a, b):
                if not (0 <= s[0] < len(self.triangles) and 0 <= s[1] < 3):
                    raise BadParameters(f"gluing references invalid slot {s}")
            if a == b:
                raise NonInvolutiveGluing(f"slot {a} glued to itself")
            if a in pairs and pairs[a] != b:
                raise NonInvolutiveGluing(f"slot {a} glued twice")
            if b in pairs and pairs[b] != a:
                raise NonInvolutiveGluing(f"slot {b} glued twice")
            pairs[a] = b
            pairs[b] = a

        all_slots = {(t, e) for t in range(len(self.triangles)) for e in range(3)}
        missing = all_slots - set(pairs)
        if missing:
            raise NonInvolutiveGluing(
                f"{len(missing)} edge slots unglued, e.g. {sorted(missing)[0]}")

        self.gluings = pairs
        for slot, partner in pairs.items():
            a, b = self.edge_endpoints(slot)
            c, d = self.edge_endpoints(partner)
            self.isometries[slot] = PlanarIsometry.from_segment_match(
                a, b, d, c)

    def _check_edges(self) -> None:
        for slot, partner in self.gluings.items():
            if slot > partner:
                continue
            la = self.edge_length(slot)
            lb = self.edge_length(partner)
            if abs(la - lb) > GEOM_TOL * max(la, lb):
                raise EdgeLengthMismatch(
                    f"edges {slot} (len {la:.12g}) and {partner} "
                    f"(len {lb:.12g}) differ beyond tolerance")

    def _build_orbits(self) -> None:
        """Walk each vertex fan once, counterclockwise from its least corner.

        ``fans[o]`` lists orbit o's corners in ccw order and
        ``fan_angle[c]`` is the angle from the fan's first ray to corner c.
        Orbits are numbered by their least corners.
        """
        self.fans: list[list[Slot]] = []
        self.fan_angle: dict[Slot, float] = {}
        self.orbit_of: dict[Slot, int] = {}
        for start in ((t, i) for t in range(len(self.triangles))
                      for i in range(3)):
            if start in self.orbit_of:
                continue
            fan, acc, corner = [], 0.0, start
            while corner not in self.orbit_of:
                self.orbit_of[corner] = len(self.fans)
                self.fan_angle[corner] = acc
                acc += self.corner_angle(*corner)
                fan.append(corner)
                # the edge ending at the vertex is glued to the next ray
                t, i = corner
                corner = self.gluings[(t, (i + 2) % 3)]
            self.fans.append(fan)
        self.vertex_orbits: list[list[Slot]] = [sorted(f) for f in self.fans]
        self.orbit_angles = np.array(
            [sum(self.corner_angle(t, i) for (t, i) in orbit)
             for orbit in self.vertex_orbits])

    def _check_cone_angles(self) -> None:
        self.orbit_orders: list[int] = []
        cone_points: list[ConePoint] = []
        for idx, angle in enumerate(self.orbit_angles):
            k_real = 3.0 * (angle / (2.0 * math.pi) - 1.0)
            k = round(k_real)
            if abs(k_real - k) > _ORDER_TOL or k < -2:
                raise BadConeAngle(
                    f"vertex orbit {idx} has angle {angle:.12g} "
                    f"(k = {k_real:.6g}), not of the form 2*pi*(1 + k/3)")
            if k < 0 and idx not in self.marked_punctures:
                raise NegativeOrderAtInterior(
                    f"vertex orbit {idx} has order k = {k} but is not a "
                    f"marked puncture")
            self.orbit_orders.append(int(k))
            if k != 0:
                cone_points.append(ConePoint(idx, float(angle), int(k)))
        self.cone_points: list[ConePoint] = cone_points

    # -- basic geometry -----------------------------------------------------

    def edge_endpoints(self, slot: Slot) -> tuple[complex, complex]:
        t, e = slot
        tri = self.triangles[t]
        return tri[e], tri[(e + 1) % 3]

    def edge_length(self, slot: Slot) -> float:
        a, b = self.edge_endpoints(slot)
        return abs(b - a)

    def edge_point(self, slot: Slot, u: float) -> complex:
        a, b = self.edge_endpoints(slot)
        return a + u * (b - a)

    def corner_angle(self, t: int, i: int) -> float:
        tri = self.triangles[t]
        return angle_between(tri[(i + 1) % 3] - tri[i],
                             tri[(i + 2) % 3] - tri[i])

    def partner_param(self, slot: Slot, u: float) -> tuple[Slot, float]:
        """The same surface point seen from the glued slot."""
        return self.gluings[slot], 1.0 - u

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    @property
    def num_edges(self) -> int:
        return 3 * len(self.triangles) // 2

    @property
    def euler_characteristic(self) -> int:
        return len(self.vertex_orbits) - self.num_edges + len(self.triangles)

    def total_cone_order(self) -> int:
        return sum(self.orbit_orders)

    def scaled(self, factor: float) -> "TriangulatedFlatSurface":
        """A copy with all lengths multiplied by factor > 0."""
        if not factor > 0:
            raise BadParameters(f"scale factor must be positive, got {factor}")
        tris = [[factor * z for z in t] for t in self.triangles]
        return TriangulatedFlatSurface(tris, self.gluings.items(),
                                       marked_punctures=self.marked_punctures)

    def __repr__(self) -> str:
        return (f"TriangulatedFlatSurface({self.num_triangles} triangles, "
                f"chi={self.euler_characteristic}, "
                f"{len(self.cone_points)} cone points)")


def _signed_area(tri) -> float:
    return 0.5 * turn(*tri)


def area(s: TriangulatedFlatSurface) -> float:
    """Total area: sum of triangle areas by the shoelace formula."""
    return float(sum(_signed_area(t) for t in s.triangles))


def gauss_bonnet_defect(s: TriangulatedFlatSurface) -> float:
    """2*pi*chi(S) minus the sum of curvature defects 2*pi - c(x); zero for
    every valid flat cone surface."""
    defect_sum = sum(2.0 * math.pi - a for a in s.orbit_angles)
    return 2.0 * math.pi * s.euler_characteristic - defect_sum
