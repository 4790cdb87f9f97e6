"""Saddle connections: geodesic segments between cone points with no cone
point in the interior, enumerated by breadth-first unfolding with visibility
wedges.

Segments are deduplicated as unoriented objects.  Since charts are only
defined up to the gluing rotations, the canonical identity of a segment is
not its raw holonomy vector but the pair of intrinsic outgoing angles at its
two endpoints (angles measured inside each vertex orbit's corner fan),
together with the endpoint orbits and the length.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..errors import NoConvergence
from .planar import cross
from .surface import PlanarIsometry, TriangulatedFlatSurface


@dataclass(frozen=True)
class SaddleConnection:
    start_orbit: int
    end_orbit: int
    holonomy: tuple[float, float]  # in a developing chart of the start corner
    directions: tuple[float, float]  # intrinsic outgoing angles at both ends

    @property
    def length(self) -> float:
        return math.hypot(*self.holonomy)


def _in_cone(d, w1, w2, tol=1e-12) -> bool:
    """Whether direction d lies strictly inside the ccw cone (w1, w2)."""
    return cross(w1, d) > tol and cross(d, w2) > tol


def _cone_intersect(a1, a2, b1, b2):
    """Intersection of two ccw cones of angular span < pi, or None."""
    s = b1 if cross(a1, b1) > 0 else a1
    e = b2 if cross(b2, a2) > 0 else a2
    if cross(s, e) <= 1e-14:
        return None
    return s, e


def _seg_min_dist(a, b) -> float:
    """Distance from the origin to segment [a, b]."""
    d = b - a
    L2 = float(d @ d)
    if L2 == 0.0:
        return float(np.linalg.norm(a))
    t = min(1.0, max(0.0, float(-(a @ d)) / L2))
    return float(np.linalg.norm(a + t * d))


def _ccw_angle(r, d) -> float:
    """Counterclockwise angle from ray r to direction d, in [0, 2*pi).

    A vanishing cross product is snapped to zero so directions exactly
    along the ray never wrap to 2*pi through rounding noise.
    """
    cr = cross(r, d)
    dt = float(np.dot(r, d))
    if abs(cr) < 1e-9 * math.hypot(cr, dt):
        cr = 0.0
    a = math.atan2(cr, dt)
    return a + 2.0 * math.pi if a < 0 else a


class _FanTable:
    """Cumulative corner angles around each vertex orbit."""

    def __init__(self, s: TriangulatedFlatSurface):
        self.s = s
        self.cum: dict[tuple[int, int], float] = {}
        for orbit, corners in enumerate(s.vertex_orbits):
            fan = s.corner_fan(*corners[0])
            acc = 0.0
            for (t, i) in fan:
                self.cum[(t, i)] = acc
                acc += s.corner_angle(t, i)

    def intrinsic(self, corner, ray, d) -> float:
        """Fan angle of direction d leaving the vertex at ``corner``.

        ``ray`` is the developed direction of the corner's first edge and
        ``d`` the developed outgoing direction, both in the same frame.
        """
        total = float(self.s.orbit_angles[self.s.orbit_of[corner]])
        a = self.cum[corner] + _ccw_angle(ray, d)
        a = math.fmod(a, total)
        if a > total - 1e-9:
            a = 0.0
        return a


def enumerate_saddle_connections(s: TriangulatedFlatSurface, max_length: float,
                                 max_expansions: int = 2_000_000
                                 ) -> list[SaddleConnection]:
    """All saddle connections of length <= max_length, deduplicated up to
    the identification of unoriented segments.  Returns an empty list when
    the surface has no cone points.
    """
    if max_length <= 0:
        raise ValueError("max_length must be positive")
    cone_orbits = {cp.orbit for cp in s.cone_points}
    fans = _FanTable(s)
    found: dict[tuple, SaddleConnection] = {}
    budget = max_expansions

    def record(origin_orbit, start_corner, start_ray, w,
               target_corner, target_ray, frame_pos) -> None:
        """Candidate segment from the origin to developed point w."""
        t_orbit = s.orbit_of[target_corner]
        if t_orbit not in cone_orbits:
            return
        norm = float(np.linalg.norm(w))
        if norm > max_length + 1e-12 or norm <= 1e-12:
            return
        ang_start = fans.intrinsic(start_corner, start_ray, w)
        ang_end = fans.intrinsic(target_corner, target_ray, frame_pos - w)
        pair = tuple(sorted((round(ang_start, 7), round(ang_end, 7))))
        key = (min(origin_orbit, t_orbit), max(origin_orbit, t_orbit),
               round(norm, 9), pair)
        if key not in found:
            found[key] = SaddleConnection(origin_orbit, t_orbit,
                                          (float(w[0]), float(w[1])),
                                          (ang_start, ang_end))

    for cp in s.cone_points:
        for (t0, i0) in s.vertex_orbits[cp.orbit]:
            tri = s.triangles[t0]
            shift = PlanarIsometry(0.0, -float(tri[i0][0]), -float(tri[i0][1]))
            v1 = shift.apply(tri[(i0 + 1) % 3])
            v2 = shift.apply(tri[(i0 + 2) % 3])
            start_corner = (t0, i0)
            # the two boundary edges of the corner are themselves candidates
            record(cp.orbit, start_corner, v1, v1,
                   (t0, (i0 + 1) % 3), v2 - v1, np.zeros(2))
            record(cp.orbit, start_corner, v1, v2,
                   (t0, (i0 + 2) % 3), shift.apply(tri[i0]) - v2, np.zeros(2))
            queue = deque()
            queue.append((t0, shift, (i0 + 1) % 3, (v1, v2)))
            while queue:
                if budget <= 0:
                    raise NoConvergence(
                        f"saddle-connection enumeration used its budget of "
                        f"{max_expansions} wedge expansions with "
                        f"max_length={max_length:g}; {len(found)} "
                        f"connections found so far")
                budget -= 1
                t, phi, e_in, wedge = queue.popleft()
                t2, e2 = s.gluings[(t, e_in)]
                phi2 = phi.compose(s.isometries[(t, e_in)].inverse())
                tri2 = s.triangles[t2]
                apex_idx = (e2 + 2) % 3
                A = phi2.apply(tri2[e2])
                B = phi2.apply(tri2[(e2 + 1) % 3])
                C = phi2.apply(tri2[apex_idx])
                w1, w2 = wedge
                if _in_cone(C, w1, w2):
                    record(cp.orbit, start_corner, v1, C,
                           (t2, apex_idx), A - C, np.zeros(2))
                # far edges: B -> C is edge (e2+1)%3, C -> A is edge (e2+2)%3
                for (p, q, e_next) in ((B, C, (e2 + 1) % 3),
                                       (C, A, (e2 + 2) % 3)):
                    sub = _cone_intersect(w1, w2, p, q)
                    if sub is None:
                        continue
                    if _seg_min_dist(p, q) > max_length:
                        continue
                    queue.append((t2, phi2, e_next, sub))
    return sorted(found.values(),
                  key=lambda sc: (sc.length, sc.directions))
