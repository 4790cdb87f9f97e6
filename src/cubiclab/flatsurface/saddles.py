"""Saddle connections: geodesic segments between cone points or marked
punctures with none of them in the interior, enumerated by breadth-first
unfolding with visibility wedges.

Segments are deduplicated as unoriented objects.  Since charts are only
defined up to the gluing rotations, the canonical identity of a segment is
not its raw holonomy vector but the pair of intrinsic outgoing angles at its
two endpoints (angles measured inside each vertex orbit's corner fan),
together with the endpoint orbits and the length (in units of the
surface's longest edge).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from ..errors import BadParameters, NoConvergence
from .planar import EPS, PlanarIsometry, ccw_angle, cross, dot, left_of
from .surface import TriangulatedFlatSurface


@dataclass(frozen=True)
class SaddleConnection:
    start_orbit: int
    end_orbit: int
    holonomy: complex  # in a developing chart of the start corner
    directions: tuple[float, float]  # intrinsic outgoing angles at both ends

    @property
    def length(self) -> float:
        return abs(self.holonomy)


def _cone_intersect(a1, a2, b1, b2):
    """Intersection of two ccw cones of angular span < pi, or None."""
    s = b1 if cross(a1, b1) > 0 else a1
    e = b2 if cross(b2, a2) > 0 else a2
    if not left_of(s, e):
        return None
    return s, e


def _seg_min_dist(a: complex, b: complex) -> float:
    """Distance from the origin to segment [a, b]."""
    d = b - a
    L2 = dot(d, d)
    if L2 == 0.0:
        return abs(a)
    t = min(1.0, max(0.0, -dot(a, d) / L2))
    return abs(a + t * d)


def _intrinsic(s: TriangulatedFlatSurface, corner, ray, d) -> float:
    """Fan angle of direction d leaving the vertex at ``corner``.

    ``ray`` is the developed direction of the corner's first edge and
    ``d`` the developed outgoing direction, both in the same frame.
    """
    total = float(s.orbit_angles[s.orbit_of[corner]])
    a = math.fmod(s.fan_angle[corner] + ccw_angle(ray, d), total)
    return 0.0 if a > (1.0 - EPS) * total else a


def enumerate_saddle_connections(s: TriangulatedFlatSurface, max_length: float,
                                 max_expansions: int = 2_000_000
                                 ) -> list[SaddleConnection]:
    """All saddle connections of length <= max_length, deduplicated up to
    the identification of unoriented segments.  Their endpoints are the
    cone points and the marked punctures; with neither, the list is empty.
    Tolerances scale with the surface, so a rescaled surface gives the
    rescaled connections.
    """
    if not max_length > 0:
        raise BadParameters(f"max_length must be positive, got {max_length}")
    ends = {cp.orbit for cp in s.cone_points} | s.marked_punctures
    found: dict[tuple, SaddleConnection] = {}
    budget = max_expansions
    # lengths are cut and deduplicated at EPS of the longest edge
    unit = max(s.edge_length(slot) for slot in s.gluings)
    cut = max_length + EPS * unit

    def record(origin_orbit, start_corner, start_ray, w,
               target_corner, target_ray) -> None:
        """Candidate segment from the origin to developed point w."""
        t_orbit = s.orbit_of[target_corner]
        if t_orbit not in ends:
            return
        norm = abs(w)
        if norm > cut or norm <= EPS * unit:
            return
        ang_start = _intrinsic(s, start_corner, start_ray, w)
        ang_end = _intrinsic(s, target_corner, target_ray, -w)
        pair = tuple(sorted((round(ang_start, 7), round(ang_end, 7))))
        key = (min(origin_orbit, t_orbit), max(origin_orbit, t_orbit),
               round(norm / unit, 9), pair)
        if key not in found:
            found[key] = SaddleConnection(origin_orbit, t_orbit, w,
                                          (ang_start, ang_end))

    for orbit in sorted(ends):
        for (t0, i0) in s.vertex_orbits[orbit]:
            tri = s.triangles[t0]
            # the developing frame puts the start vertex at the origin
            frame = PlanarIsometry(1 + 0j, -tri[i0])
            v1 = frame(tri[(i0 + 1) % 3])
            v2 = frame(tri[(i0 + 2) % 3])
            start_corner = (t0, i0)
            # the two boundary edges of the corner are themselves candidates
            record(orbit, start_corner, v1, v1,
                   (t0, (i0 + 1) % 3), v2 - v1)
            record(orbit, start_corner, v1, v2,
                   (t0, (i0 + 2) % 3), -v2)
            queue = deque()
            queue.append((t0, frame, (i0 + 1) % 3, (v1, v2)))
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
                A = phi2(tri2[e2])
                B = phi2(tri2[(e2 + 1) % 3])
                C = phi2(tri2[apex_idx])
                w1, w2 = wedge
                if left_of(w1, C) and left_of(C, w2):  # inside the wedge
                    record(orbit, start_corner, v1, C,
                           (t2, apex_idx), A - C)
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
