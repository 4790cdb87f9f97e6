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
from .planar import EPS, ccw_angle, clip_cone, in_wedge, origin_to_segment
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

    # one step per glued slot: the inverse gluing isometry as (rot, shift)
    # and the far triangle's corners A, B, C from the entry edge A -> B;
    # corner i starts edge i, so the slot of edge C -> A is the apex corner
    step = {}
    for slot, (t2, e2) in s.gluings.items():
        inv = s.isometries[slot].inverse()
        tri2 = s.triangles[t2]
        step[slot] = (inv.rot, inv.shift, tri2[e2], tri2[(e2 + 1) % 3],
                      tri2[(e2 + 2) % 3], (t2, (e2 + 1) % 3),
                      (t2, (e2 + 2) % 3))

    for orbit in sorted(ends):
        for (t0, i0) in s.vertex_orbits[orbit]:
            tri = s.triangles[t0]
            # the developing frame z -> rot z + shift puts the start vertex
            # at the origin; frames stay (rot, shift) pairs in the loop
            rot, shift = 1 + 0j, -tri[i0]
            v1 = rot * tri[(i0 + 1) % 3] + shift
            v2 = rot * tri[(i0 + 2) % 3] + shift
            start_corner = (t0, i0)
            # the two boundary edges of the corner are themselves candidates
            record(orbit, start_corner, v1, v1,
                   (t0, (i0 + 1) % 3), v2 - v1)
            record(orbit, start_corner, v1, v2,
                   (t0, (i0 + 2) % 3), -v2)
            queue = deque()
            queue.append(((t0, (i0 + 1) % 3), rot, shift, v1, v2))
            while queue:
                if budget <= 0:
                    raise NoConvergence(
                        f"saddle-connection enumeration used its budget of "
                        f"{max_expansions} wedge expansions with "
                        f"max_length={max_length:g}; {len(found)} "
                        f"connections found so far")
                budget -= 1
                slot, rot, shift, w1, w2 = queue.popleft()
                irot, ishift, a, b, c, bc, ca = step[slot]
                # the products of PlanarIsometry.compose and __call__
                rot, shift = rot * irot, rot * ishift + shift
                A = rot * a + shift
                B = rot * b + shift
                C = rot * c + shift
                if in_wedge(w1, w2, C):
                    record(orbit, start_corner, v1, C, ca, A - C)
                for (p, q, nxt) in ((B, C, bc), (C, A, ca)):
                    sub = clip_cone(w1, w2, p, q)
                    if sub is None or origin_to_segment(p, q) > max_length:
                        continue
                    queue.append((nxt, rot, shift, *sub))
    return sorted(found.values(),
                  key=lambda sc: (sc.length, sc.directions))
