"""Saddle connections: geodesic segments between cone points or marked
punctures with none of them in the interior, enumerated by breadth-first
unfolding with visibility wedges.

Segments are deduplicated as unoriented objects.  Since charts are only
defined up to the gluing rotations, the canonical identity of a segment is
not its raw holonomy vector but the pair of intrinsic outgoing angles at its
two endpoints (angles measured inside each vertex orbit's corner fan),
together with the endpoint orbits and the length (in units of the
surface's longest edge).

Unfolding is breadth first, a level at a time: one pass of the array forms
of ``planar.py`` expands the wedges of every start corner, grouped by corner
in the order of a first-in first-out queue per corner, each wedge's children
through B -> C ahead of C -> A.  Records follow in that queue's order, corner
by corner, so of equal segments the first found is kept.  Expansions are
charged to ``max_expansions`` a level at a time, raising once they exceed it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import BadParameters, NoConvergence
from .planar import (EPS, ccw_angle, clip_cone, in_wedge, mul,
                     origin_to_segment)
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


def _level(steps, nxt, max_length, hits, who, slot, frame, w1, w2):
    """Expand a level: apex rows onto ``hits``, the next level returned."""
    g = steps[:, slot]
    # the products of PlanarIsometry.compose and __call__: rot * irot and
    # rot * ishift + shift, then rot * z + shift for z = B, C, A
    new = np.array(mul(frame[:, :1], (g[0:2], g[5:7])))
    new[:, 1] += frame[:, 1]
    re, im = mul(new[:, :1], (g[2:5], g[7:10]))
    del g  # the level's largest temporary, freed before the predicates
    re += new[0, 1]
    im += new[1, 1]
    nx = nxt[:, slot]
    hit = in_wedge(w1, w2, (re[1], im[1]))
    hits.append(np.array((who, nx[1], re[2], im[2], re[1], im[1]))[:, hit])
    # the portals B -> C and C -> A; read wedge by wedge, in queue order
    p, q = (re[0:2], im[0:2]), (re[1:3], im[1:3])
    near = ~(origin_to_segment(p, q) > max_length)
    lo, hi, open_ = clip_cone(w1, w2, p, q)
    keep = np.flatnonzero((open_ & near).T)
    parent, child = keep >> 1, keep & 1
    return (who[parent], nx[child, parent], new[:, :, parent],
            *(np.array([a[child, parent] for a in r]) for r in (lo, hi)))


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
    # lengths are cut and deduplicated at EPS of the longest edge
    unit = max(s.edge_length(slot) for slot in s.gluings)
    cut = max_length + EPS * unit

    def record(origin_orbit, start_corner, start_ray, w,
               target_corner, target_ray) -> None:
        """Candidate segment from the origin to developed point w."""
        t_orbit, norm = s.orbit_of[target_corner], abs(w)
        if t_orbit not in ends or norm > cut or norm <= EPS * unit:
            return
        ang_start = _intrinsic(s, start_corner, start_ray, w)
        ang_end = _intrinsic(s, target_corner, target_ray, -w)
        pair = tuple(sorted((round(ang_start, 7), round(ang_end, 7))))
        key = (min(origin_orbit, t_orbit), max(origin_orbit, t_orbit),
               round(norm / unit, 9), pair)
        if key not in found:
            found[key] = SaddleConnection(origin_orbit, t_orbit, w,
                                          (ang_start, ang_end))

    # by slot number 3 t + e: the inverse gluing (rot, shift), the far
    # corners B, C, A from the entry edge A -> B (re, then im) and the slots
    # of the edges B -> C and C -> A, the latter also the apex's corner
    steps, nxt = [], []
    for slot, (t2, e2) in sorted(s.gluings.items()):
        inv, far = s.isometries[slot].inverse(), s.triangles[t2]
        zs = [inv.rot, inv.shift, *(far[(e2 + k) % 3] for k in (1, 2, 0))]
        steps.append([z.real for z in zs] + [z.imag for z in zs])
        nxt.append([3 * t2 + (e2 + 1) % 3, 3 * t2 + (e2 + 2) % 3])
    steps, nxt = np.array(steps).T.copy(), np.array(nxt).T.copy()
    # a wedge: its start corner's index, the slot it enters through, the
    # real and imaginary parts of its frame (rot, shift) and its rays w1, w2
    starts = []
    for orbit in sorted(ends):
        for (t0, i0) in s.vertex_orbits[orbit]:
            tri = s.triangles[t0]
            # the frame z -> rot z + shift puts the start vertex at the origin
            rot, shift = 1 + 0j, -tri[i0]
            starts.append((orbit, (t0, i0), 3 * t0 + (i0 + 1) % 3, rot, shift,
                           rot * tri[(i0 + 1) % 3] + shift,
                           rot * tri[(i0 + 2) % 3] + shift))
    z = np.array([[[c.real for c in st[3:]], [c.imag for c in st[3:]]]
                  for st in starts]).reshape(-1, 2, 4).T
    level = (np.arange(len(starts)), np.array([st[2] for st in starts]),
             z[:2].transpose(1, 0, 2), z[2], z[3])
    hits, spent = [np.empty((6, 0))], 0  # (start corner, apex slot, A, C)
    while (n := len(level[0])) and (spent := spent + n) <= max_expansions:
        level = _level(steps, nxt, max_length, hits, *level)
    # in the queue's order: each corner's two edges, then its apexes
    hits = np.concatenate(hits, axis=1)
    for k, (orbit, (t0, i0), *_, v1, v2) in enumerate(starts):
        record(orbit, (t0, i0), v1, v1, (t0, (i0 + 1) % 3), v2 - v1)
        record(orbit, (t0, i0), v1, v2, (t0, (i0 + 2) % 3), -v2)
        for _k, apex, ar, ai, cr, ci in hits[:, hits[0] == k].T.tolist():
            record(orbit, (t0, i0), v1, complex(cr, ci),
                   divmod(int(apex), 3), complex(ar - cr, ai - ci))
    if spent > max_expansions:
        raise NoConvergence(
            f"saddle-connection enumeration used its budget of "
            f"{max_expansions} wedge expansions with "
            f"max_length={max_length:g}; {len(found)} "
            f"connections found so far")
    return sorted(found.values(),
                  key=lambda sc: (sc.length, sc.directions))
