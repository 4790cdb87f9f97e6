"""Geometric intersection numbers of tightened geodesic polylines.

At least one of the two geodesics must be nonsingular.  Such a geodesic is
a cylinder core and meets no cone point, so the curves meet in three ways
only: transverse crossings inside or on the boundary of a triangle, found
per triangle; meetings at a vertex, which is flat (angle 2*pi) and where two
geodesics cross, read from the pinned params; and collinear runs, which
make the two one closed curve, whose count is 0.  A segment along an edge
is listed in both triangles of that edge, so that two lines running along
one edge from opposite sides are compared.

A crossing is a pair of arclength positions, one along each curve; two
crossings are the same only when both positions agree.  A curve that
passes twice through one point of the other crosses it twice there, as a
k-fold class does at each of its crossings.
"""

from __future__ import annotations

from ..errors import BadParameters, NotNonsingular
from .geodesics import GeodesicRepresentative, pinned_corner
from .planar import EPS, cross, dot


def _trace(g: GeodesicRepresentative):
    """(triangle, entry, exit, arclength offset) for every segment longer
    than EPS of the length, a segment along an edge also in the glued
    triangle's chart; and (vertex orbit, arclength offset) of every pin."""
    s = g.surface
    segs, pins, off = [], [], 0.0
    for k, (t, a, b) in enumerate(g.segments):
        ln = abs(b - a)
        i = pinned_corner(*s.partner_param(g.crossings[k - 1],
                                           g.params[k - 1]))
        j = pinned_corner(g.crossings[k], g.params[k])
        if ln > EPS * g.length:
            segs.append((t, a, b, off))
            if i is not None and j is not None:  # along an edge
                e = i if j == (i + 1) % 3 else j
                iso = s.isometries[(t, e)]
                segs.append((s.gluings[(t, e)][0], iso(a), iso(b), off))
        off += ln
        if j is not None:
            pins.append((s.orbit_of[(t, j)], off))
    return segs, pins


def geometric_intersection_count(g1: GeodesicRepresentative,
                                 g2: GeodesicRepresentative) -> int:
    """Number of crossings of two tightened geodesics on one surface, one
    of them nonsingular."""
    if g1.surface is not g2.surface:
        raise BadParameters("the geodesics lie on different surfaces, of "
                            f"{g1.surface.num_triangles} and "
                            f"{g2.surface.num_triangles} triangles")
    if g1.cone_visits and g2.cone_visits:
        o1, o2 = (sorted({v.orbit for v in g.cone_visits}) for g in (g1, g2))
        raise NotNonsingular(
            "intersection counts need one nonsingular geodesic; both pass "
            f"through cone points (orbits {o1} and {o2})")
    (segs1, pins1), (segs2, pins2) = _trace(g1), _trace(g2)
    L1, L2 = g1.length, g2.length
    tol = EPS * max(L1, L2)
    by_tri: dict[int, list] = {}
    for seg in segs2:
        by_tri.setdefault(seg[0], []).append(seg)

    found = [(p1, p2) for o1, p1 in pins1 for o2, p2 in pins2 if o1 == o2]
    for t, a1, b1, off1 in segs1:
        d1 = b1 - a1
        ln1 = abs(d1)
        for _t, a2, b2, off2 in by_tri.get(t, ()):
            d2 = b2 - a2
            ln2 = abs(d2)
            r = a2 - a1
            cr = cross(d1, d2)
            if abs(cr) > EPS * ln1 * ln2:
                t1, t2 = cross(r, d2) / cr, cross(r, d1) / cr
                if -EPS <= t1 <= 1 + EPS and -EPS <= t2 <= 1 + EPS:
                    found.append((off1 + t1 * ln1, off2 + t2 * ln2))
            elif abs(cross(d1, r)) <= tol * ln1:
                # collinear: a shared run makes the two one closed curve
                u, v = sorted((dot(r, d1) / ln1, dot(b2 - a1, d1) / ln1))
                if min(v, ln1) - max(u, 0.0) > tol:
                    return 0

    def near(p, q, period):
        d = (p - q) % period
        return min(d, period - d) <= tol

    kept: list[tuple[float, float]] = []
    for p1, p2 in found:
        if not any(near(p1, q1, L1) and near(p2, q2, L2) for q1, q2 in kept):
            kept.append((p1, p2))
    return len(kept)
