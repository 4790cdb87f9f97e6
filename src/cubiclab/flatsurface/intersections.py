"""Geometric intersection numbers of tightened geodesic polylines.

Transverse crossings are counted per triangle and deduplicated by their
arclength position along the first curve (a crossing on a shared edge is
seen from both adjacent triangles).  Collinear shared arcs are resolved by
the left-push convention: a maximal shared arc contributes one crossing
exactly when the second curve leaves it on the opposite side from which it
entered.
"""

from __future__ import annotations

import math

import numpy as np

from .geodesics import GeodesicRepresentative
from .planar import cross


def _segments_with_offsets(g: GeodesicRepresentative):
    """Per-triangle list of (entry, exit, arclength offset); zero segments
    are dropped but still advance nothing."""
    per_tri: dict[int, list] = {}
    off = 0.0
    for (t, a, b) in g.segments:
        ln = float(np.linalg.norm(b - a))
        if ln > 1e-12:
            per_tri.setdefault(t, []).append((a, b, off, ln))
        off += ln
    return per_tri, off


def geometric_intersection_count(s, g1: GeodesicRepresentative,
                                 g2: GeodesicRepresentative) -> int:
    """Number of transverse crossings of two tightened geodesics."""
    segs1, L1 = _segments_with_offsets(g1)
    segs2, L2 = _segments_with_offsets(g2)
    scale = max(1.0, L1, L2)
    tol = 1e-9 * scale

    crossings: list[float] = []   # positions along g1
    overlaps: list[tuple[float, float, int]] = []  # (lo, hi, seg2 dir sign)

    for t, lst1 in segs1.items():
        for (a2, b2, off2, ln2) in segs2.get(t, ()):
            d2 = b2 - a2
            for (a1, b1, off1, ln1) in lst1:
                d1 = b1 - a1
                cr = cross(d1, d2)
                if abs(cr) > 1e-9 * ln1 * ln2:
                    r = a2 - a1
                    t1 = cross(r, d2) / cr
                    t2 = cross(r, d1) / cr
                    if -1e-9 <= t1 <= 1 + 1e-9 and -1e-9 <= t2 <= 1 + 1e-9:
                        pos = off1 + min(max(t1, 0.0), 1.0) * ln1
                        crossings.append(pos % L1)
                    continue
                # parallel; collinear iff a2 sits on the line of segment 1
                if abs(cross(d1, a2 - a1)) > 1e-9 * ln1 * max(ln2, 1):
                    continue
                u_lo = float((a2 - a1) @ d1) / (ln1 * ln1)
                u_hi = float((b2 - a1) @ d1) / (ln1 * ln1)
                sgn = 1 if u_hi >= u_lo else -1
                lo, hi = sorted((u_lo, u_hi))
                lo, hi = max(lo, 0.0), min(hi, 1.0)
                if hi - lo > 1e-9:
                    overlaps.append(((off1 + lo * ln1) % L1,
                                     (off1 + hi * ln1) % L1, sgn))

    count = _distinct_positions(crossings, L1, tol)
    if not overlaps:
        return count

    total_overlap = sum((hi - lo) % L1 for lo, hi, _ in overlaps)
    if total_overlap >= min(L1, L2) - 10 * tol:
        # the curves coincide; no transverse crossings by the convention
        return 0
    runs = _merge_runs(overlaps, L1, tol)
    count += _overlap_crossings(s, g1, g2, runs, tol)
    return count


def _distinct_positions(positions, period, tol) -> int:
    if not positions:
        return 0
    pts = sorted(p % period for p in positions)
    clusters = 1
    for prev, cur in zip(pts, pts[1:]):
        if cur - prev > tol:
            clusters += 1
    # wrap-around cluster
    if clusters > 1 and (pts[0] + period) - pts[-1] <= tol:
        clusters -= 1
    return clusters


def _merge_runs(overlaps, period, tol):
    ivs = sorted((lo, hi) for lo, hi, _ in overlaps)
    merged = []
    for lo, hi in ivs:
        if merged and lo <= merged[-1][1] + tol:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    if len(merged) > 1 and merged[0][0] + period <= merged[-1][1] + tol:
        merged[0][0] = merged[-1][0] - period
        merged.pop()
    return [(lo, hi) for lo, hi in merged]


def _point_at(g_segments_flat, pos, period):
    pos %= period
    for (t, a, b, off, ln) in g_segments_flat:
        if off - 1e-12 <= pos <= off + ln + 1e-12:
            u = (pos - off) / ln
            return t, a + u * (b - a), (b - a) / ln
    raise RuntimeError("position outside the curve")


def _flat_segments(g):
    out = []
    off = 0.0
    for (t, a, b) in g.segments:
        ln = float(np.linalg.norm(b - a))
        if ln > 1e-12:
            out.append((t, a, b, off, ln))
        off += ln
    return out, off


def _overlap_crossings(s, g1, g2, runs, tol) -> int:
    """Left-push rule: one crossing per shared arc that g2 traverses from
    one side of g1 to the other."""
    flat1, L1 = _flat_segments(g1)
    flat2, L2 = _flat_segments(g2)
    extra = 0
    for lo, hi in runs:
        t_lo, p_lo, d1_lo = _point_at(flat1, lo, L1)
        t_hi, p_hi, d1_hi = _point_at(flat1, hi, L1)
        side_in = _g2_side(flat2, t_lo, p_lo, d1_lo, entering=True, tol=tol)
        side_out = _g2_side(flat2, t_hi, p_hi, d1_hi, entering=False, tol=tol)
        if side_in is not None and side_out is not None \
                and side_in * side_out < 0:
            extra += 1
    return extra


def _g2_side(flat2, tri, point, d1, entering, tol):
    """Side of g1 on which g2 sits just before/after a shared-arc endpoint."""
    for (t, a, b, off, ln) in flat2:
        if t != tri:
            continue
        if entering and np.linalg.norm(b - point) <= 10 * tol:
            probe = a
        elif not entering and np.linalg.norm(a - point) <= 10 * tol:
            probe = b
        else:
            continue
        sgn = cross(d1, probe - point)
        if abs(sgn) > tol:
            return 1 if sgn > 0 else -1
    return None
