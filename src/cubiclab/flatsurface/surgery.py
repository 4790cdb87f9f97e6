"""Gluing flat parts along punctures by the triangle-cut construction.

At each puncture an equilateral geodesic triangle of side eps with a vertex
at the puncture is cut out; the triangle boundaries of paired punctures are
glued, with the lateral band of a triangular prism of height w in between
when the pair's weight w is positive.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from ..errors import (
    AngleClash,
    BadConeAngle,
    EpsTooLarge,
    NegativeOrderAtInterior,
    NonInvolutiveGluing,
)
from .planar import cross
from .saddles import enumerate_saddle_connections
from .subdivide import Piece, Soup, slot_partner_tag, triangle_piece
from .surface import PlanarIsometry, TriangulatedFlatSurface

WEDGE = math.pi / 3.0
# the wedge's legs run from the apex along 1 and along _LEG2
_LEG2 = cmath.rect(1.0, WEDGE)


def _rho(eps: float, alpha: float) -> float:
    """Apex distance of the base chord along the ray at fan angle alpha."""
    return eps * math.cos(WEDGE / 2.0) / math.cos(alpha - WEDGE / 2.0)


def _tau(eps: float, alpha: float) -> float:
    """Base-chord parameter (0 at the first leg, 1 at the second)."""
    pt = cmath.rect(_rho(eps, alpha), alpha)
    return abs(pt - eps) / abs(eps * _LEG2 - eps)


@dataclass
class _Carve:
    """Planned wedge cut at one puncture of one part."""

    part: int
    orbit: int
    eps: float
    ray_cuts: dict = field(default_factory=dict)    # slot -> [(param, id)]
    corner_ops: dict = field(default_factory=dict)  # triangle -> op record
    base_taus: list = field(default_factory=list)   # sorted breakpoints
    leg_a_slot: tuple | None = None  # glued slot of the first fan ray


def _point_line_dist(p, a, b) -> float:
    d = b - a
    return abs(cross(d, p - a)) / abs(d)


def plan_carve(s: TriangulatedFlatSurface, orbit: int, eps: float,
               part: int) -> _Carve:
    """Choose a wedge placement at the puncture and record all cuts."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if s.orbit_orders[orbit] <= -2:
        raise AngleClash(
            "puncture carries order-2 pole behaviour (k = -2); the surgery "
            "rejects such inputs instead of splitting the double pole")
    for sc in enumerate_saddle_connections(s, 2.0 * eps):
        if orbit in (sc.start_orbit, sc.end_orbit):
            raise EpsTooLarge(
                f"a cone point lies at distance {sc.length:.6g} < 2*eps from "
                f"puncture orbit {orbit}")

    fan = s.corner_fan(*s.vertex_orbits[orbit][0])
    angles = [s.corner_angle(t, i) for (t, i) in fan]
    last_err = None
    for rot in range(len(fan)):
        try:
            return _carve_with_rotation(s, orbit, eps, part,
                                        fan[rot:] + fan[:rot],
                                        angles[rot:] + angles[:rot])
        except ValueError as err:
            last_err = err
    raise ValueError(
        f"no wedge placement fits at orbit {orbit} with eps={eps} "
        f"(triangulation too coarse near the puncture): {last_err}")


def _carve_with_rotation(s, orbit, eps, part, fan, angs) -> _Carve:
    cum = [0.0]
    for a in angs:
        cum.append(cum[-1] + a)
    affected = [j for j in range(len(fan)) if cum[j] < WEDGE - 1e-9]
    if any(abs(cum[j] - WEDGE) < 1e-6 for j in range(1, len(fan))):
        raise ValueError("wedge boundary falls on a fan ray")
    tris = [fan[j][0] for j in affected]
    if len(set(tris)) != len(tris):
        raise ValueError("two affected corners share a triangle")
    m = affected[-1]

    carve = _Carve(part, orbit, eps)
    for j in affected:
        t, i = fan[j]
        tri = s.triangles[t]
        if eps >= 0.95 * _point_line_dist(tri[i], tri[(i + 1) % 3],
                                          tri[(i + 2) % 3]):
            raise ValueError("eps does not fit inside an affected corner")
    for j in range(m + 1):
        slot = fan[j]
        ray_len = s.edge_length(slot)
        rho = _rho(eps, cum[j])
        if rho >= 0.45 * ray_len:
            raise ValueError("a ray cut reaches too far along its fan edge")
        cid = ("p1", part) if j == 0 else ("q", part, j)
        carve.ray_cuts.setdefault(slot, []).append((rho / ray_len, cid))
        pslot = s.gluings[slot]
        carve.ray_cuts.setdefault(pslot, []).append((1.0 - rho / ray_len, cid))
    carve.leg_a_slot = s.gluings[fan[0]]
    for j in affected:
        t, i = fan[j]
        final = j == m
        op = {
            "corner": (t, i),
            "alpha_lo": cum[j],
            "alpha_hi": cum[j + 1],
            "final": final,
            "ray_lo": ("p1", part) if j == 0 else ("q", part, j),
            "ray_hi": None if final else ("q", part, j + 1),
        }
        carve.corner_ops[t] = op
    carve.base_taus = sorted({round(_tau(eps, cum[j]), 12)
                              for j in range(m + 1)} | {1.0})
    return carve


def _merge_base_taus(c1: _Carve, c2: _Carve) -> int:
    """Refine both carves of a pair to mirror-matching base partitions."""
    merged = sorted(set(c1.base_taus)
                    | {round(1.0 - t, 12) for t in c2.base_taus})
    c1.base_taus = merged
    c2.base_taus = sorted({round(1.0 - t, 12) for t in merged})
    return len(merged) - 1


def _chart_to_fan(s, t, i, alpha_lo) -> PlanarIsometry:
    """Chart-to-fan-frame isometry: apex to origin, first ray to alpha_lo."""
    tri = s.triangles[t]
    c, x = tri[i], tri[(i + 1) % 3]
    return PlanarIsometry.from_segment_match(
        c, x, 0j, cmath.rect(abs(x - c), alpha_lo))


def _apply_carve(piece: Piece, s, cv: _Carve, op) -> Piece:
    """Splice the wedge cut into a triangle's polygon piece."""
    t, i = op["corner"]
    apex_id = ("corner", t, i)
    n = len(piece.verts)
    ia = piece.index_of(apex_id)
    order = [(ia + k) % n for k in range(n)]
    if piece.verts[order[1]] != op["ray_lo"]:
        raise RuntimeError("carve splice: unexpected vertex after the apex")
    if not op["final"] and piece.verts[order[-1]] != op["ray_hi"]:
        raise RuntimeError("carve splice: unexpected vertex before the apex")

    to_chart = _chart_to_fan(s, t, i, op["alpha_lo"]).inverse()
    eps = cv.eps
    p1, p2 = complex(eps), eps * _LEG2

    def base_chart(tau):
        return to_chart(p1 + tau * (p2 - p1))

    taus12 = [round(x, 12) for x in cv.base_taus]

    def base_edge_tag(tau_low):
        return ("base", cv.part, taus12.index(round(tau_low, 12)))

    tau_lo = _tau(eps, op["alpha_lo"])
    tau_hi = 1.0 if op["final"] else _tau(eps, op["alpha_hi"])
    inner = [x for x in cv.base_taus
             if tau_lo + 1e-9 < x < tau_hi - 1e-9]

    verts, coords, tags = [], [], []

    def emit(vid, z, tag):
        verts.append(vid)
        coords.append(z)
        tags.append(tag)

    if op["final"]:
        # keep the apex; outgoing sub-edge becomes legB + base pieces
        emit(apex_id, piece.coords[ia], ("legB", cv.part))
        emit(("p2", cv.part), base_chart(1.0), base_edge_tag(
            inner[-1] if inner else tau_lo))
        walk = list(reversed(inner))
        for idx, x in enumerate(walk):
            nxt = walk[idx + 1] if idx + 1 < len(walk) else tau_lo
            emit(("b", cv.part, round(x, 12)), base_chart(x),
                 base_edge_tag(nxt))
        # continue with the original boundary from ray_lo around to the
        # incoming edge, which still ends at the apex
        for k in order[1:]:
            emit(piece.verts[k], piece.coords[k], piece.tags[k])
    else:
        # drop the apex; base pieces run from ray_hi down to ray_lo
        for k in order[1:]:
            emit(piece.verts[k], piece.coords[k], piece.tags[k])
        # the final emitted edge (ray_hi -> apex) is replaced by the base
        tags[-1] = base_edge_tag(inner[-1] if inner else tau_lo)
        walk = list(reversed(inner))
        for idx, x in enumerate(walk):
            nxt = walk[idx + 1] if idx + 1 < len(walk) else tau_lo
            emit(("b", cv.part, round(x, 12)), base_chart(x),
                 base_edge_tag(nxt))
    return Piece(verts, coords, tags)


def _cut_boundary(cv: _Carve, gid, m_base: int) -> list:
    """The tags of a part's cut boundary in walk order: leg B, the base
    pieces m-1..0, then leg A, which is the stub of the first fan ray's
    glued slot past the p1 cut."""
    return ([("legB", cv.part)]
            + [("base", cv.part, j) for j in range(m_base - 1, -1, -1)]
            + [("slot", gid, cv.leg_a_slot, ("p1", cv.part), "hi")])


def triangle_surgery_glue(parts, eps: float, weights=None,
                          ) -> TriangulatedFlatSurface:
    """Cut an equilateral triangle at each listed puncture and glue in pairs.

    ``parts`` is a flat list of (surface, puncture orbit id); entries 2i and
    2i+1 are glued together with weight ``weights[i]`` (a prism band of that
    height is inserted when the weight is positive).  Raises EpsTooLarge when
    a 2*eps ball at a puncture meets another cone point and AngleClash when
    the result would violate the cone-angle form (e.g. order-2 poles).
    """
    if len(parts) % 2 != 0 or not parts:
        raise ValueError("parts must come in glued pairs")
    n_pairs = len(parts) // 2
    if weights is None:
        weights = [0.0] * n_pairs
    if len(weights) != n_pairs:
        raise ValueError("one weight per glued pair required")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be nonnegative")

    carves = [plan_carve(s_i, orb, eps, part=idx)
              for idx, (s_i, orb) in enumerate(parts)]
    pair_sizes = [_merge_base_taus(carves[2 * p], carves[2 * p + 1])
                  for p in range(n_pairs)]

    # group parts sharing one surface object so its triangles enter once
    groups: dict[int, tuple] = {}
    part_gid = {}
    for idx, (s_i, _orb) in enumerate(parts):
        gid = id(s_i)
        groups.setdefault(gid, (s_i, []))[1].append(idx)
        part_gid[idx] = gid

    soup = Soup()
    tri_maps: dict[int, list] = {}
    for gid, (s_i, idxs) in groups.items():
        ray_cuts: dict = {}
        corner_ops: dict = {}
        for idx in idxs:
            cv = carves[idx]
            for slot, cuts in cv.ray_cuts.items():
                ray_cuts.setdefault(slot, []).extend(cuts)
            for t, op in cv.corner_ops.items():
                if t in corner_ops:
                    raise ValueError(
                        "two carves touch one triangle; move the punctures "
                        "or refine the surface")
                corner_ops[t] = (cv, op)
        for cuts in ray_cuts.values():
            cuts.sort()
        tri_maps[gid] = []
        for t in range(s_i.num_triangles):
            piece = triangle_piece(s_i, t, ray_cuts, key=gid)
            if t in corner_ops:
                cv, op = corner_ops[t]
                piece = _apply_carve(piece, s_i, cv, op)
            tri_maps[gid].append(soup.add_fan(piece))

    # a weight-0 pair glues the two cut boundaries directly, a weighted
    # pair a band between them.  A rectangle's bottom meets its boundary
    # edge reversed, so the band runs right to left along the walk and
    # takes the boundaries in reverse walk order
    pairs = {}
    for p, w in enumerate(weights):
        m_base = pair_sizes[p]
        first, second = (_cut_boundary(carves[idx], part_gid[idx], m_base)
                         for idx in (2 * p, 2 * p + 1))
        if w == 0.0:
            pairs.update(zip(first, reversed(second)))
            pairs.update(zip(reversed(second), first))
            continue
        taus = carves[2 * p].base_taus
        widths = [eps * (taus[j + 1] - taus[j]) for j in range(m_base)]
        soup.add_band([eps] + widths + [eps], w, first[::-1], second)

    def partner(tag):
        if tag in pairs:
            return pairs[tag]
        return slot_partner_tag(tag, groups[tag[1]][0].gluings)

    # surviving marked punctures (those not glued here), by position
    punctures = []
    glued = {(part_gid[idx], parts[idx][1]) for idx in range(len(parts))}
    for gid, (s_i, _idxs) in groups.items():
        for orbit in s_i.marked_punctures:
            if (gid, orbit) in glued:
                continue
            t, i = s_i.vertex_orbits[orbit][0]
            punctures.append(soup.vertex_at(tri_maps[gid][t],
                                            s_i.triangles[t][i]))

    try:
        return soup.assemble(partner, marked_punctures=punctures)
    except (BadConeAngle, NegativeOrderAtInterior, NonInvolutiveGluing) as err:
        raise AngleClash(f"glued surface fails cone-angle validation: {err}")
