"""Gluing flat parts along punctures by the triangle-cut construction.

At each puncture an equilateral geodesic triangle of side eps with a vertex
at the puncture is cut out; the triangle boundaries of the two punctures
are glued, with the lateral band of a triangular prism of height w in
between when the weight w is positive.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field

from ..errors import (
    AngleClash,
    BadConeAngle,
    BadParameters,
    NegativeOrderAtInterior,
    NonInvolutiveGluing,
)
from .planar import cross
from .saddles import enumerate_saddle_connections
from .subdivide import (Piece, Soup, add_cut, split_piece, sub_edge,
                        triangle_piece)
from .surface import PlanarIsometry, TriangulatedFlatSurface

WEDGE = math.pi / 3.0
# a margin, not a rounding: the wedge's boundary clears every fan ray by it
_RAY_MARGIN = 1e-6
# the wedge's legs run from the apex along 1 and along _LEG2
_LEG2 = cmath.rect(1.0, WEDGE)


def _rho(eps: float, alpha: float) -> float:
    """Apex distance of the base chord along the ray at fan angle alpha."""
    return eps * math.cos(WEDGE / 2.0) / math.cos(alpha - WEDGE / 2.0)


def _tau(eps: float, alpha: float) -> float:
    """Base-chord parameter (0 at the first leg, 1 at the second)."""
    pt = cmath.rect(_rho(eps, alpha), alpha)
    return abs(pt - eps) / abs(eps * _LEG2 - eps)


def _ray_id(part: int, j: int):
    """Id of the cut on fan ray j of a part's carve; ray 0 is leg A."""
    return ("p1", part) if j == 0 else ("q", part, j)


@dataclass
class _Carve:
    """Planned wedge cut at one puncture of one part.

    The wedge meets the fan corners ``corners``; ray j, the first edge of
    corner j, leaves the puncture at fan angle ``cum[j]``.
    """

    part: int
    eps: float
    corners: list
    cum: list
    ray_cuts: dict = field(default_factory=dict)   # by subdivide.add_cut
    base_taus: list = field(default_factory=list)  # base partition 0 .. 1
    ray_k: list = field(default_factory=list)      # base index of ray j
    leg_a_slot: tuple | None = None  # glued slot of the first fan ray


def _point_line_dist(p, a, b) -> float:
    d = b - a
    return abs(cross(d, p - a)) / abs(d)


def plan_carve(s: TriangulatedFlatSurface, orbit: int, eps: float,
               part: int) -> _Carve:
    """Choose a wedge placement at the puncture and record all cuts."""
    if not eps > 0:
        raise BadParameters(f"eps must be positive, got {eps}")
    if s.orbit_orders[orbit] <= -2:
        raise AngleClash(
            "puncture carries order-2 pole behaviour (k = -2); the surgery "
            "rejects such inputs instead of splitting the double pole")
    for sc in enumerate_saddle_connections(s, 2.0 * eps):
        if orbit in (sc.start_orbit, sc.end_orbit):
            raise BadParameters(
                f"a cone point or marked puncture lies at distance "
                f"{sc.length:.6g} < 2*eps from puncture orbit {orbit}, "
                f"eps={eps}")

    fan = s.fans[orbit]
    angles = [s.corner_angle(t, i) for (t, i) in fan]
    last_err = None
    for rot in range(len(fan)):
        try:
            return _carve_with_rotation(s, eps, part,
                                        fan[rot:] + fan[:rot],
                                        angles[rot:] + angles[:rot])
        except BadParameters as err:
            last_err = err
    raise BadParameters(
        f"no wedge placement fits at orbit {orbit} with eps={eps} "
        f"(triangulation too coarse near the puncture): {last_err}")


def _carve_with_rotation(s, eps, part, fan, angs) -> _Carve:
    cum = [0.0, *itertools.accumulate(angs)]
    if any(abs(cum[j] - WEDGE) < _RAY_MARGIN for j in range(1, len(fan))):
        raise BadParameters(f"the wedge boundary pi/3 falls on a fan ray, "
                            f"at angles {cum[1:len(fan)]}")
    m = max(j for j in range(len(fan)) if cum[j] < WEDGE)
    corners = fan[:m + 1]
    if len({t for t, _i in corners}) != len(corners):
        raise BadParameters(f"affected corners share a triangle: {corners}")
    for t, i in corners:
        tri = s.triangles[t]
        if eps >= 0.95 * _point_line_dist(tri[i], tri[(i + 1) % 3],
                                          tri[(i + 2) % 3]):
            raise BadParameters(f"eps={eps} does not fit inside corner {t, i}")

    carve = _Carve(part, eps, corners, cum[:m + 1],
                   leg_a_slot=s.gluings[fan[0]])
    for j, slot in enumerate(corners):
        ray_len = s.edge_length(slot)
        rho = _rho(eps, cum[j])
        if rho >= 0.45 * ray_len:
            raise BadParameters(f"the ray cut at {rho:.6g} reaches too far "
                                f"along fan edge {slot}")
        add_cut(carve.ray_cuts, s, slot, rho / ray_len, _ray_id(part, j))
    carve.base_taus = [round(_tau(eps, a), 12) for a in carve.cum] + [1.0]
    return carve


def _merge_base_taus(c1: _Carve, c2: _Carve) -> int:
    """Refine both carves of a pair to one base partition, mirrored on the
    second, and place each carve's ray cuts on it."""
    merged = sorted(set(c1.base_taus)
                    | {round(1.0 - t, 12) for t in c2.base_taus})
    last = len(merged) - 1
    c1.ray_k = [merged.index(t) for t in c1.base_taus[:-1]]
    c2.ray_k = [last - merged.index(round(1.0 - t, 12))
                for t in c2.base_taus[:-1]]
    c1.base_taus = merged
    c2.base_taus = [round(1.0 - t, 12) for t in reversed(merged)]
    return last


def _chart_to_fan(s, t, i, alpha_lo) -> PlanarIsometry:
    """Chart-to-fan-frame isometry: apex to origin, first ray to alpha_lo."""
    tri = s.triangles[t]
    c, x = tri[i], tri[(i + 1) % 3]
    return PlanarIsometry.from_segment_match(
        c, x, 0j, cmath.rect(abs(x - c), alpha_lo))


def _apply_carve(piece: Piece, s, cv: _Carve, j: int) -> Piece:
    """Fan corner j's piece with the wedge cut out.

    In a middle corner the cut runs from ray j+1's cut down the base to ray
    j's cut.  In the last corner it runs from the apex along leg B to p2,
    then down the base to ray j's cut, and the kept piece starts at the
    apex.  A base edge ending at point k of the partition is tagged
    ("base", part, k).
    """
    t, i = cv.corners[j]
    apex, part, taus = ("corner", t, i), cv.part, cv.base_taus
    to_chart = _chart_to_fan(s, t, i, cv.cum[j]).inverse()
    p1, p2 = complex(cv.eps), cv.eps * _LEG2
    if j + 1 < len(cv.corners):
        a, top = _ray_id(part, j + 1), cv.ray_k[j + 1] - 1
        first = ("base", part, top)
    else:
        a, top, first = apex, len(taus) - 1, ("legB", part)
    k_lo = cv.ray_k[j]
    inner = [(("b", part, k), to_chart(p1 + taus[k] * (p2 - p1)))
             for k in range(top, k_lo, -1)]
    tags = [first] + [("base", part, k) for k in range(top - 1, k_lo - 1, -1)]
    kept, _wedge = split_piece(piece, a, _ray_id(part, j), tags,
                               [None] * len(tags), inner)
    r = kept.verts.index(apex) if a == apex else 0
    return Piece(kept.verts[r:] + kept.verts[:r],
                 kept.coords[r:] + kept.coords[:r],
                 kept.tags[r:] + kept.tags[:r])


def _cut_boundary(cv: _Carve, m_base: int) -> list:
    """The tags of a part's cut boundary in walk order: leg B, the base
    pieces m-1..0, then leg A, which is the stub of the first fan ray's
    glued slot past the p1 cut: the slot's highest cut, as every ray cut
    lies within 0.45 of its own edge's apex end."""
    return ([("legB", cv.part)]
            + [("base", cv.part, j) for j in range(m_base - 1, -1, -1)]
            + [sub_edge(cv.ray_cuts, cv.part, cv.leg_a_slot, 1.0)])


def triangle_surgery_glue(parts, eps: float, weights=None,
                          ) -> TriangulatedFlatSurface:
    """Cut an equilateral triangle at a puncture of each of two surfaces
    and glue the cut boundaries.

    ``parts`` is [(surface, puncture orbit id), (surface, orbit id)] with
    two distinct surface objects, and ``weights`` is None or [w]: a prism
    band of height w is inserted when w is positive.  The other marked
    punctures survive, so gluings chain.  Raises BadParameters when a
    2*eps ball at a puncture meets a cone point or marked puncture (itself
    included, along a loop) and AngleClash when the result would violate
    the cone-angle form (e.g. order-2 poles).
    """
    if len(parts) != 2:
        raise BadParameters(f"triangle surgery glues one pair of parts, "
                            f"got {len(parts)} parts")
    if parts[0][0] is parts[1][0]:
        raise BadParameters(f"triangle surgery glues two distinct surfaces, "
                            f"got 1 surface object for {len(parts)} parts")
    weights = [0.0] if weights is None else weights
    if len(weights) != 1:
        raise BadParameters(f"one pair of parts takes one weight, got "
                            f"{len(weights)}: {weights}")
    if not weights[0] >= 0:
        raise BadParameters(f"weights must be nonnegative, got {weights}")

    carves = [plan_carve(s, orbit, eps, part=idx)
              for idx, (s, orbit) in enumerate(parts)]
    m_base = _merge_base_taus(*carves)

    soup = Soup()
    punctures = []
    for cv, (s, orbit) in zip(carves, parts):
        carved = {t: j for j, (t, _i) in enumerate(cv.corners)}
        fans = []
        for t in range(s.num_triangles):
            piece = triangle_piece(s, t, cv.ray_cuts, key=cv.part)
            if t in carved:
                piece = _apply_carve(piece, s, cv, carved[t])
            try:
                fans.append(soup.add_fan(piece))
            except ValueError as err:
                if t not in carved:
                    raise
                raise BadParameters(
                    f"the wedge of part {cv.part} at puncture orbit {orbit} "
                    f"with eps={eps} leaves triangle {t} a piece no fan "
                    f"triangulates (triangulation too coarse near the "
                    f"puncture): {err}") from err
        # the marked punctures not glued here survive
        punctures += soup.carry(s, fans, s.marked_punctures - {orbit})

    # with weight 0 the two cut boundaries glue directly, else a band
    # between them.  A rectangle's bottom meets its boundary edge
    # reversed, so the band runs right to left along the walk and takes
    # the boundaries in reverse walk order
    first, second = (_cut_boundary(cv, m_base) for cv in carves)
    if weights[0] == 0.0:
        for a, b in zip(first, reversed(second)):
            soup.glue(a, b)
    else:
        taus = carves[0].base_taus
        widths = [eps * (taus[j + 1] - taus[j]) for j in range(m_base)]
        soup.add_band([eps] + widths + [eps], weights[0], first[::-1],
                      second)
    try:
        return soup.assemble({cv.part: s.gluings
                              for cv, (s, _orbit) in zip(carves, parts)},
                             marked_punctures=punctures)
    except (BadConeAngle, NegativeOrderAtInterior, NonInvolutiveGluing) as err:
        raise AngleClash(f"glued surface fails cone-angle validation: {err}")
