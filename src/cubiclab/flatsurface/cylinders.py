"""Flat cylinders: detection of the maximal parallel family around a
nonsingular closed geodesic, and insertion of a flat cylinder of given
height along it.

In a developed strip whose holonomy is a translation by d, the lines
parallel to d that cross every portal are those with offset
nu = cross(d, P) strictly between the highest right end and the lowest
left end.  The width of that interval does not depend on the development
frame, so the height of a cylinder is a sum of widths, one per strip its
family passes through.  A rise measures the current strip and moves it
past its far level: a slide across the flat vertex found there.  A
cylinder is bounded on a side by the first level holding a cone point,
and is closed (the whole of a cone-free component, as on a torus) when
the core's crossing word comes back.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import BadParameters, NoConvergence, NotCylindrical, \
    NotNonsingular
from .geodesics import (
    GeodesicRepresentative,
    HomotopyClassPath,
    _Strip,
    is_translation,
    tighten_geodesic,
)
from .planar import EPS, dot
from .subdivide import Soup, add_cut, split_piece, sub_edge, triangle_piece
from .surface import TriangulatedFlatSurface

# rises one sweep may take before it gives up
_MAX_RISES = 10_000


@dataclass(frozen=True)
class FlatCylinder:
    """A maximal Euclidean cylinder swept by parallel closed geodesics.

    ``closed`` marks the case where the parallel family wraps a cone-free
    direction (the cylinder is the whole component and has no boundary).
    The bounding chains are recorded through the cone orbits met by the
    two bounding translates.
    """

    core: HomotopyClassPath
    circumference: float
    height: float
    closed: bool
    boundary_orbits: tuple[tuple[int, ...], tuple[int, ...]]


def _family(st: _Strip):
    """The strip's portal offsets nu and the interval (lo, hi) of the
    parallel family, max nu(right ends) < nu < min nu(left ends), with the
    tolerance at which two levels match: EPS of the largest offset."""
    if not is_translation(st.holonomy):
        raise NotCylindrical("strip holonomy is not a translation")
    nus, lo, hi = st.family()
    return nus, lo, hi, EPS * max(abs(v) for ab in nus for v in ab)


def _rise(st: _Strip, side: int):
    """Move the strip past the far level of its family on one side.

    Returns (width of the family, cone orbits at the far level).  With no
    cone point there, the params go onto that level and one group of
    crossings pinned at their far ends slides across its vertex; the strip
    is then the next one on that side, of zero width while the level holds
    further vertices.
    """
    nus, lo, hi, tol = _family(st)
    level, end = (hi, 1) if side > 0 else (lo, 0)
    at_level = {k for k, ab in enumerate(nus) if abs(ab[end] - level) <= tol}
    s = st.s
    orbits = {s.orbit_of[(t, (e + end) % 3)]
              for t, e in (st.crossings[k] for k in at_level)}
    cones = tuple(sorted(o for o in orbits if s.orbit_orders[o] != 0))
    if not cones:
        st.params = [float(end) if k in at_level
                     else min(1.0, max(0.0, (level - a) / (b - a)))
                     for k, (a, b) in enumerate(nus)]
        st.slide(next(run for run, *_angles in st.pivots()
                      if st.params[run[0]] == end))
    return hi - lo, cones


def _core_strip(s: TriangulatedFlatSurface,
                g: GeodesicRepresentative) -> _Strip:
    """The strip of the parallel family that g belongs to.

    A geodesic through flat vertices comes in a strip of zero width; it
    rises into the family above, and only then are the params put on the
    middle line.  A crossing word that is a proper cyclic power belongs to
    a class traversing its cylinder more than once.
    """
    st = _Strip(s, g.crossings, g.params)
    for rises in range(_MAX_RISES):
        nus, lo, hi, tol = _family(st)
        if hi - lo > tol:
            break
        _rise(st, +1)
    else:
        raise NoConvergence(f"core strip still of zero width after "
                            f"{_MAX_RISES} rises")
    if rises:
        st.centre_family(tol)
    w = st.crossings
    n = len(w)
    period = next(p for p in range(1, n + 1)
                  if n % p == 0 and w[p:] + w[:p] == w)
    if period < n:
        raise NotCylindrical(
            f"core class traverses its cylinder {n // period} times: its "
            f"{n} crossings repeat a primitive word of {period} crossings")
    return st


def _sweep(core: _Strip, side: int):
    """Rise from the core strip until a cone orbit bounds the family or the
    core's word comes back (the family closes up).

    Returns (height on this side, closed, cone orbits at the bound).  The
    core line sits in the middle of its strip, so the core's width counts
    half towards a bound and fully towards a closed turn.
    """
    word = tuple(core.crossings)
    n = len(word)
    st = _Strip(core.s, core.crossings, core.params)
    core_width, cones = _rise(st, side)
    height = 0.5 * core_width
    for _ in range(_MAX_RISES):
        if cones:
            return height, False, cones
        cur = tuple(st.crossings)
        if len(cur) == n and any(cur == word[r:] + word[:r]
                                 for r in range(n)):
            return height + 0.5 * core_width, True, ()
        width, cones = _rise(st, side)
        height += width
    raise NoConvergence(f"cylinder sweep used its {_MAX_RISES} rises and "
                        f"reached height {height:.12g} with no cone point "
                        f"and no closure")


def detect_cylinder(g: GeodesicRepresentative) -> FlatCylinder | None:
    """The maximal cylinder swept by the parallel family of g, or None if
    the holonomy does not permit a parallel family."""
    if g.kind != "nonsingular":
        raise NotNonsingular("geodesic passes through a cone point")
    if not is_translation(g.holonomy):
        return None
    st = _core_strip(g.surface, g)
    core = HomotopyClassPath(st.crossings, label=g.label)
    up, closed, orbits_up = _sweep(st, +1)
    if closed:
        return FlatCylinder(core, g.length, up, True, ((), ()))
    down, _closed, orbits_down = _sweep(st, -1)
    return FlatCylinder(core, g.length, up + down, False,
                        (orbits_up, orbits_down))


# -- cylinder insertion -----------------------------------------------------

@dataclass
class TransportMap:
    """Carries homotopy classes through a cylinder insertion.

    A class is transported by tracing a representative through the
    subdivided triangles.  Inside one old triangle the new triangles are
    the fans of the pieces between its parallel chords and the two
    triangles of each chord's band rectangle.  A fan is a path, and a
    rectangle joins only the two pieces on either side of its chord, so
    these triangles form a tree: a segment from one sub-edge of the old
    triangle to another takes the one route between their triangles.  A
    crossing of the core thus becomes a pass through the inserted band,
    which preserves the intersection pattern and hence the homotopy class
    on the new surface.

    ``cuts`` holds the core's cuts on the old slots (``subdivide.add_cut``),
    ``where`` finds a soup tag's edge on the new surface and ``region[i]``
    is the old triangle that new triangle i lies in.
    """

    old_surface: TriangulatedFlatSurface
    new_surface: TriangulatedFlatSurface
    cuts: dict
    where: dict
    region: list[int]

    def transport(self, path: HomotopyClassPath) -> HomotopyClassPath:
        rep = tighten_geodesic(self.old_surface, path)
        us = [self._nudged_param(slot, u)
              for slot, u in zip(rep.crossings, rep.params)]
        out: list[tuple[int, int]] = []
        for k, slot in enumerate(rep.crossings):
            entry = self._sub_slot(*self.old_surface.partner_param(
                rep.crossings[k - 1], us[k - 1]))
            exit_ = self._sub_slot(slot, us[k])
            out += self._route(entry[0], exit_[0])
            out.append(exit_)
        return HomotopyClassPath(tuple(out), label=rep.label)

    # -- helpers ---------------------------------------------------------

    def _nudged_param(self, slot, u: float) -> float:
        cuts = [c for c, _cid in self.cuts.get(slot, [])]
        u = min(max(u, EPS), 1.0 - EPS)
        for c in cuts:
            if abs(u - c) < EPS:
                above = [x for x in cuts if x > c + EPS] + [1.0]
                return 0.5 * (c + min(above))
        return u

    def _sub_slot(self, slot, u: float):
        """The new edge of the piece of an old slot, between two cuts,
        that holds the param u."""
        return self.where[sub_edge(self.cuts, None, slot, u)]

    def _route(self, start: int, goal: int) -> list[tuple[int, int]]:
        """The slots crossed on the way from new triangle start to goal,
        both in one old triangle, along the tree of its new triangles."""
        gluings, region = self.new_surface.gluings, self.region
        via = {start: []}
        todo = [start]
        while goal not in via:
            t = todo.pop()
            for e in range(3):
                nxt = gluings[(t, e)][0]
                if nxt not in via and region[nxt] == region[start]:
                    via[nxt] = via[t] + [(t, e)]
                    todo.append(nxt)
        return via[goal]


@dataclass
class InsertResult:
    surface: TriangulatedFlatSurface
    transport: TransportMap


def insert_cylinder_detailed(s: TriangulatedFlatSurface,
                             core: HomotopyClassPath,
                             height: float) -> InsertResult:
    """Cut along the core geodesic and glue in a flat cylinder.

    The core must be cylindrical and traverse its cylinder once.  The area
    grows by circumference * height, cone data is unchanged, and the core
    length is preserved.
    """
    if not height > 0:
        raise BadParameters(f"cylinder height must be positive, got {height}")
    g = tighten_geodesic(s, core)
    if g.kind != "nonsingular":
        raise NotNonsingular("core geodesic passes through a cone point")
    st = _core_strip(s, g)
    n = len(st.crossings)

    # the core's crossing k is cut ("x", k) on both glued slots, and its
    # chord k runs from cut k - 1 to cut k in the triangle it leaves by k
    cuts: dict = {}
    chords: dict[int, list] = {t: [] for t in range(s.num_triangles)}
    widths = []
    for k in range(n):
        slot, u = st.crossings[k], st.params[k]
        if slot[0] == s.gluings[slot][0]:
            raise NotCylindrical(
                "cylinder insertion does not support edges glued within "
                "one triangle; subdivide the surface first")
        add_cut(cuts, s, slot, u, ("x", k))
        p_in = s.edge_point(*s.partner_param(st.crossings[k - 1],
                                             st.params[k - 1]))
        p_out = s.edge_point(slot, u)
        chords[slot[0]].append((k, ("x", (k - 1) % n), ("x", k), p_in, p_out))
        widths.append(abs(p_out - p_in))

    soup = Soup()
    fans: dict[int, list[int]] = {}
    for t in range(s.num_triangles):
        pending = [triangle_piece(s, t, cuts)]
        tchords = chords[t]
        if tchords:
            dvec = tchords[0][4] - tchords[0][3]
            normal = 1j * (dvec / abs(dvec))
            levels = sorted((dot(0.5 * (pi + po), normal), k, eid, xid)
                            for k, eid, xid, pi, po in tchords)
            for _lv, cid, eid, xid in levels:
                target = next(p for p in pending
                              if eid in p.verts and xid in p.verts)
                pending.remove(target)
                # a ccw piece lies left of its edges: the one that keeps
                # the chord eid -> xid is on side "B"
                pending += split_piece(target, eid, xid, [("chord", cid, "B")],
                                       [("chord", cid, "A")])
            pending.sort(key=lambda p: dot(p.centroid(), normal))
        fans[t] = [ti for p in pending for ti in soup.add_fan(p)]

    rects = soup.add_band(widths, height,
                          [("chord", k, "A") for k in range(n)],
                          [("chord", k, "B") for k in range(n)])
    # soup triangles are numbered in the order they were added
    region = [t for t in range(s.num_triangles) for _ti in fans[t]]
    region += [st.crossings[k][0] for k, rect in enumerate(rects)
               for _ti in rect]

    new_surface = soup.assemble(
        {None: s.gluings},
        marked_punctures=soup.carry(s, fans, s.marked_punctures))
    tmap = TransportMap(s, new_surface, cuts, soup.where(), region)
    return InsertResult(new_surface, tmap)

