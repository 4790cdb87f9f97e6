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

from dataclasses import dataclass, field

from ..errors import NoConvergence, NotCylindrical, NotNonsingular
from .geodesics import (
    GeodesicRepresentative,
    HomotopyClassPath,
    _Strip,
    tighten_geodesic,
)
from .planar import dot
from .subdivide import Soup, slot_partner_tag, split_piece, triangle_piece
from .surface import TriangulatedFlatSurface

# levels match to this fraction of the strip's largest offset
_LEVEL_TOL = 1e-9
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
    tolerance at which two levels match."""
    if abs(st.holonomy.rot - 1.0) > 1e-7:
        raise NotCylindrical("strip holonomy is not a translation")
    nus, lo, hi = st.family()
    return nus, lo, hi, _LEVEL_TOL * max(abs(v) for ab in nus for v in ab)


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
        st.slide(next(g for g, _orbit in st.pivots()
                      if st.params[g[0]] == end))
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


def detect_cylinder(s: TriangulatedFlatSurface,
                    g: GeodesicRepresentative) -> FlatCylinder | None:
    """The maximal cylinder swept by the parallel family of g, or None if
    the holonomy does not permit a parallel family."""
    if g.kind != "nonsingular":
        raise NotNonsingular("geodesic passes through a cone point")
    if abs(g.holonomy.rot - 1.0) > 1e-7:
        return None
    st = _core_strip(s, g)
    core = HomotopyClassPath(st.crossings, label=g.label)
    up, closed, orbits_up = _sweep(st, +1)
    if closed:
        return FlatCylinder(core, g.length, up, True, ((), ()))
    down, _closed, orbits_down = _sweep(st, -1)
    return FlatCylinder(core, g.length, up + down, False,
                        (orbits_up, orbits_down))


# -- cylinder insertion -----------------------------------------------------

@dataclass
class _TriInfo:
    # chord_ids[i] separates pieces i and i + 1: pieces are stacked in
    # chord order, from side "A" of the lowest chord upwards
    chord_ids: list[int] = field(default_factory=list)
    pieces: list = field(default_factory=list)  # soup triangles per piece


@dataclass
class TransportMap:
    """Carries homotopy classes through a cylinder insertion.

    A class is transported by tracing a representative through the
    subdivided triangles; each crossing of the core is replaced by a pass
    through the inserted band, which preserves the intersection pattern
    and hence the homotopy class on the new surface.
    """

    old_surface: TriangulatedFlatSurface
    new_surface: TriangulatedFlatSurface
    tri_info: dict[int, _TriInfo]
    subslot_map: dict
    chord_edge: dict
    rects: list
    subtri_pos: dict
    cut_params: dict

    def transport(self, path: HomotopyClassPath | GeodesicRepresentative,
                  ) -> HomotopyClassPath:
        if isinstance(path, GeodesicRepresentative):
            rep = path
        else:
            rep = tighten_geodesic(self.old_surface, path)
        n = len(rep.crossings)
        us = [self._nudged_param(rep.crossings[k], rep.params[k])
              for k in range(n)]
        out: list[tuple[int, int]] = []
        s = self.old_surface
        for k in range(n):
            t = rep.crossings[k][0]
            prev = (k - 1) % n
            entry_slot, entry_u = s.partner_param(rep.crossings[prev], us[prev])
            exit_slot, exit_u = rep.crossings[k], us[k]
            chord_ids = self.tri_info[t].chord_ids
            pos = self._sub_position(entry_slot, entry_u)
            exit_sub = self._sub_slot(exit_slot, exit_u)
            # from piece i to piece j the chords i..j-1 are crossed in turn
            i, j = pos[1], self.subtri_pos[exit_sub[0]][1]
            from_below = i < j
            for c in (range(i, j) if from_below else range(i - 1, j - 1, -1)):
                cid = chord_ids[c]
                chord_slot = self.chord_edge[(cid, "A" if from_below else "B")]
                pos = self._emit_fan_path(out, pos, chord_slot[0])
                out.append(chord_slot)
                bk, tk = self.rects[cid]
                if from_below:
                    out.append((bk, 2))
                    out.append((tk, 1))
                    landing = self.chord_edge[(cid, "B")]
                else:
                    out.append((tk, 0))
                    out.append((bk, 0))
                    landing = self.chord_edge[(cid, "A")]
                pos = self.subtri_pos[landing[0]]
            pos = self._emit_fan_path(out, pos, exit_sub[0])
            out.append(exit_sub)
        return HomotopyClassPath(tuple(out), label=rep.label)

    # -- helpers ---------------------------------------------------------

    def _nudged_param(self, slot, u: float) -> float:
        cuts = self.cut_params.get(slot, [])
        u = min(max(u, 1e-7), 1.0 - 1e-7)
        for c in cuts:
            if abs(u - c) < 1e-9:
                above = [x for x in cuts if x > c + 1e-9] + [1.0]
                u = 0.5 * (c + min(above))
                break
        return u

    def _sub_slot(self, slot, u):
        for u0, u1, sub in self.subslot_map[slot]:
            if u0 - 1e-12 <= u <= u1 + 1e-12:
                return sub
        raise RuntimeError(f"no sub-slot of {slot} contains u={u}")

    def _sub_position(self, slot, u):
        return self.subtri_pos[self._sub_slot(slot, u)[0]]

    def _emit_fan_path(self, out, pos, target_tri):
        t_old, piece_idx, fp = pos
        t_old2, piece_idx2, fp_target = self.subtri_pos[target_tri]
        if (t_old, piece_idx) != (t_old2, piece_idx2):
            raise RuntimeError("fan routing crossed piece boundaries")
        fan = self.tri_info[t_old].pieces[piece_idx]
        if fp < fp_target:
            for i in range(fp, fp_target):
                out.append((fan[i], 2))
        else:
            for i in range(fp, fp_target, -1):
                out.append((fan[i], 0))
        return (t_old, piece_idx, fp_target)


@dataclass
class InsertResult:
    surface: TriangulatedFlatSurface
    transport: TransportMap


def insert_cylinder_detailed(s: TriangulatedFlatSurface,
                             core: HomotopyClassPath | GeodesicRepresentative,
                             height: float) -> InsertResult:
    """Cut along the core geodesic and glue in a flat cylinder.

    The core must be cylindrical and traverse its cylinder once.  The area
    grows by circumference * height, cone data is unchanged, and the core
    length is preserved.
    """
    if height <= 0:
        raise ValueError("cylinder height must be positive")
    if isinstance(core, GeodesicRepresentative):
        g = core
    else:
        g = tighten_geodesic(s, core, tol=1e-12)
    if g.kind != "nonsingular":
        raise NotCylindrical("core class is not cylindrical "
                             "(geodesic passes through a cone point)")
    st = _core_strip(s, g)
    n = len(st.crossings)

    cut_ids: dict = {}
    for k in range(n):
        slot, u = st.crossings[k], st.params[k]
        pslot, pu = s.partner_param(slot, u)
        if slot[0] == pslot[0]:
            raise NotCylindrical(
                "cylinder insertion does not support edges glued within "
                "one triangle; subdivide the surface first")
        cut_ids.setdefault(slot, []).append((u, ("x", k)))
        cut_ids.setdefault(pslot, []).append((pu, ("x", k)))
    for slot in cut_ids:
        cut_ids[slot].sort()

    chords: dict[int, list] = {t: [] for t in range(s.num_triangles)}
    widths = []
    for k in range(n):
        t = st.crossings[k][0]
        prev = (k - 1) % n
        eslot, eu = s.partner_param(st.crossings[prev], st.params[prev])
        p_in = s.edge_point(eslot, eu)
        p_out = s.edge_point(st.crossings[k], st.params[k])
        chords[t].append((k, ("x", prev), ("x", k), p_in, p_out))
        widths.append(abs(p_out - p_in))

    soup = Soup()
    tri_info: dict[int, _TriInfo] = {}
    for t in range(s.num_triangles):
        info = _TriInfo()
        tri_info[t] = info
        piece = triangle_piece(s, t, cut_ids)
        tchords = chords[t]
        if not tchords:
            info.pieces.append(soup.add_fan(piece))
            continue
        dvec = tchords[0][4] - tchords[0][3]
        normal = 1j * (dvec / abs(dvec))
        levels = sorted((dot(0.5 * (pi + po), normal), k, eid, xid)
                        for k, eid, xid, pi, po in tchords)
        pending = [piece]
        for lv, cid, eid, xid in levels:
            info.chord_ids.append(cid)
            target = next(p for p in pending
                          if eid in p.verts and xid in p.verts)
            pending.remove(target)
            p_ab, p_ba = split_piece(target, eid, xid,
                                     ("chordtmp", cid, "ab"),
                                     ("chordtmp", cid, "ba"))
            for pc in (p_ab, p_ba):
                side = "A" if dot(pc.centroid(), normal) < lv else "B"
                pc.tags[-1] = ("chord", cid, side)
                pending.append(pc)
        done = sorted(pending, key=lambda p: dot(p.centroid(), normal))
        for p in done:
            info.pieces.append(soup.add_fan(p))

    rects = soup.add_band(widths, height,
                          [("chord", k, "A") for k in range(n)],
                          [("chord", k, "B") for k in range(n)])

    punctures = []
    for orbit in s.marked_punctures:
        t, i = s.vertex_orbits[orbit][0]
        subtris = [ti for fan in tri_info[t].pieces for ti in fan]
        punctures.append(soup.vertex_at(subtris, s.triangles[t][i]))
    new_surface = soup.assemble(lambda tag: slot_partner_tag(tag, s.gluings),
                                marked_punctures=punctures)

    subslot_map: dict = {}
    chord_edge: dict = {}
    subtri_pos: dict = {}
    for t, info in tri_info.items():
        for p_idx, fan in enumerate(info.pieces):
            for fpos, ti in enumerate(fan):
                subtri_pos[ti] = (t, p_idx, fpos)
    for ti, tags3 in enumerate(soup.tags):
        for e, tag in enumerate(tags3):
            if not isinstance(tag, tuple):
                continue
            if tag[0] == "slot":
                _, _key, slot, a_id, b_id = tag
                lookup = {cid: u for u, cid in cut_ids.get(slot, ())}
                lookup.update({"lo": 0.0, "hi": 1.0})
                u0, u1 = lookup[a_id], lookup[b_id]
                subslot_map.setdefault(slot, []).append(
                    (min(u0, u1), max(u0, u1), (ti, e)))
            elif tag[0] == "chord":
                chord_edge[(tag[1], tag[2])] = (ti, e)
    for slot in subslot_map:
        subslot_map[slot].sort()

    tmap = TransportMap(
        s, new_surface, tri_info, subslot_map, chord_edge, rects, subtri_pos,
        {sl: sorted(u for u, _ in cut_ids[sl]) for sl in cut_ids})
    return InsertResult(new_surface, tmap)


def insert_cylinder(s: TriangulatedFlatSurface,
                    core: HomotopyClassPath | GeodesicRepresentative,
                    height: float) -> TriangulatedFlatSurface:
    return insert_cylinder_detailed(s, core, height).surface
