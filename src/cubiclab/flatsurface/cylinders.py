"""Flat cylinders: detection of the maximal parallel family around a
nonsingular closed geodesic, and insertion of a flat cylinder of given
height along it.

The sweep translates the geodesic in the normal direction.  Passing a
flat (k = 0) vertex only changes the combinatorial strip (a slide); the
sweep stops when the translate hits a cone point, or closes up onto the
starting line (cone-free direction, as on a torus).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import NotCylindrical, NotNonsingular
from .geodesics import (
    PIN_TOL,
    GeodesicRepresentative,
    HomotopyClassPath,
    _Strip,
    tighten_geodesic,
)
from .planar import cross
from .subdivide import Soup, slot_partner_tag, split_piece, triangle_piece
from .surface import TriangulatedFlatSurface


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


def _perp(v):
    return np.array([-v[1], v[0]])


def _strip_direction(st: _Strip):
    H = st.holonomy
    if abs(H.rot) > 1e-7:
        raise NotCylindrical("strip holonomy is not a translation")
    dvec = np.array([H.tx, H.ty])
    ell = float(np.linalg.norm(dvec))
    return dvec / ell, ell


def _require_core_line(g: GeodesicRepresentative) -> None:
    """tighten_geodesic returns a cylinder's core line inside every edge;
    a nonsingular geodesic pinned at flat vertices is no such line (its
    strip holds no open family).  A crossing word that is a proper cyclic
    power belongs to a class traversing its cylinder more than once."""
    w = g.crossings
    n = len(w)
    period = next(p for p in range(1, n + 1)
                  if n % p == 0 and w[p:] + w[:p] == w)
    if period < n:
        raise NotCylindrical(
            f"core class traverses its cylinder {n // period} times: its "
            f"{n} crossings repeat a primitive word of {period} crossings")
    if not all(PIN_TOL < u < 1.0 - PIN_TOL for u in g.params):
        raise NotCylindrical("core geodesic touches the one-skeleton")


def _sweep(s: TriangulatedFlatSurface, g: GeodesicRepresentative, side: int,
           max_phases: int = 10_000):
    """Translate g in one normal direction until a cone point or closure.

    Returns (height, closed, cone orbits at the bounding level).
    """
    start_slots = tuple(g.crossings)
    start_params = tuple(g.params)
    n_start = len(start_slots)
    st = _Strip(s, list(start_slots), list(start_params))
    d, _ = _strip_direction(st)
    # marker: (crossing index, endpoint index, 'behind' | 'ahead') fixing
    # the forward normal across re-developments
    marker = None
    p0 = st.point(0)
    n_vec = side * _perp(d)
    for k in range(len(st.crossings)):
        A, B = st.edges[k]
        for idx, pt in ((0, A), (1, B)):
            if float((pt - p0) @ n_vec) < -1e-12:
                marker = (k, idx, "behind")
                break
        if marker:
            break
    if marker is None:
        raise RuntimeError("sweep needs a starting line through edge interiors")

    cumulative = 0.0
    for _phase in range(max_phases):
        d, _ = _strip_direction(st)
        p0 = st.point(0)
        n_vec = _perp(d)
        mk, midx, mkind = marker
        A, B = st.edges[mk]
        mpt = A if midx == 0 else B
        mnu = float((mpt - p0) @ n_vec)
        if (mkind == "behind" and mnu > 0) or (mkind == "ahead" and mnu < 0):
            n_vec = -n_vec

        nus = []
        for k in range(len(st.crossings)):
            A, B = st.edges[k]
            nus.append((float((A - p0) @ n_vec), float((B - p0) @ n_vec)))
        scale = max(1.0, max(abs(a) for ab in nus for a in ab))
        tol = 1e-9 * scale
        s_star = min(max(a, b) for a, b in nus)

        # closure: does the starting line reappear inside this phase?
        if cumulative > 0 and len(st.crossings) == n_start:
            cur = tuple(st.crossings)
            best = None
            for r in range(n_start):
                if cur != start_slots[r:] + start_slots[:r]:
                    continue
                u0 = start_params[r]
                a, b = nus[0]
                nu_here = a + u0 * (b - a)
                if tol < nu_here <= s_star + tol:
                    best = nu_here if best is None else min(best, nu_here)
            if best is not None:
                return cumulative + best, True, ()

        # vertices reached at level s_star
        hit_orbits = {}
        for k in range(len(st.crossings)):
            a, b = nus[k]
            for idx, nu in ((0, a), (1, b)):
                if abs(nu - s_star) <= tol:
                    t, e = st.crossings[k]
                    vert = (t, e) if idx == 0 else (t, (e + 1) % 3)
                    hit_orbits.setdefault(s.orbit_of[vert], []).append(k)
        cones = tuple(sorted(o for o in hit_orbits
                             if s.orbit_orders[o] != 0))
        if cones:
            return cumulative + s_star, False, cones
        cumulative += s_star

        # place the line on the event level, then slide across one vertex
        for k in range(len(st.crossings)):
            a, b = nus[k]
            st.params[k] = min(1.0, max(0.0, (s_star - a) / (b - a)))
        ks = next(iter(hit_orbits.values()))
        group = next(gr for gr, _ in st.pivots() if ks[0] in gr)
        in_group = set(group)
        behind_ref = None
        for k in range(len(st.crossings)):
            if k in in_group:
                continue
            a, b = nus[k]
            if a < s_star - tol:
                behind_ref = (k, 0)
                break
            if b < s_star - tol:
                behind_ref = (k, 1)
                break
        kept_map, first_new, n_new, vparam = st.slide(group, simplify=False)
        marker = _reseat_on_vertex_line(st, kept_map, first_new, n_new,
                                        vparam, behind_ref)
    raise RuntimeError("cylinder sweep exhausted its phase budget")


def _reseat_on_vertex_line(st: _Strip, kept_map, first_new, n_new, vparam,
                           behind_ref=None):
    """After a slide, put the strip back on the line through the vertex.

    Crossings of edges lying along the line itself are backtrack artefacts
    of the slide (the translate runs along those edges at the event level);
    they are removed in partner pairs.  Returns the new orientation marker.
    """
    d, _ = _strip_direction(st)
    vA, vB = st.edges[first_new]
    V = vA if vparam == 0.0 else vB
    scale = max(1.0, float(np.abs(np.asarray(st.edges)).max()))
    keep_idx = []
    new_params = []
    for k in range(len(st.crossings)):
        A, B = st.edges[k]
        denom = cross(d, B - A)
        if abs(denom) < 1e-12 * scale:
            on_line = (abs(cross(d, A - V)) < 1e-9 * scale
                       and abs(cross(d, B - V)) < 1e-9 * scale)
            if not on_line:
                raise RuntimeError("sweep line parallel to an off-line edge")
            continue  # drop: the translate runs along this edge
        u = cross(d, V - A) / denom
        keep_idx.append(k)
        new_params.append(min(1.0, max(0.0, u)))
    if (len(st.crossings) - len(keep_idx)) % 2 != 0:
        raise RuntimeError("slide artefacts did not cancel in pairs")
    remap = {old: new for new, old in enumerate(keep_idx)}
    st.crossings = [st.crossings[k] for k in keep_idx]
    st.params = new_params
    s = st.s
    for k in range(len(st.crossings)):
        nxt = st.crossings[(k + 1) % len(st.crossings)]
        if s.gluings[st.crossings[k]][0] != nxt[0]:
            raise RuntimeError("strip lost adjacency while dropping artefacts")
    st.refresh()
    # orientation marker: surviving fan slots open into the forward side
    for k in range(first_new, first_new + n_new):
        if k in remap:
            return (remap[k], 1 - int(vparam), "ahead")
    if behind_ref is not None:
        old_k, idx = behind_ref
        pre = kept_map.get(old_k)
        if pre is not None and pre in remap:
            return (remap[pre], idx, "behind")
    raise RuntimeError("no usable orientation marker after slide")


def detect_cylinder(s: TriangulatedFlatSurface,
                    g: GeodesicRepresentative) -> FlatCylinder | None:
    """The maximal cylinder swept by the parallel family of g, or None if
    the holonomy does not permit a parallel family."""
    if g.kind != "nonsingular":
        raise NotNonsingular("geodesic passes through a cone point")
    if abs(g.holonomy.rot) > 1e-7:
        return None
    _require_core_line(g)
    core = HomotopyClassPath(g.crossings, label=g.label)
    up, closed, orbits_up = _sweep(s, g, +1)
    if closed:
        return FlatCylinder(core, g.length, up, True, ((), ()))
    down, _closed, orbits_down = _sweep(s, g, -1)
    return FlatCylinder(core, g.length, up + down, False,
                        (orbits_up, orbits_down))


# -- cylinder insertion -----------------------------------------------------

@dataclass
class _TriInfo:
    normal: np.ndarray | None = None
    levels: list[float] = field(default_factory=list)
    chord_ids: list[int] = field(default_factory=list)
    pieces: list = field(default_factory=list)  # FanPiece per strip


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
    rects: dict
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
            info = self.tri_info[t]
            pos = self._sub_position(entry_slot, entry_u)
            if info.normal is not None and info.levels:
                entry_pt = s.edge_point(entry_slot, entry_u)
                exit_pt = s.edge_point(exit_slot, exit_u)
                nu_in = float(entry_pt @ info.normal)
                nu_out = float(exit_pt @ info.normal)
                crossed = [(lv, cid) for lv, cid in
                           zip(info.levels, info.chord_ids)
                           if min(nu_in, nu_out) + 1e-12 < lv
                           < max(nu_in, nu_out) - 1e-12]
                crossed.sort(reverse=nu_in > nu_out)
                for lv, cid in crossed:
                    from_below = nu_in < lv
                    side = "A" if from_below else "B"
                    chord_slot = self.chord_edge[(cid, side)]
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
            exit_sub = self._sub_slot(exit_slot, exit_u)
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
                out.append((fan.subtris[i], 2))
        else:
            for i in range(fp, fp_target, -1):
                out.append((fan.subtris[i], 0))
        return (t_old, piece_idx, fp_target)


@dataclass
class InsertResult:
    surface: TriangulatedFlatSurface
    cylinder: FlatCylinder
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
    _require_core_line(g)
    n = len(g.crossings)

    cut_ids: dict = {}
    for k in range(n):
        slot, u = g.crossings[k], g.params[k]
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
        t = g.crossings[k][0]
        prev = (k - 1) % n
        eslot, eu = s.partner_param(g.crossings[prev], g.params[prev])
        p_in = s.edge_point(eslot, eu)
        p_out = s.edge_point(g.crossings[k], g.params[k])
        chords[t].append((k, ("x", prev), ("x", k), p_in, p_out))
        widths.append(float(np.linalg.norm(p_out - p_in)))

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
        normal = _perp(dvec / np.linalg.norm(dvec))
        info.normal = normal
        levels = sorted((float(0.5 * (pi + po) @ normal), k, eid, xid)
                        for k, eid, xid, pi, po in tchords)
        pending = [piece]
        for lv, cid, eid, xid in levels:
            info.levels.append(lv)
            info.chord_ids.append(cid)
            target = next(p for p in pending
                          if eid in p.verts and xid in p.verts)
            pending.remove(target)
            p_ab, p_ba = split_piece(target, eid, xid,
                                     ("chordtmp", cid, "ab"),
                                     ("chordtmp", cid, "ba"))
            for pc in (p_ab, p_ba):
                side = "A" if float(pc.centroid() @ normal) < lv else "B"
                pc.tags[-1] = ("chord", cid, side)
                pending.append(pc)
        done = sorted(pending, key=lambda p: float(p.centroid() @ normal))
        for p in done:
            info.pieces.append(soup.add_fan(p))

    rects = {k: soup.add_rectangle(widths[k], height,
                                   [("chordrect", k, "A"), ("seamR", k),
                                    ("chordrect", k, "B"), ("seamL", k)])
             for k in range(n)}

    def partner(tag):
        kind = tag[0]
        if kind == "slot":
            return slot_partner_tag(tag, s.gluings)
        if kind == "chord":
            return ("chordrect", tag[1], tag[2])
        if kind == "chordrect":
            return ("chord", tag[1], tag[2])
        if kind == "seamR":
            return ("seamL", (tag[1] + 1) % n)
        if kind == "seamL":
            return ("seamR", (tag[1] - 1) % n)
        return None

    punctures = []
    for orbit in s.marked_punctures:
        t, i = s.vertex_orbits[orbit][0]
        subtris = [ti for fan in tri_info[t].pieces for ti in fan.subtris]
        punctures.append(soup.vertex_at(subtris, s.triangles[t][i]))
    new_surface = soup.assemble(partner, marked_punctures=punctures)

    subslot_map: dict = {}
    chord_edge: dict = {}
    subtri_pos: dict = {}
    for t, info in tri_info.items():
        for p_idx, fan in enumerate(info.pieces):
            for fpos, ti in enumerate(fan.subtris):
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
    core_path = HomotopyClassPath(g.crossings, label=g.label)
    cyl = FlatCylinder(core_path, g.length, height, False, ((), ()))
    return InsertResult(new_surface, cyl, tmap)


def insert_cylinder(s: TriangulatedFlatSurface,
                    core: HomotopyClassPath | GeodesicRepresentative,
                    height: float) -> TriangulatedFlatSurface:
    return insert_cylinder_detailed(s, core, height).surface
