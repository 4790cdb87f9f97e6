"""Independent oracles used to freeze expected values.

These deliberately avoid the library's algorithms: shortest homotopic loops
come from Dijkstra on a refined strip mesh, saddle connections from
depth-limited unfolding with explicit segment tracing, torus intersection
numbers from the lattice formula.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra as csgraph_dijkstra

from cubiclab.flatsurface.geodesics import develop_strip
from cubiclab.flatsurface.surface import PlanarIsometry


def lattice_norm(p, q, a=1.0, b=1.0):
    return math.hypot(p * a, q * b)


def lattice_intersection(c1, c2):
    (a, b), (c, d) = c1, c2
    return abs(a * d - b * c)


def strip_dijkstra_length(s, path, levels: int) -> float:
    """Shortest closed loop through the strip of ``path`` on a refined mesh.

    Each strip triangle is split into levels^2 sub-triangles; graph edges
    carry Euclidean lengths; the loop closes between matching parameters on
    the strip's first entry edge and last exit edge.  The value upper-bounds
    the geodesic length and shrinks under refinement.
    """
    crossings = list(path.crossings)
    n = len(crossings)
    phis = develop_strip(s, crossings)
    L = levels

    coords: list[np.ndarray] = []
    node_of: dict = {}
    rows, cols, vals = [], [], []

    def new_node(xy):
        coords.append(np.asarray(xy, dtype=float))
        return len(coords) - 1

    def edge_param(e, i, j):
        """Edge index and parameter if barycentric node (i, j) lies on a
        chart edge, else None.  lam = (i, j, L - i - j) / L on vertices
        (0, 1, 2); edge e joins vertex e to e+1."""
        lam = (i, j, L - i - j)
        for e in range(3):
            if lam[(e + 2) % 3] == 0:
                return e, lam[(e + 1) % 3] / L
        return None

    prev_exit_nodes: dict = {}
    first_entry_nodes: dict = {}
    last_exit_nodes: dict = {}

    for k in range(n):
        t = crossings[k][0]
        dev = [phis[k].apply(v) for v in s.triangles[t]]
        e_out = crossings[k][1]
        prev_slot = s.gluings[crossings[(k - 1) % n]]
        e_in = prev_slot[1]

        ids = {}
        exit_nodes = {}
        for i in range(L + 1):
            for j in range(L + 1 - i):
                lam = (i / L, j / L, (L - i - j) / L)
                xy = lam[0] * dev[0] + lam[1] * dev[1] + lam[2] * dev[2]
                lam_int = (i, j, L - i - j)
                memberships = [(e, lam_int[(e + 1) % 3]) for e in range(3)
                               if lam_int[(e + 2) % 3] == 0]
                nid = None
                if k > 0:
                    for e, par in memberships:
                        if e == e_in and (L - par) in prev_exit_nodes:
                            nid = prev_exit_nodes[L - par]
                            break
                if nid is None:
                    nid = new_node(xy)
                ids[(i, j)] = nid
                for e, par in memberships:
                    if e == e_out:
                        exit_nodes[par] = nid
                    if k == 0 and e == e_in:
                        first_entry_nodes[par] = nid
        for i in range(L + 1):
            for j in range(L + 1 - i):
                a = ids[(i, j)]
                for (di, dj) in ((1, 0), (0, 1), (1, -1)):
                    i2, j2 = i + di, j + dj
                    if 0 <= i2 <= L and 0 <= j2 <= L - i2:
                        b = ids[(i2, j2)]
                        w = float(np.linalg.norm(coords[a] - coords[b]))
                        rows.append(a)
                        cols.append(b)
                        vals.append(w)
        prev_exit_nodes = exit_nodes
        if k == n - 1:
            last_exit_nodes = exit_nodes

    graph = sp.csr_matrix((vals + vals, (rows + cols, cols + rows)),
                          shape=(len(coords), len(coords)))
    starts = sorted(first_entry_nodes.items())
    dist = csgraph_dijkstra(graph, indices=[nid for _f, nid in starts])
    best = math.inf
    for row, (f_entry, _nid) in zip(dist, starts):
        # entry parameter f/L on the first entry edge corresponds to exit
        # parameter (L - f)/L on the last exit edge (partner reversal)
        target = last_exit_nodes[L - f_entry]
        best = min(best, float(row[target]))
    return best


# -- saddle connections by exhaustive unfolding -------------------------------

def brute_saddle_connections(s, max_length: float, depth: int):
    """Saddle connections up to ``max_length`` by depth-limited unfolding.

    Candidate endpoints are all developed vertices reachable within
    ``depth`` gluing steps; each candidate segment is then traced from
    scratch through the triangulation, rejecting any that pass a vertex.
    Deduplication matches the library's unoriented-segment identity
    (endpoint orbits, length, intrinsic fan angles at both ends).
    """
    found = {}
    cone_orbits = {cp.orbit for cp in s.cone_points}
    fan_cum = _fan_cumulative(s)

    for cp in s.cone_points:
        for (t0, i0) in s.vertex_orbits[cp.orbit]:
            tri = s.triangles[t0]
            shift = PlanarIsometry(0.0, -float(tri[i0][0]),
                                   -float(tri[i0][1]))
            candidates = {}
            queue = deque([(t0, shift, 0)])
            while queue:
                t, phi, d = queue.popleft()
                dev = [phi.apply(v) for v in s.triangles[t]]
                for li in range(3):
                    w = dev[li]
                    norm = float(np.linalg.norm(w))
                    if 1e-12 < norm <= max_length + 1e-12:
                        candidates[(round(w[0], 9), round(w[1], 9))] = \
                            (t, li, phi)
                if d < depth:
                    for e in range(3):
                        t2, _ = s.gluings[(t, e)]
                        phi2 = phi.compose(s.isometries[(t, e)].inverse())
                        queue.append((t2, phi2, d + 1))
            ray1 = shift.apply(tri[(i0 + 1) % 3])
            ray2 = shift.apply(tri[(i0 + 2) % 3])
            for (wx, wy), _cand in candidates.items():
                w = np.array([wx, wy])
                # the segment must leave through this corner's wedge
                if (ray1[0] * w[1] - ray1[1] * w[0] < -1e-12
                        or w[0] * ray2[1] - w[1] * ray2[0] < -1e-12):
                    continue
                arrival = _trace_from_corner(s, t0, i0, shift, w)
                if arrival is None:
                    continue
                t_arr, li_arr, phi_arr = arrival
                t_orbit = s.orbit_of[(t_arr, li_arr)]
                if t_orbit not in cone_orbits:
                    continue
                dev = [phi_arr.apply(v) for v in s.triangles[t_arr]]
                ang_a = _intrinsic(s, fan_cum, (t0, i0),
                                   shift.apply(tri[(i0 + 1) % 3]), w)
                ang_b = _intrinsic(s, fan_cum, (t_arr, li_arr),
                                   dev[(li_arr + 1) % 3] - w, -w)
                norm = float(np.linalg.norm(w))
                key = (min(cp.orbit, t_orbit), max(cp.orbit, t_orbit),
                       round(norm, 9),
                       tuple(sorted((round(ang_a, 7), round(ang_b, 7)))))
                found.setdefault(key, norm)
    return sorted(found.values()), found


def _fan_cumulative(s):
    cum = {}
    for orbit, corners in enumerate(s.vertex_orbits):
        fan = s.corner_fan(*corners[0])
        acc = 0.0
        for (t, i) in fan:
            cum[(t, i)] = acc
            acc += s.corner_angle(t, i)
    return cum


def _intrinsic(s, cum, corner, ray, d):
    total = float(s.orbit_angles[s.orbit_of[corner]])
    cr = float(ray[0] * d[1] - ray[1] * d[0])
    dt = float(np.dot(ray, d))
    if abs(cr) < 1e-9 * math.hypot(cr, dt):
        cr = 0.0
    a = math.atan2(cr, dt)
    if a < 0:
        a += 2 * math.pi
    a = math.fmod(cum[corner] + a, total)
    if a > total - 1e-9:
        a = 0.0
    return a


def _trace_from_corner(s, t0, i0, phi0, w, max_steps=500):
    """Trace the segment from the corner vertex to developed point w,
    crossing edge interiors only.  Returns the arrival (triangle, vertex,
    frame) or None when blocked or off course."""
    norm = float(np.linalg.norm(w))
    d = w / norm
    t, phi = t0, phi0
    s_cur = 0.0
    for _ in range(max_steps):
        dev = [phi.apply(v) for v in s.triangles[t]]
        for li in range(3):
            if np.linalg.norm(dev[li] - w) < 1e-9 * max(1.0, norm):
                return (t, li, phi)
        exit_s, exit_e = None, None
        for e in range(3):
            a, b = dev[e], dev[(e + 1) % 3]
            ab = b - a
            denom = float(d[0] * ab[1] - d[1] * ab[0])
            if abs(denom) < 1e-14:
                continue
            s_hit = float(a[0] * ab[1] - a[1] * ab[0]) / denom
            if s_hit <= s_cur + 1e-12 * max(1.0, norm):
                continue
            p_hit = s_hit * d
            uu = float((p_hit - a) @ (b - a)) / float((b - a) @ (b - a))
            if -1e-9 <= uu <= 1 + 1e-9 and (exit_s is None
                                            or s_hit < exit_s):
                exit_s, exit_e, exit_u = s_hit, e, uu
        if exit_s is None:
            return None
        if exit_s >= norm - 1e-9 * max(1.0, norm):
            # w should have matched a vertex before the segment ends
            return None
        if exit_u < 1e-7 or exit_u > 1 - 1e-7:
            return None  # passes through a vertex: blocked
        t2, _ = s.gluings[(t, exit_e)]
        phi = phi.compose(s.isometries[(t, exit_e)].inverse())
        t = t2
        s_cur = exit_s
    return None
