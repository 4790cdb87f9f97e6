"""Independent oracles used to freeze expected values.

These deliberately avoid the library's algorithms: shortest homotopic loops
come from Dijkstra on a refined strip mesh, saddle connections from
depth-limited unfolding with explicit segment tracing, torus intersection
numbers from the lattice formula, grid Laplacians from second differences,
Newton-step solves from SciPy's conjugate gradients, the radial Wang
solution for q = z^k from SciPy's BVP solver.
Strips are developed here with 2 x 2 rotation matrices and (x, y) arrays,
not with the library's complex isometries.  ``random_closed_strip`` draws the random classes that several
tests share.  ``restart_scan_simplify`` removes backtracks from a crossing
word by the strip's former restart scan, which its one stack pass must
match.

``sequential_saddle_connections`` is the one exception: the saddle
enumerator as a queue of single wedges in Python complex arithmetic, with
its wedge tests composed from ``planar.cross``, ``left_of`` and ``dot``.
The enumerator advances whole levels of wedges in arrays and must give the
same list, field for field and in the same order.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.fft import dstn, idstn
from scipy.sparse.csgraph import dijkstra as csgraph_dijkstra

from cubiclab.errors import BadParameters, NoConvergence, TrivialClass
from cubiclab.flatsurface.geodesics import HomotopyClassPath
from cubiclab.flatsurface.planar import (EPS, angle_between, cross, dot,
                                         left_of)
from cubiclab.flatsurface.saddles import SaddleConnection
from cubiclab.flatsurface.saddles import _intrinsic as _fan_angle


# -- developing strips with rotation matrices ---------------------------------

def _corners(s, t):
    """The corners of triangle t as (x, y) arrays."""
    return [np.array([z.real, z.imag]) for z in s.triangles[t]]


def _rotation(angle):
    c, sn = math.cos(angle), math.sin(angle)
    return np.array([[c, -sn], [sn, c]])


@dataclass(frozen=True)
class _Isometry:
    """p -> R(rot) p + t, R the rotation matrix of the angle rot."""

    rot: float
    t: np.ndarray

    def apply(self, p):
        return _rotation(self.rot) @ p + self.t

    def compose(self, other):
        """self after other."""
        return _Isometry(self.rot + other.rot, self.apply(other.t))

    def inverse(self):
        return _Isometry(-self.rot, -(_rotation(-self.rot) @ self.t))


def _unfolders(s):
    """For each slot, the isometry from the chart of the glued triangle
    into the chart of the slot's own triangle.  The slot's edge a -> b
    is the partner edge d -> c, reversed."""
    out = {}
    for (t, e), (t2, e2) in s.gluings.items():
        tri, tri2 = _corners(s, t), _corners(s, t2)
        a, b = tri[e], tri[(e + 1) % 3]
        c, d = tri2[e2], tri2[(e2 + 1) % 3]
        u, v = b - a, c - d
        rot = math.atan2(v[1], v[0]) - math.atan2(u[1], u[0])
        out[(t, e)] = _Isometry(rot, d - _rotation(rot) @ a).inverse()
    return out


def _develop(s, crossings):
    """Chart-to-plane maps phi_0..phi_n along a strip."""
    unfold = _unfolders(s)
    phis = [_Isometry(0.0, np.zeros(2))]
    for slot in crossings:
        phis.append(phis[-1].compose(unfold[slot]))
    return phis


def pivot_side_angles(g):
    """(orbit, strip-side angle, far-side angle) of each cone point that
    the tightened geodesic g visits, in the order of ``g.cone_visits``.

    The strip is developed with rotation matrices.  Crossings pinned at one
    developed point (to 1e-9 of the strip's size) form a run, read from the
    first free crossing on; the strip-side angle of a run is the corner sum:
    the unsigned angle from the incoming segment to the first pinned edge,
    the corner angles at the vertex between consecutive pinned edges and
    the unsigned angle from the last pinned edge to the outgoing segment.
    """
    s, n = g.surface, len(g.crossings)
    phis = _develop(s, g.crossings)
    pin = [0 if u <= EPS else 1 if u >= 1.0 - EPS else None
           for u in g.params]

    def edge(m):
        """Developed ends of edge m, m in [-n, 2n), through the holonomy
        past the seam."""
        t, e = g.crossings[m % n]
        ends = [phis[m % n].apply(_corners(s, t)[c])
                for c in (e, (e + 1) % 3)]
        if m >= n:
            ends = [phis[n].apply(p) for p in ends]
        elif m < 0:
            ends = [phis[n].inverse().apply(p) for p in ends]
        return ends

    def point(m):
        a, b = edge(m)
        return a + g.params[m % n] * (b - a)

    def angle(u, v):
        return angle_between(complex(*u), complex(*v))

    scale = max(np.linalg.norm(p) for m in range(n) for p in edge(m))

    def same(m):
        return np.linalg.norm(point(m) - point(m - 1)) <= 1e-9 * scale

    # a run starts at a pinned crossing whose predecessor is free or sits
    # at another point
    start = next((k for k in range(n) if pin[k] is None),
                 next((k for k in range(n) if not same(k)), None))
    if start is None:
        return []
    runs = []
    for m in range(start, start + n):
        if pin[m % n] is None:
            continue
        if pin[(m - 1) % n] is not None and same(m):
            runs[-1].append(m)
        else:
            runs.append([m])
    out = []
    for run in runs:
        i, j = run[0], run[-1]
        side = pin[i % n]
        far = [edge(m)[1 - side] - point(m) for m in (i, j)]
        ang = angle(point(i - 1) - point(i), far[0])
        for m in run[1:]:
            t, e = g.crossings[m % n]
            ang += s.corner_angle(t, (e + side) % 3)
        ang += angle(far[1], point(j + 1) - point(j))
        t, e = g.crossings[i % n]
        orbit = s.orbit_of[(t, (e + side) % 3)]
        if s.orbit_orders[orbit] != 0:
            out.append((orbit, ang, float(s.orbit_angles[orbit]) - ang))
    return out


def five_point_laplacian(f, dx, dy):
    """The 5-point Laplacian as second differences (``np.diff``) along each
    axis, on the interior nodes with NaN on the rim."""
    inner = (np.diff(f, 2, axis=1)[1:-1] / dx ** 2
             + np.diff(f, 2, axis=0)[:, 1:-1] / dy ** 2)
    out = np.full(f.shape, np.nan)
    out[1:-1, 1:-1] = inner
    return out


def scipy_pcg(grid, mask, fp, b, tol):
    """(-Lap + diag fp) d = b on the stencil block by
    ``scipy.sparse.linalg.cg`` on the block's flattened arrays, with linear
    operators: the 5-point matvec (fp p - Lap p) mask, and as preconditioner
    M r mask.  M is (-Lap + c)^-1, c the mean of fp, when the 0/1 ``mask``
    pins no node of the block: by sine transforms on the block, in single
    precision: r rounded to float32, divided by the float32 rounding of the
    double eigenvalues, transformed back and widened to float64.  When it
    pins some, M is the grid's own ``preconditioner``, the V-cycle.
    Tolerances atol = 0.01 tol, rtol = 1e-3 min(1, max|b|); d as a block
    array."""
    def symbol(n, h):
        j, m = np.arange(1, n - 1), 2 * n - 2
        return (2.0 / h * np.sin(np.pi * j / m)) ** 2

    eig = (symbol(grid.ny, grid.dy)[:, None] + symbol(grid.nx, grid.dx)[None]
           + float(fp[mask > 0].mean())).astype(np.float32)

    def matvec(v):
        v = v.reshape(mask.shape)
        full = np.zeros((grid.ny, grid.nx))
        full[grid.inner] = v
        return ((fp * v - grid.laplacian(full)) * mask).ravel()

    def spectral(w):
        return idstn(dstn(w.astype(np.float32), type=1) / eig, type=1)

    precondition = spectral if mask.all() else grid.preconditioner(fp, mask)
    shape = (b.size, b.size)
    M = spla.LinearOperator(shape, lambda v: (precondition(
        v.reshape(mask.shape)).astype(float) * mask).ravel(), dtype=float)
    d, info = spla.cg(spla.LinearOperator(shape, matvec, dtype=float),
                      b.ravel(), rtol=1e-3 * min(1.0, float(np.abs(b).max())),
                      atol=0.01 * tol, maxiter=500, M=M)
    assert info == 0, f"SciPy's cg stopped after {info} iterations"
    return d.reshape(mask.shape)


def radial_wang(k, R):
    """The whole-plane Wang solution for q = z^k dz^3 as a function of r,
    on [0, R]: |q| is radial, so psi solves the ODE

        psi'' + psi'/r = 2 e^psi - 4 r^(2k) e^(-2 psi),

    with psi'(0) = 0 through the singular term and psi(R) = log(2 R^(2k))/3,
    the flat metric's value, which the solution approaches faster than any
    power.  SciPy's collocation BVP solver, at tolerance 1e-10."""
    from scipy.integrate import solve_bvp

    def rhs(r, y):
        return np.vstack([y[1], 2.0 * np.exp(y[0])
                          - 4.0 * r ** (2 * k) * np.exp(-2.0 * y[0])])

    def bc(ya, yb):
        return np.array([ya[1], yb[0] - math.log(2.0 * R ** (2 * k)) / 3.0])

    r = np.linspace(0.0, R, 200)
    guess = np.vstack([np.log(2.0 * (1.0 + r ** (2 * k))) / 3.0,
                       np.zeros_like(r)])
    sol = solve_bvp(rhs, bc, r, guess, S=np.diag([0.0, -1.0]), tol=1e-10,
                    max_nodes=100_000)
    if not sol.success:
        raise NoConvergence(f"radial Wang BVP for k={k}, R={R}: "
                            f"{sol.message}")
    return lambda radius: sol.sol(radius)[0]


def lattice_norm(p, q, a=1.0, b=1.0):
    return math.hypot(p * a, q * b)


def random_closed_strip(s, rng, min_len):
    """A random closed walk through the triangles, started in triangle 0,
    that never steps straight back across the edge it just crossed."""
    t, seq, entered = 0, [], None
    while True:
        e = rng.choice([e for e in range(3) if (t, e) != entered])
        seq.append((t, e))
        entered = s.gluings[(t, e)]
        t = entered[0]
        if len(seq) >= min_len and t == 0 and s.gluings[seq[-1]] != seq[0]:
            return HomotopyClassPath(tuple(seq))


def restart_scan_simplify(gluings, crossings, params):
    """A crossing word with its immediate backtracks removed, as the strip
    once did it: scan the cyclic word from its start, delete the first
    crossing re-crossed by its successor (the seam pair last) together with
    that successor, and scan again.  Returns (crossings, params); raises
    TrivialClass if nothing is left."""
    crossings, params = list(crossings), list(params)
    changed = True
    while changed:
        changed = False
        n = len(crossings)
        if n == 0:
            raise TrivialClass("class simplified to the trivial loop")
        for k in range(n):
            k2 = (k + 1) % n
            if gluings[crossings[k]] == crossings[k2]:
                for idx in sorted((k, k2), reverse=True):
                    del crossings[idx]
                    del params[idx]
                changed = True
                break
    if not crossings:
        raise TrivialClass("class simplified to the trivial loop")
    return crossings, params


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
    phis = _develop(s, crossings)
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
        dev = [phis[k].apply(v) for v in _corners(s, t)]
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

def _frame_key(t, phi, unit):
    """Triangle t developed by phi, up to rounding in units of unit."""
    return (t, round(math.remainder(phi.rot, 2.0 * math.pi), 9),
            round(phi.t[0] / unit, 9), round(phi.t[1] / unit, 9))


def brute_saddle_connections(s, max_length: float, depth: int):
    """Saddle connections up to ``max_length`` by depth-limited unfolding,
    between cone points or marked punctures.

    Candidate endpoints are all developed vertices reachable within
    ``depth`` gluing steps; each candidate segment is then traced from
    scratch through the triangulation, rejecting any that pass a vertex.
    Deduplication matches the library's unoriented-segment identity
    (endpoint orbits, length, intrinsic fan angles at both ends).
    """
    found = {}
    ends = {cp.orbit for cp in s.cone_points} | s.marked_punctures
    fan_cum = _fan_cumulative(s)
    unfold = _unfolders(s)
    unit = max(s.edge_length(slot) for slot in s.gluings)

    for orbit in sorted(ends):
        for (t0, i0) in s.vertex_orbits[orbit]:
            tri = _corners(s, t0)
            shift = _Isometry(0.0, -tri[i0])
            # developed endpoints, deduplicated in units of the longest
            # edge; each is traced at its exact coordinates
            candidates = {}
            queue = deque([(t0, shift, 0)])
            # BFS meets each developed frame first at its least depth, so
            # a frame met again adds no candidate and is not expanded
            seen = {_frame_key(t0, shift, unit)}
            while queue:
                t, phi, d = queue.popleft()
                for w in (phi.apply(v) for v in _corners(s, t)):
                    norm = float(np.linalg.norm(w))
                    if 1e-12 * unit < norm <= max_length + 1e-12 * unit:
                        candidates.setdefault((round(w[0] / unit, 9),
                                               round(w[1] / unit, 9)), w)
                if d < depth:
                    for e in range(3):
                        t2, _ = s.gluings[(t, e)]
                        phi2 = phi.compose(unfold[(t, e)])
                        key = _frame_key(t2, phi2, unit)
                        if key not in seen:
                            seen.add(key)
                            queue.append((t2, phi2, d + 1))
            ray1 = shift.apply(tri[(i0 + 1) % 3])
            ray2 = shift.apply(tri[(i0 + 2) % 3])
            for w in candidates.values():
                # the segment must leave through this corner's wedge
                if (ray1[0] * w[1] - ray1[1] * w[0] < -1e-12
                        or w[0] * ray2[1] - w[1] * ray2[0] < -1e-12):
                    continue
                arrival = _trace_from_corner(s, unfold, t0, i0, shift, w)
                if arrival is None:
                    continue
                t_arr, li_arr, phi_arr = arrival
                t_orbit = s.orbit_of[(t_arr, li_arr)]
                if t_orbit not in ends:
                    continue
                dev = [phi_arr.apply(v) for v in _corners(s, t_arr)]
                ang_a = _intrinsic(s, fan_cum, (t0, i0),
                                   shift.apply(tri[(i0 + 1) % 3]), w)
                ang_b = _intrinsic(s, fan_cum, (t_arr, li_arr),
                                   dev[(li_arr + 1) % 3] - w, -w)
                norm = float(np.linalg.norm(w))
                key = (min(orbit, t_orbit), max(orbit, t_orbit),
                       round(norm, 9),
                       tuple(sorted((round(ang_a, 7), round(ang_b, 7)))))
                found.setdefault(key, norm)
    return sorted(found.values()), found


# -- saddle connections one wedge at a time -----------------------------------

# The wedge tests as compositions of planar.cross, left_of and dot; the
# array forms in planar.py must round exactly as these do

def in_wedge(w1, w2, c):
    """Whether c lies strictly inside the wedge from w1 to w2."""
    return left_of(w1, c) and left_of(c, w2)


def clip_cone(a1, a2, b1, b2):
    """The ccw cone (s, e) where the cones a1 -> a2 and b1 -> b2 overlap
    beyond rounding, or None."""
    s = b1 if cross(a1, b1) > 0 else a1
    e = b2 if cross(b2, a2) > 0 else a2
    if not left_of(s, e):
        return None
    return s, e


def origin_to_segment(a, b):
    """Distance from the origin to the segment [a, b]."""
    d = b - a
    L2 = dot(d, d)
    if L2 == 0.0:
        return abs(a)
    t = min(1.0, max(0.0, -dot(a, d) / L2))
    return abs(a + t * d)


def sequential_saddle_connections(s, max_length: float,
                                  max_expansions: int = 2_000_000
                                  ) -> list[SaddleConnection]:
    """``enumerate_saddle_connections`` one wedge at a time: start corner
    by start corner, each with its own first-in first-out queue, every
    wedge recorded and expanded as it is popped."""
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
        ang_start = _fan_angle(s, start_corner, start_ray, w)
        ang_end = _fan_angle(s, target_corner, target_ray, -w)
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


def _fan_cumulative(s):
    cum = {}
    for fan in s.fans:
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


def _trace_from_corner(s, unfold, t0, i0, phi0, w, max_steps=500):
    """Trace the segment from the corner vertex to developed point w,
    crossing edge interiors only.  Returns the arrival (triangle, vertex,
    frame) or None when blocked or off course."""
    norm = float(np.linalg.norm(w))
    d = w / norm
    t, phi = t0, phi0
    s_cur = 0.0
    for _ in range(max_steps):
        dev = [phi.apply(v) for v in _corners(s, t)]
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
        phi = phi.compose(unfold[(t, exit_e)])
        t = t2
        s_cur = exit_s
    return None
