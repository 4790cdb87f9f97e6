"""Geodesic representatives of free homotopy classes on flat cone surfaces.

A class is encoded combinatorially as a cyclic sequence of directed edge
crossings (a triangle strip).  Tightening alternates two moves until the
local geodesic criterion holds: the exact shortest closed polyline within
the current strip, and a combinatorial slide of the strip across a vertex
whenever the polyline pins there with angle < pi on one side.  A returned
representative is certified by the angle condition: at every visited cone
point both side angles are at least pi.

The in-strip solve develops the strip once.  For a point P0 on the first
edge, the funnel (string-pulling) algorithm of Lee and Preparata gives the
shortest path through the strip from P0 to its image under the holonomy;
its length is convex in the position of P0, which a safeguarded root find
on the slope fixes (Hershberger and Snoeyink, "Computing minimum length
paths of a given homotopy class", CGTA 4, 1994, treat closed classes the
same way).  When the holonomy is a translation and a straight line crosses
the whole strip, the class is cylindrical and the line through the middle
of the family is returned: exactly collinear and off the one-skeleton.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..errors import BadParameters, NoConvergence, TrivialClass
from .planar import EPS, PlanarIsometry, cross, dot, turn
from .surface import Slot, TriangulatedFlatSurface

# how far below pi a side angle at a cone point may read and still certify a
# geodesic: the slack of the check, not a rounding decision of the solve
ANGLE_SLACK = 1e-7
# bracket width on the edge-0 parameter at which a strip solve stops
_U_EPS = 2.0 ** -52


def is_translation(H: PlanarIsometry) -> bool:
    """Whether the holonomy H is a translation, beyond rounding."""
    return abs(H.rot - 1.0) <= EPS


@dataclass(frozen=True)
class HomotopyClassPath:
    """A free homotopy class as a cyclic triangle strip.

    ``crossings[k] = (t, e)`` means the loop leaves triangle t through its
    edge slot e; the next crossing must start from the glued neighbour.
    """

    crossings: tuple[Slot, ...]
    label: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "crossings",
                           tuple((int(t), int(e)) for t, e in self.crossings))
        if not self.crossings:
            raise BadParameters(f"a homotopy class needs at least one "
                                f"crossing, got {self.crossings}")

    def validate_on(self, s: TriangulatedFlatSurface) -> None:
        n = len(self.crossings)
        for k, (t, e) in enumerate(self.crossings):
            if not (0 <= t < s.num_triangles and 0 <= e < 3):
                raise BadParameters(f"crossing {k} references invalid slot "
                                    f"{(t, e)}")
            nxt_tri = s.gluings[(t, e)][0]
            t_next = self.crossings[(k + 1) % n][0]
            if t_next != nxt_tri:
                raise BadParameters(
                    f"crossings {k} -> {(k + 1) % n} do not share a triangle: "
                    f"edge {(t, e)} leads into {nxt_tri}, not {t_next}")

    def __len__(self) -> int:
        return len(self.crossings)


@dataclass(frozen=True)
class ConeVisit:
    """A cone point visited by a geodesic, with the two side angles."""

    orbit: int
    side_angles: tuple[float, float]  # (strip side, far side)


@dataclass(frozen=True)
class GeodesicRepresentative:
    """A tightened polyline geodesic.

    ``segments`` lists (triangle, entry chart point, exit chart point); the
    crossing data (slots and edge parameters) is kept for downstream
    operations such as cylinder detection and intersection counts.
    """

    surface: TriangulatedFlatSurface = field(repr=False)
    crossings: tuple[Slot, ...]
    params: tuple[float, ...]
    length: float
    kind: str  # "nonsingular" | "cone-concatenation"
    cone_visits: tuple[ConeVisit, ...]
    holonomy: PlanarIsometry
    label: str | None = None

    @property
    def segments(self) -> list[tuple[int, complex, complex]]:
        s = self.surface
        n = len(self.crossings)
        out = []
        for k in range(n):
            prev = (k - 1) % n
            p_slot, p_u = s.partner_param(self.crossings[prev], self.params[prev])
            entry = s.edge_point(p_slot, p_u)
            exit_ = s.edge_point(self.crossings[k], self.params[k])
            out.append((self.crossings[k][0], entry, exit_))
        return out

    def angle_condition_ok(self, tol: float = ANGLE_SLACK) -> bool:
        return all(min(v.side_angles) >= math.pi - tol for v in self.cone_visits)


# -- developing a strip -----------------------------------------------------

def develop_strip(s: TriangulatedFlatSurface, crossings) -> list[PlanarIsometry]:
    """Chart-to-plane maps phi_0..phi_n for the strip; phi_n is the holonomy.

    phi_k maps the chart of the triangle entered after crossing k-1 into the
    common developed frame (phi_0 is the identity on the start triangle).
    """
    phis = [PlanarIsometry(1 + 0j, 0j)]
    for slot in crossings:
        iso = s.isometries[slot]
        phis.append(phis[-1].compose(iso.inverse()))
    return phis


def pin_side(u: float) -> int | None:
    """The end of an edge at which its param u pins: 0 at its start (the
    strip's right), 1 at its end (the strip's left), None inside."""
    if u <= EPS:
        return 0
    if u >= 1.0 - EPS:
        return 1
    return None


def pinned_corner(slot: Slot, u: float) -> int | None:
    """The corner of the slot's triangle at which edge param u pins, or
    None when u is inside the edge."""
    side = pin_side(u)
    return None if side is None else (slot[1] + side) % 3


class _Strip:
    """Mutable tightening state: a strip with developed data and params."""

    def __init__(self, s: TriangulatedFlatSurface, crossings, params=None):
        self.s = s
        self.crossings = list(crossings)
        self.params = list(params) if params is not None else [0.5] * len(crossings)
        self.simplify()
        self.refresh()

    def refresh(self):
        phis = develop_strip(self.s, self.crossings)
        self.edges = []
        for k, slot in enumerate(self.crossings):
            a, b = self.s.edge_endpoints(slot)
            self.edges.append((phis[k](a), phis[k](b)))
        self.holonomy = phis[-1]
        # the strip's length scale, for tolerances on developed points
        self.scale = max(abs(z) for ab in self.edges for z in ab)
        # shares[k]: the endpoint side (0 right, 1 left) that edges k and
        # k+1 have in common, from the triangle between them
        self.shares = []
        n = len(self.crossings)
        for k, slot in enumerate(self.crossings):
            _t2, e2 = self.s.gluings[slot]
            e_next = self.crossings[(k + 1) % n][1]
            self.shares.append(0 if e_next == (e2 + 1) % 3 else 1)

    def point(self, k):
        A, B = self.edges[k]
        return A + self.params[k] * (B - A)

    def _developed(self, m, end=None):
        """Point m of the polyline, or end ``end`` of edge m, for m in
        [-n, 2n): past the seam, that of crossing m mod n moved by the
        holonomy."""
        n = len(self.crossings)
        z = self.point(m % n) if end is None else self.edges[m % n][end]
        if m < 0:
            return self.holonomy.inverse()(z)
        return self.holonomy(z) if m >= n else z

    def length(self) -> float:
        n = len(self.crossings)
        pts = [self._developed(m) for m in range(n + 1)]
        return sum(abs(pts[k + 1] - pts[k]) for k in range(n))

    def solve(self, tol: float) -> None:
        """Put the params on the shortest polyline of the current strip.

        The portals are the developed edges 1..n-1.  For a start point P0 on
        edge 0 the funnel gives the shortest path from P0 to H(P0), H the
        holonomy; its length f(u0) is convex in the edge-0 parameter u0, and
        u0 is found by a safeguarded root find on the slope f'(u0).  When H
        is a translation and a straight line crosses every portal, the
        minimisers form a flat family and P0 goes to the middle of it.
        """
        n = len(self.crossings)
        pts = self.edges
        tiny = EPS * self.scale
        H = self.holonomy
        if is_translation(H) and self.centre_family(tiny):
            return
        A0, B0 = pts[0]
        e0 = B0 - A0
        el = abs(e0)
        ends_q = (H(A0), H(B0))  # edge 0 moved by the holonomy
        re0 = H.rot * e0  # its direction, turned by the linear part of H
        H_inv = H.inverse()
        rights = [a for a, _b in pts[1:]]
        lefts = [b for _a, b in pts[1:]]

        def wraps(side, first, last):
            """Whether the path turns by more than pi through the strip
            round the vertex P sits on (side 0: A0, 1: B0) where it leaves
            P, and round its image where it reaches Q.  The spokes are the
            far ends of the edges through the vertex, in strip order."""
            sign = 2 * side - 1  # clockwise round a right vertex
            spokes = [pts[j][1 - side] for j in self._fan(0, side, 0, n - 1)]
            at_p = _swept(pts[0][side], spokes + [first], sign)
            spokes = [pts[j][1 - side] for j in self._fan(n, side, 1, n)
                      if j < n] + [ends_q[1 - side]]
            at_q = _swept(ends_q[side], [last] + spokes, sign)
            return at_p > math.pi, at_q > math.pi

        def evaluate(u):
            """(slope f'(u), candidate u from the corners, corners, P, Q).

            f'(u) = (R^T v_last - v_first) . e0 for the unit directions of
            the first and the last segment.  At u = 0 or 1 these are the
            one-sided limits from inside edge 0: a path that wraps round
            the vertex runs along edge 0 next to it.
            """
            P = A0 + u * e0
            Q = H(P)
            corners = _funnel(P, Q, rights, lefts, tiny)
            verts = [pts[k][side] for k, side in corners]
            first = verts[0] if verts else Q
            last = verts[-1] if verts else P
            v_first = _unit(first - P, tiny)
            v_last = _unit(Q - last, tiny)
            if u in (0.0, 1.0):
                w_p, w_q = wraps(int(u), first, last)
                toward = 2.0 * u - 1.0  # along e0 toward the vertex
                if w_p or v_first == 0:
                    v_first = toward * e0 / el
                if w_q or v_last == 0:
                    v_last = -toward * re0 / el
            slope = dot(v_last, re0) - dot(v_first, e0)
            cand = None
            if verts:
                # edge 0 meets the line through H^-1(last corner) and the
                # first corner: exact if the corners stay the same
                X = H_inv(verts[-1])
                d = verts[0] - X
                den = cross(d, e0)
                if den != 0.0:
                    cand = cross(d, X - A0) / den
            return slope, cand, corners, P, Q

        # an end of edge 0 is the minimiser iff the length does not fall
        # into the edge from there: decided by sign, so that a loose tol
        # never pins the path at a vertex
        slope_tol = tol * el
        u = 0.0
        slope, cand, *path = evaluate(u)
        if slope < 0.0:
            u = 1.0
            slope, cand, *path = evaluate(u)
            lo, hi, width = 0.0, 1.0, 2.0
            while slope > 0.0 if u == 1.0 else abs(slope) > slope_tol:
                if slope < 0.0:
                    lo = u
                else:
                    hi = u
                if hi - lo <= _U_EPS:
                    break
                # bisect when the corner step leaves the bracket, or when
                # the last step did not halve it
                bisect = (hi - lo > 0.5 * width or cand is None
                          or not lo < cand < hi)
                width = hi - lo
                u = 0.5 * (lo + hi) if bisect else cand
                slope, cand, *path = evaluate(u)
        self._place(u, *path, pts)

    def family(self):
        """Offsets of a translation holonomy's parallel lines in the strip.

        The line through P0 with direction T crosses portal k inside iff
        its offset nu = cross(d, P0) lies in [nu(A_k), nu(B_k)], d = T/|T|.
        Returns the offsets of the portal ends and the interval (lo, hi) of
        the lines that cross every portal.
        """
        T = self.holonomy.shift
        d = T / abs(T)
        nus = [(cross(d, a), cross(d, b)) for a, b in self.edges]
        return nus, max(a for a, _b in nus), min(b for _a, b in nus)

    def centre_family(self, tiny) -> bool:
        """Centre a straight line with the holonomy's direction in the strip.

        Returns False (and changes nothing) if the lines that cross every
        portal span no more than tiny.
        """
        if self.holonomy.shift == 0:
            return False
        nus, lo, hi = self.family()
        if hi - lo <= tiny:
            return False
        mid = 0.5 * (lo + hi)
        self.params = [(mid - a) / (b - a) for a, b in nus]
        return True

    def _place(self, u, corners, P, Q, pts) -> None:
        """Set the params from the funnel path P, corners..., Q."""
        n = len(self.crossings)
        params = [u] + [None] * (n - 1)
        if u in (0.0, 1.0):
            # edges through the vertex P (and Q) sits on are crossed there
            for j in self._fan(0, int(u), 0, n - 1):
                params[j] = u
            for j in self._fan(n, int(u), 1, n):
                params[j % n] = u
        path = [(0, P)]
        for k, side in corners:
            path.append((k, pts[k][side]))
            # every edge through the corner's vertex is crossed there
            for j in self._fan(k, side, 1, n - 1):
                params[j] = float(side)
        path.append((n, Q))
        for (ka, X), (kb, Y) in zip(path, path[1:]):
            d = Y - X
            for k in range(ka + 1, kb):
                if params[k] is not None:
                    continue
                A, B = pts[k]
                den = cross(d, B - A)
                if den == 0.0:
                    # a zero-length segment sits on an endpoint
                    params[k] = 0.0 if abs(A - X) <= abs(B - X) else 1.0
                    continue
                t = cross(d, X - A) / den
                params[k] = min(1.0, max(0.0, t))
        self.params = params

    def _fan(self, k, side, lo, hi):
        """Edges lo..hi joined to edge k by edges that all share its
        endpoint on ``side`` (0 right, 1 left); edge n is edge 0 moved by
        the holonomy."""
        j0 = k
        while j0 > lo and self.shares[j0 - 1] == side:
            j0 -= 1
        j1 = k
        while j1 < hi and self.shares[j1] == side:
            j1 += 1
        return range(j0, j1 + 1)

    # -- pivots and slides --------------------------------------------------

    def pinned_vertex(self, k):
        """(chart vertex index, orbit) of pinned crossing k's endpoint."""
        i = pinned_corner(self.crossings[k], self.params[k])
        return i, self.s.orbit_of[(self.crossings[k][0], i)]

    def pivots(self):
        """(run, strip-side angle, far-side angle, orbit) for each maximal
        cyclic run of crossings pinned at one vertex, from the first free
        crossing on.  Crossing k joins the run of crossing k-1 exactly when
        both pin on one side and their edges share that endpoint (shares[k-1]);
        other pins are distinct corners of a triangle.  With all pinned, the
        crossings before the first start end the last run.  The strip-side
        angle is swept from the incoming point across the far ends of the
        run's edges to the outgoing point, a step per triangle corner."""
        n = len(self.crossings)
        pin = [pin_side(u) for u in self.params]
        first = next((k for k in range(n) if pin[k] is None), 0)
        runs, lead = [], []
        for k in [(first + off) % n for off in range(n)]:
            if pin[k] is None:
                continue
            if pin[k - 1] == pin[k] == self.shares[k - 1]:
                (runs[-1] if runs else lead).append(k)
            else:
                runs.append([k])
        if lead:
            if not runs:
                raise TrivialClass("polyline collapsed to a single vertex")
            runs[-1] += lead
        out = []
        for run in runs:
            i, side = run[0], pin[run[0]]
            j = i + len(run)  # the outgoing point, past the seam if wrapped
            pts = ([self._developed(i - 1)]
                   + [self._developed(k, 1 - side) for k in range(i, j)]
                   + [self._developed(j)])
            ang = _swept(self.point(i), pts, 2 * side - 1)
            orbit = self.pinned_vertex(i)[1]
            out.append((run, ang, float(self.s.orbit_angles[orbit]) - ang,
                        orbit))
        return out

    def slide(self, group) -> None:
        """Push the polyline across the pivot vertex to the far side.

        The pinned crossings are replaced by the complementary fan round
        the vertex, and immediate backtracks are removed.  The params of
        the new crossings start away from the vertex, for the caller to
        solve or set.
        """
        i, j = group[0], group[-1]
        ci, orbit = self.pinned_vertex(i)
        t_i, e_i = self.crossings[i]
        fan = self.s.fans[orbit]
        m = len(fan)
        a, b = fan.index((t_i, ci)), fan.index(self._exit_corner(j))
        # the fan is empty when the path enters and leaves the vertex in
        # one corner: the strip then wound round it the whole way.  The
        # new crossings start away from the pivot end of their edges.
        if e_i == ci:
            # the strip went clockwise, so the complementary fan runs
            # counterclockwise across the edges ending at the vertex
            corners = [fan[(a + k) % m] for k in range((b - a) % m)]
            new_slots = [(t, (c + 2) % 3) for t, c in corners]
            u_new = 0.25
        else:
            # clockwise, across the edges starting at the vertex
            new_slots = [fan[(a - k) % m] for k in range((a - b) % m)]
            u_new = 0.75

        # replace crossings i..j (cyclic) with the complementary fan,
        # rebuilding in cyclic order starting at crossing (j+1) % n
        n = len(self.crossings)
        order = [(j + 1 + k) % n for k in range((i - j - 1) % n)]
        self.crossings = [self.crossings[k] for k in order] + new_slots
        self.params = ([self.params[k] for k in order]
                       + [u_new] * len(new_slots))
        self.simplify()
        self.refresh()

    def _exit_corner(self, j):
        """Corner of the pivot vertex in the triangle after crossing j."""
        s = self.s
        t2, e2 = s.gluings[self.crossings[j]]
        u = self.params[j]
        return (t2, (e2 + 1) % 3) if u <= 0.5 else (t2, e2)

    def simplify(self) -> None:
        """Remove immediate backtracks (crossing an edge and re-crossing
        it), across the seam too: one stack pass, then the two ends trimmed
        while they cancel."""
        gluings, kept = self.s.gluings, []
        for pair in zip(self.crossings, self.params):
            if kept and gluings[kept[-1][0]] == pair[0]:
                kept.pop()
            else:
                kept.append(pair)
        lo, hi = 0, len(kept)
        while hi - lo > 1 and gluings[kept[hi - 1][0]] == kept[lo][0]:
            lo, hi = lo + 1, hi - 1
        if lo == hi:
            raise TrivialClass("class simplified to the trivial loop")
        self.crossings = [slot for slot, _u in kept[lo:hi]]
        self.params = [u for _slot, u in kept[lo:hi]]


def _unit(z: complex, tiny: float) -> complex:
    """z normalised, or 0 if it is shorter than tiny."""
    r = abs(z)
    return 0j if r <= tiny else z / r


def _swept(V, points, sign) -> float:
    """Angle at V turned from points[0] through points[1:], each step
    counterclockwise (sign 1) or clockwise (sign -1) by less than pi."""
    total = 0.0
    for a, b in zip(points, points[1:]):
        total += math.atan2(sign * cross(a - V, b - V), dot(a - V, b - V))
    return total


def _funnel(P, Q, rights, lefts, tiny):
    """Corners of the shortest path from P to Q through a chain of portals.

    Portal i runs from rights[i] to lefts[i], the endpoints on the right
    and the left of the direction of travel.
    Returns the corners in path order as (portal index + 1, side), side 0
    for a right endpoint and 1 for a left one (the string-pulling funnel of
    Lee and Preparata).  A point closer than tiny to the apex is the apex:
    it constrains no direction, and vertices shared by consecutive portals
    but developed through different charts agree.
    """
    rights = rights + [Q]
    lefts = lefts + [Q]
    apex = right = left = P
    right_i = left_i = -1
    corners = []

    def near(a, b):
        return abs(a - b) <= tiny

    i = 0
    while i < len(rights):
        r, l = rights[i], lefts[i]
        if near(r, apex) or near(l, apex):
            i += 1  # the portal passes through the apex
            continue
        if not near(r, right) and (near(right, apex)
                                   or turn(apex, right, r) >= 0.0):
            if near(left, apex) or near(r, left) or \
                    turn(apex, left, r) <= 0.0:
                right, right_i = r, i
            else:
                # the right side crossed the left one: its vertex is a corner
                corners.append((left_i + 1, 1))
                apex = right = left
                right_i = left_i
                i = left_i + 1
                continue
        if not near(l, left) and (near(left, apex)
                                  or turn(apex, left, l) <= 0.0):
            if near(right, apex) or near(l, right) or \
                    turn(apex, right, l) >= 0.0:
                left, left_i = l, i
            else:
                corners.append((right_i + 1, 0))
                apex = left = right
                left_i = right_i
                i = right_i + 1
                continue
        i += 1
    return corners


def tighten_geodesic(s: TriangulatedFlatSurface, path: HomotopyClassPath,
                     tol: float = EPS, max_iterations: int = 100_000,
                     initial_params=None) -> GeodesicRepresentative:
    """Shorten a combinatorial loop to a geodesic representative.

    Alternates an exact shortest-path solve in the current strip with
    combinatorial slides across vertices until the angle condition
    certifies a geodesic.  ``tol`` bounds the slope of the length in the
    edge-0 parameter, per unit edge length, at which a solve stops;
    ``max_iterations`` bounds the solves plus slides.  ``initial_params``
    is accepted for existing callers; the exact solve does not read it.
    """
    path.validate_on(s)
    strip = _Strip(s, path.crossings)

    solves = slides = 0
    while True:
        strip.solve(tol)
        solves += 1
        pivots = strip.pivots()
        run = next((run for run, a1, a2, _orbit in pivots
                    if min(a1, a2) < (1.0 - EPS) * math.pi), None)
        if run is None:
            break
        if solves + slides >= max_iterations:
            raise NoConvergence(
                f"tightening used its budget of {max_iterations} solves "
                f"plus slides ({solves} solves, {slides} slides) with a "
                f"pivot left to slide; strip of {len(strip.crossings)} "
                f"crossings, last length {strip.length():.12g}")
        strip.slide(run)
        slides += 1

    visits = [ConeVisit(orbit, (a1, a2)) for _run, a1, a2, orbit in pivots
              if s.orbit_orders[orbit] != 0]
    kind = "cone-concatenation" if visits else "nonsingular"
    return GeodesicRepresentative(
        surface=s,
        crossings=tuple(strip.crossings),
        params=tuple(strip.params),
        length=strip.length(),
        kind=kind,
        cone_visits=tuple(visits),
        holonomy=strip.holonomy,
        label=path.label,
    )
