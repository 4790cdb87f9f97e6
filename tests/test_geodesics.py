import math

import numpy as np
import pytest

from cubiclab.errors import NoConvergence, TrivialClass
from cubiclab.flatsurface import HomotopyClassPath, presets, tighten_geodesic
from cubiclab.flatsurface.cylinders import detect_cylinder
from cubiclab.flatsurface.geodesics import _Strip, develop_strip
from oracles import (lattice_norm, pivot_side_angles, random_closed_strip,
                     restart_scan_simplify, strip_dijkstra_length)

TORUS_CLASSES = [(1, 0), (0, 1), (1, 1), (1, 2), (2, 3), (-1, 2), (3, -2)]


@pytest.mark.parametrize("p,q", TORUS_CLASSES)
def test_torus_lattice_norms(p, q):
    s = presets.square_torus()
    g = tighten_geodesic(s, presets.torus_class(p, q), tol=1e-12)
    assert g.kind == "nonsingular"
    assert abs(g.length - lattice_norm(p, q)) < 1e-9


def test_rectangle_torus_lattice_norms():
    s = presets.rectangle_torus(1.0, 3.0)
    for (p, q) in [(1, 0), (0, 1), (1, 1)]:
        g = tighten_geodesic(s, presets.torus_class(p, q, 1.0, 3.0), tol=1e-12)
        assert abs(g.length - lattice_norm(p, q, 1.0, 3.0)) < 1e-9


def test_octagon_width_classes():
    o = presets.regular_octagon()
    for cls in (presets.octagon_class_vertical(),
                presets.octagon_class_horizontal()):
        g = tighten_geodesic(o, cls, tol=1e-12)
        assert g.kind == "nonsingular"
        assert abs(g.length - (1.0 + math.sqrt(2.0))) < 1e-9


def test_octagon_product_class_certified():
    # vert*horiz has holonomy (1+sqrt2)(1, 1), parallel to sides 1 and 5.
    # In that direction the long diagonals cut the octagon into a central
    # rectangle and two trapezoids; the trapezoids glue into one flat
    # cylinder of circumference 1 + (1+sqrt2) = 2+sqrt2 and height sqrt2/2,
    # and vert*horiz is its core.
    o = presets.regular_octagon()
    g = tighten_geodesic(o, presets.octagon_class_product(), tol=1e-12)
    assert g.kind == "nonsingular"
    assert not g.cone_visits
    assert abs(g.length - (2.0 + math.sqrt(2.0))) < 1e-12
    cyl = detect_cylinder(g)
    assert not cyl.closed
    assert abs(cyl.circumference - (2.0 + math.sqrt(2.0))) < 1e-12
    assert abs(cyl.height - math.sqrt(2.0) / 2.0) < 1e-12
    assert cyl.boundary_orbits == ((0,), (0,))


def test_octagon_commutator_cone_concatenation(octagon_commutator):
    # [vert, horiz] runs along four sides of the octagon, saddle
    # connections of length 1 from the cone point to itself; at each of
    # the four visits the cone angle 6 pi splits into 3 pi/2 and 9 pi/2
    o = presets.regular_octagon()
    g = tighten_geodesic(o, octagon_commutator, tol=1e-12)
    assert g.kind == "cone-concatenation"
    assert abs(g.length - 4.0) < 1e-12
    assert len(g.cone_visits) == 4
    assert g.angle_condition_ok(tol=1e-12)
    for v in g.cone_visits:
        assert v.orbit == 0
        assert abs(min(v.side_angles) - 1.5 * math.pi) < 1e-9
        assert abs(max(v.side_angles) - 4.5 * math.pi) < 1e-9
        assert abs(sum(v.side_angles) - 6.0 * math.pi) < 1e-9


def test_dijkstra_oracle_upper_bounds_and_monotone_gap():
    s = presets.square_torus()
    for (p, q) in [(1, 2), (2, 3)]:
        cls = presets.torus_class(p, q)
        tight = tighten_geodesic(s, cls, tol=1e-12).length
        gaps = []
        for level in (4, 8, 16):
            oracle = strip_dijkstra_length(s, cls, level)
            assert oracle >= tight - 1e-9
            gaps.append(oracle - tight)
        # nested refinements cannot lengthen the oracle path; the 1e-12
        # slack on each link absorbs summation order (level 4 vs 8: 4e-16)
        assert gaps[1] <= gaps[0] + 1e-12
        assert gaps[2] <= gaps[1] + 1e-12
        assert gaps[2] >= -1e-12


def test_dijkstra_oracle_octagon():
    o = presets.regular_octagon()
    cls = presets.octagon_class_vertical()
    tight = tighten_geodesic(o, cls, tol=1e-12).length
    gaps = [strip_dijkstra_length(o, cls, level) - tight
            for level in (4, 8, 16)]
    assert all(g >= -1e-9 for g in gaps)
    assert gaps[0] >= gaps[1] >= gaps[2] >= -1e-9


def test_initial_params_do_not_change_length():
    s = presets.square_torus()
    cls = presets.torus_class(2, 3)
    rng = np.random.default_rng(11)
    lengths = []
    for _ in range(5):
        init = rng.uniform(0.2, 0.8, size=len(cls.crossings)).tolist()
        lengths.append(tighten_geodesic(s, cls, tol=1e-12,
                                        initial_params=init).length)
    assert max(lengths) - min(lengths) < 1e-9


def test_trivial_class_detected():
    s = presets.square_torus()
    # crossing an edge and returning straight back is null-homotopic
    slot = (0, 1)
    partner = s.gluings[slot]
    with pytest.raises(TrivialClass):
        tighten_geodesic(s, HomotopyClassPath((slot, partner)))


def test_invalid_strip_rejected():
    s = presets.square_torus()
    with pytest.raises(ValueError):
        tighten_geodesic(s, HomotopyClassPath(((0, 0), (0, 1))))


def test_scale_equivariance():
    o = presets.regular_octagon()
    big = o.scaled(3.0)
    cls = presets.octagon_class_vertical()
    l1 = tighten_geodesic(o, cls, tol=1e-12).length
    l2 = tighten_geodesic(big, cls, tol=1e-12).length
    assert abs(l2 - 3.0 * l1) < 1e-9
    # random classes tighten to the same polyline on tiny copies
    rng = np.random.default_rng(3)
    classes = [random_closed_strip(o, rng, int(rng.integers(6, 31)))
               for _ in range(60)]
    unit = [tighten_geodesic(o, c, tol=1e-12) for c in classes]
    for f in (1e-9, 1e-12):
        small = o.scaled(f)
        for cls, g in zip(classes, unit):
            h = tighten_geodesic(small, cls, tol=1e-12)
            assert (h.crossings, h.kind) == (g.crossings, g.kind)
            assert [v.orbit for v in h.cone_visits] == \
                [v.orbit for v in g.cone_visits]
            for v, w in zip(h.cone_visits, g.cone_visits):
                assert max(abs(a - b) for a, b in
                           zip(v.side_angles, w.side_angles)) < 1e-11
            assert abs(h.length / f - g.length) <= 1e-12 * g.length


def test_segments_concatenate():
    s = presets.square_torus()
    g = tighten_geodesic(s, presets.torus_class(1, 2), tol=1e-12)
    total = sum(float(np.linalg.norm(b - a)) for _t, a, b in g.segments)
    assert abs(total - g.length) < 1e-9


def test_long_torus_class_exact_from_any_start():
    # (34, 55) crosses 110 edges; the solve is exact, so near and far
    # starts give the lattice norm sqrt(4181) to rounding
    s = presets.square_torus()
    cls = presets.torus_class(34, 55)
    assert len(cls) == 110
    rng = np.random.default_rng(5)
    lengths = []
    for lo, hi in ((0.45, 0.55), (0.3, 0.7)):
        init = rng.uniform(lo, hi, size=len(cls)).tolist()
        lengths.append(tighten_geodesic(s, cls, tol=1e-12,
                                        initial_params=init).length)
    for length in lengths:
        assert abs(length - math.sqrt(4181.0)) / math.sqrt(4181.0) < 1e-12
    assert abs(lengths[0] - lengths[1]) < 1e-13 * lengths[0]


@pytest.mark.parametrize("surface,cls", [
    ("torus", (1, 0)), ("torus", (2, 3)), ("torus", (5, 8)),
    ("octagon", "vert"), ("octagon", "vert*horiz")])
def test_cylinder_core_is_straight_and_off_the_skeleton(surface, cls):
    # a cylindrical class comes back as the core line of its family:
    # every crossing inside its edge, all developed points on one line
    if surface == "torus":
        s, path = presets.square_torus(), presets.torus_class(*cls)
    else:
        s = presets.regular_octagon()
        path = {"vert": presets.octagon_class_vertical(),
                "vert*horiz": presets.octagon_class_product()}[cls]
    g = tighten_geodesic(s, path, tol=1e-12)
    assert g.kind == "nonsingular"
    assert all(1e-9 < u < 1.0 - 1e-9 for u in g.params)
    d = g.holonomy.shift / g.length
    phis = develop_strip(s, g.crossings)
    pts = [phis[k](s.edge_point(slot, u))
           for k, (slot, u) in enumerate(zip(g.crossings, g.params))]
    offsets = [(d.conjugate() * (p - pts[0])).imag for p in pts]
    assert max(abs(o) for o in offsets) < 1e-12


def test_budget_error_names_solves_slides_and_length():
    # the (1, -1) class drawn right, up, right, down, left, down: its strip
    # holds no straight line, the shortest path in it bends at the vertex
    # (length 2), and one slide across the vertex straightens it
    s = presets.square_torus()
    cls = HomotopyClassPath(((0, 1), (1, 1), (0, 1), (1, 0), (0, 0), (1, 2),
                             (0, 0), (1, 0)))
    with pytest.raises(NoConvergence,
                       match=r"\(1 solves, 0 slides\).* 8 crossings, "
                             r"last length 2\b"):
        tighten_geodesic(s, cls, tol=1e-12, max_iterations=1)
    g = tighten_geodesic(s, cls, tol=1e-12)
    assert g.kind == "nonsingular"
    assert abs(g.length - math.sqrt(2.0)) < 1e-12


def test_random_torus_classes_reach_the_holonomy_norm():
    # on a flat torus the geodesic length of a class is the norm of its
    # holonomy translation; random walks give strips that wind round the
    # vertex, pin on it and need slides (some of them through a whole turn)
    s = presets.rectangle_torus(1.3, 0.7)
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(40):
        cls = random_closed_strip(s, rng, int(rng.integers(6, 31)))
        hol = develop_strip(s, cls.crossings)[-1]
        want = abs(hol.shift)
        if want < 1e-9:
            with pytest.raises(TrivialClass):
                tighten_geodesic(s, cls, tol=1e-12)
            continue
        g = tighten_geodesic(s, cls, tol=1e-12, max_iterations=500)
        assert g.kind == "nonsingular"
        assert abs(g.length - want) <= 1e-12 * want
        checked += 1
    assert checked >= 30


def test_line_through_flat_vertex_is_accepted():
    # three times the (-1,-1) class, drawn down, left, down, across, down,
    # left, across, left: its geodesic runs straight through the flat
    # vertex, where both side angles are exactly pi
    s = presets.square_torus()
    cls = HomotopyClassPath(((0, 0), (1, 2), (0, 0), (1, 0), (0, 0), (1, 2),
                             (0, 2), (1, 2)))
    g = tighten_geodesic(s, cls, tol=1e-12, max_iterations=50)
    assert g.kind == "nonsingular"
    assert abs(g.length - 3.0 * math.sqrt(2.0)) < 1e-12
    assert all(u in (0.0, 1.0) for u in g.params)


@pytest.mark.parametrize("name", ["octagon", "octagon x 1e6", "G"])
def test_cone_visit_angles_match_the_corner_sums(name, flat_puncture_surface):
    # the side angles of every cone visit against the oracle's corner sums,
    # at cone points of angle 6 pi (octagon) and 10 pi / 3 (G: two marked
    # tori glued, flat orbit 1 marked)
    s = {"octagon": presets.regular_octagon,
         "octagon x 1e6": lambda: presets.regular_octagon().scaled(1e6),
         "G": lambda: flat_puncture_surface(1)}[name]()
    rng = np.random.default_rng(3)
    visits = 0
    for _ in range(60):
        cls = random_closed_strip(s, rng, 6)
        try:
            g = tighten_geodesic(s, cls, tol=1e-12)
        except TrivialClass:
            continue
        want = pivot_side_angles(g)
        assert [v.orbit for v in g.cone_visits] == [o for o, *_a in want]
        for v, (_orbit, *sides) in zip(g.cone_visits, want):
            assert max(abs(a - b) for a, b in zip(v.side_angles, sides)) \
                <= 1e-11
        visits += len(want)
    assert visits >= 150


def _walk_with_backtracks(s, rng, min_len):
    """A random closed walk from triangle 0 that may step straight back."""
    t, seq = 0, []
    while len(seq) < min_len or t != 0:
        seq.append((t, int(rng.integers(3))))
        t = s.gluings[seq[-1]][0]
    return seq


@pytest.mark.parametrize("name", ["square torus", "octagon"])
def test_strip_simplify_matches_restart_scan(name):
    # the stack pass keeps the crossings and params the restart scan kept,
    # in order, across the seam and down to the trivial loop
    s = {"square torus": presets.square_torus,
         "octagon": presets.regular_octagon}[name]()
    rng = np.random.default_rng(11)
    words = [_walk_with_backtracks(s, rng, int(rng.integers(2, 25)))
             for _ in range(300)]
    # a class closed at triangle 0 with a backtrack there, at each rotation:
    # one of them straddles the seam
    base = list(random_closed_strip(s, rng, 8).crossings)
    x = next((0, e) for e in range(3) if (0, e) != s.gluings[base[-1]])
    loop = base + [x, s.gluings[x]]
    words += [loop[r:] + loop[:r] for r in range(len(loop))]
    # trivial loops: a word followed by its reverse, at every third rotation
    back = [s.gluings[c] for c in reversed(base)]
    words += [(base + back)[r:] + (base + back)[:r]
              for r in range(0, 2 * len(base), 3)]
    seen = {"seam": 0, "trivial": 0, "reduced": 0}
    for word in words:
        params = rng.uniform(0.0, 1.0, len(word)).tolist()
        try:
            want = restart_scan_simplify(s.gluings, word, params)
        except TrivialClass:
            with pytest.raises(TrivialClass):
                _Strip(s, word, params)
            seen["trivial"] += 1
            continue
        st = _Strip(s, word, params)
        assert (st.crossings, st.params) == want
        seen["seam"] += s.gluings[word[-1]] == word[0]
        seen["reduced"] += len(want[0]) < len(word)
    assert min(seen.values()) >= 10, seen
