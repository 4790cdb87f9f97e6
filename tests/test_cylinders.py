import math
from collections import Counter

import numpy as np
import pytest

from cubiclab.errors import NotCylindrical, NotNonsingular, TrivialClass
from cubiclab.flatsurface import HomotopyClassPath, cylinders, presets, \
    tighten_geodesic
from cubiclab.flatsurface.cylinders import (
    detect_cylinder,
    insert_cylinder_detailed,
)
from cubiclab.flatsurface.geodesics import develop_strip
from cubiclab.flatsurface.surface import area, gauss_bonnet_defect
from oracles import lattice_norm, random_closed_strip


def test_torus_whole_surface_cylinder():
    s = presets.square_torus()
    g = tighten_geodesic(s, presets.torus_class(1, 0), tol=1e-12)
    cyl = detect_cylinder(g)
    assert cyl.closed
    assert abs(cyl.circumference - 1.0) < 1e-9
    assert abs(cyl.height - 1.0) < 1e-9


@pytest.mark.parametrize("p,q", [(1, 1), (1, 2), (2, 1), (2, 3)])
def test_torus_cylinder_heights(p, q):
    # the (p, q) cylinder fills the torus: height = area / circumference
    s = presets.square_torus()
    g = tighten_geodesic(s, presets.torus_class(p, q), tol=1e-12)
    cyl = detect_cylinder(g)
    assert cyl.closed
    expected = 1.0 / lattice_norm(p, q)
    assert abs(cyl.height - expected) < 1e-12
    assert abs(cyl.circumference * cyl.height - 1.0) < 1e-12


@pytest.mark.parametrize("p,q,k,prim", [(2, 0, 2, 2), (2, 2, 2, 2),
                                         (3, 3, 3, 2), (4, 6, 2, 6)])
def test_multiple_traversal_is_not_a_core(p, q, k, prim):
    # k times the primitive (p/k, q/k) class: the tightened crossing word
    # repeats the primitive word of `prim` crossings k times
    s = presets.square_torus()
    g = tighten_geodesic(s, presets.torus_class(p, q), tol=1e-12)
    msg = f"traverses its cylinder {k} times: its {k * prim} crossings " \
          f"repeat a primitive word of {prim} crossings"
    with pytest.raises(NotCylindrical, match=msg):
        detect_cylinder(g)
    with pytest.raises(NotCylindrical, match=msg):
        insert_cylinder_detailed(s, presets.torus_class(p, q), 1.0).surface


def test_random_torus_strips_yield_their_cylinders():
    # the random strips of test_random_torus_classes_reach_the_holonomy_norm,
    # twice as many.  A class of holonomy (1.3 i, 0.7 j) winds k = gcd(i, j)
    # times round the cylinder of the primitive class, which fills the
    # torus; most k-fold classes tighten to a line through the flat vertex
    s = presets.rectangle_torus(1.3, 0.7)
    rng = np.random.default_rng(3)
    folds = Counter()
    for _ in range(80):
        cls = random_closed_strip(s, rng, int(rng.integers(6, 31)))
        hol = develop_strip(s, cls.crossings)[-1]
        k = math.gcd(round(hol.shift.real / 1.3),
                     round(hol.shift.imag / 0.7))
        folds[k] += 1
        if k == 0:
            continue  # trivial class
        g = tighten_geodesic(s, cls, tol=1e-12, max_iterations=500)
        if k == 1:
            cyl = detect_cylinder(g)
            assert cyl.closed
            assert abs(cyl.circumference * cyl.height - 0.91) < 1e-12
            grafted = area(insert_cylinder_detailed(s, cls, 0.5).surface)
            assert abs(grafted - (0.91 + 0.5 * cyl.circumference)) < 1e-12
            continue
        msg = f"traverses its cylinder {k} times"
        with pytest.raises(NotCylindrical, match=msg):
            detect_cylinder(g)
        with pytest.raises(NotCylindrical, match=msg):
            insert_cylinder_detailed(s, cls, 0.5).surface
    assert folds == {0: 2, 1: 45, 2: 18, 3: 9, 4: 2, 5: 1, 6: 1, 7: 1, 9: 1}


def test_cores_through_flat_vertices_graft_on_their_middle_line():
    # a graft leaves flat vertices on the torus, and many random classes
    # tighten to lines through them; the graft then cuts along the middle
    # line of the family above.  The grafted torus is 1.3 x 1.2.
    s = insert_cylinder_detailed(presets.rectangle_torus(1.3, 0.7),
                                 presets.torus_class(1, 0, 1.3, 0.7),
                                 0.5).surface
    rng = np.random.default_rng(7)
    primitive = through_vertex = 0
    for _ in range(60):
        cls = random_closed_strip(s, rng, int(rng.integers(4, 20)))
        hol = develop_strip(s, cls.crossings)[-1]
        if math.gcd(round(hol.shift.real / 1.3),
                    round(hol.shift.imag / 1.2)) != 1:
            continue
        g = tighten_geodesic(s, cls, tol=1e-12)
        primitive += 1
        through_vertex += not all(0.0 < u < 1.0 for u in g.params)
        cyl = detect_cylinder(g)
        assert abs(cyl.circumference * cyl.height - 1.56) < 1e-12
        grafted = area(insert_cylinder_detailed(s, cls, 0.3).surface)
        assert abs(grafted - (1.56 + 0.3 * g.length)) < 1e-12
    assert (primitive, through_vertex) == (43, 13)


def _measure(s, cls):
    return detect_cylinder(tighten_geodesic(s, cls, tol=1e-12))


def test_grafted_cylinders_are_measured():
    # a graft of height h along a core: the core's cylinder grows to
    # height 1 + h, and a crossing class's circumference grows by h
    torus = presets.square_torus()
    for h in (0.5, 2.0):
        res = insert_cylinder_detailed(torus, presets.torus_class(1, 0), h)
        for (p, q), circ, height in (((1, 0), 1.0, 1.0 + h),
                                     ((0, 1), 1.0 + h, 1.0)):
            cyl = _measure(res.surface,
                           res.transport.transport(presets.torus_class(p, q)))
            assert cyl.closed
            assert abs(cyl.circumference - circ) < 1e-12
            assert abs(cyl.height - height) < 1e-12
    o = presets.regular_octagon()
    side = 1.0 + math.sqrt(2.0)
    for h in (1.0, 3.0):
        res = insert_cylinder_detailed(o, presets.octagon_class_vertical(), h)
        (cone,) = [cp.orbit for cp in res.surface.cone_points]
        for cls, circ, height in (
                (presets.octagon_class_vertical(), side, 1.0 + h),
                (presets.octagon_class_horizontal(), side + h, 1.0)):
            cyl = _measure(res.surface, res.transport.transport(cls))
            assert not cyl.closed
            assert cyl.boundary_orbits == ((cone,), (cone,))
            assert abs(cyl.circumference - circ) < 1e-12
            assert abs(cyl.height - height) < 1e-12
    # heights scale with the surface
    for cls in (presets.octagon_class_vertical(),
                presets.octagon_class_product()):
        unit = _measure(o, cls).height
        for f in (1e-4, 1e5):
            scaled = _measure(o.scaled(f), cls).height
            assert abs(scaled - f * unit) <= 1e-12 * f * unit


def test_octagon_vertical_cylinder():
    o = presets.regular_octagon()
    g = tighten_geodesic(o, presets.octagon_class_vertical(), tol=1e-12)
    cyl = detect_cylinder(g)
    assert not cyl.closed
    assert abs(cyl.circumference - (1.0 + math.sqrt(2.0))) < 1e-9
    # direct octagon dissection: the middle column sweeps width 1
    assert abs(cyl.height - 1.0) < 1e-12
    assert cyl.boundary_orbits == ((0,), (0,))
    # the cylinder covers half the surface area
    assert cyl.circumference * cyl.height < area(o)


def test_cone_concatenation_rejected(octagon_commutator):
    o = presets.regular_octagon()
    g = tighten_geodesic(o, octagon_commutator, tol=1e-12)
    with pytest.raises(NotNonsingular):
        detect_cylinder(g)
    with pytest.raises(NotNonsingular):
        insert_cylinder_detailed(o, octagon_commutator, 1.0).surface


def test_insert_cylinder_torus_geometry():
    s = presets.square_torus()
    res = insert_cylinder_detailed(s, presets.torus_class(1, 0), 2.0)
    s2 = res.surface
    assert abs(area(s2) - 3.0) < 1e-12
    assert abs(gauss_bonnet_defect(s2)) < 1e-9
    assert all(k == 0 for k in s2.orbit_orders)  # cone data unchanged


def test_insert_cylinder_transported_spectrum():
    # transport must not depend on the size of the surface
    expect = {(1, 0): 1.0, (0, 1): 3.0, (1, 1): math.sqrt(10.0)}
    for f in (1.0, 1e-12):
        s = presets.square_torus().scaled(f)
        res = insert_cylinder_detailed(s, presets.torus_class(1, 0), 2.0 * f)
        for (p, q), val in expect.items():
            moved = res.transport.transport(presets.torus_class(p, q))
            g = tighten_geodesic(res.surface, moved, tol=1e-12)
            assert abs(g.length / f - val) < 1e-9
            # oracle: lattice norm on the 1 x 3 torus
            assert abs(val - lattice_norm(p, q, 1.0, 3.0)) < 1e-15


def test_slanted_cores_transport_to_the_grafted_lattice():
    # a class c crosses the core v det(v, c) times, each time the band's
    # height h along the unit normal iv/|v|, so it becomes the lattice
    # vector c + h det(v, c) iv/|v|; the classes cross each core both ways
    s = presets.square_torus()
    classes = [(1, 0), (0, 1), (1, 1), (1, -1), (-1, 0), (0, -1), (2, -3),
               (-3, -5), (5, 8)]
    for v in [(3, 5), (2, -1), (1, 1)]:
        vz = complex(*v)
        for h in (0.5, 2.0):
            res = insert_cylinder_detailed(s, presets.torus_class(*v), h)
            for c in classes:
                cz = complex(*c)
                det = v[0] * c[1] - v[1] * c[0]
                expect = abs(cz + h * det * 1j * vz / abs(vz))
                moved = res.transport.transport(presets.torus_class(*c))
                g = tighten_geodesic(res.surface, moved, tol=1e-12)
                assert abs(g.length - expect) < 1e-12 * expect, (v, h, c)


def test_transport_makes_no_geodesic_solve(monkeypatch):
    # the class's own word is traced: nothing is tightened on the old
    # surface, and the carried classes have the grafted lengths
    s = presets.square_torus()
    res = insert_cylinder_detailed(s, presets.torus_class(1, 0), 2.0)

    def refuse(*_args, **_kwargs):
        raise AssertionError("transport called tighten_geodesic")

    monkeypatch.setattr(cylinders, "tighten_geodesic", refuse)
    moved = [res.transport.transport(c) for c in presets.torus_marking()]
    assert [m.label for m in moved] == [c.label
                                        for c in presets.torus_marking()]
    lengths = [tighten_geodesic(res.surface, m, tol=1e-12).length
               for m in moved]
    assert max(abs(a - b) for a, b in
               zip(lengths, (1.0, 3.0, math.sqrt(10.0)))) < 1e-12


def _detours(path, gluings):
    """The words of path with one backtrack pair inserted after a crossing:
    out of the triangle it enters through another edge and straight back."""
    w = list(path.crossings)
    for k, slot in enumerate(w):
        t, e_in = gluings[slot]
        for e in range(3):
            if e != e_in:
                yield w[:k + 1] + [(t, e), gluings[(t, e)]] + w[k + 1:]


@pytest.mark.parametrize("v,h", [((1, 0), 2.0), ((3, 5), 0.5)])
def test_transport_carries_the_class_not_the_word(v, h):
    # a word with a backtrack pair, and a cyclic rotation of it, is the
    # class of the plain word: all carry to its grafted length
    # |c + h det(v, c) iv/|v||
    s = presets.square_torus()
    res = insert_cylinder_detailed(s, presets.torus_class(*v), h)
    vz = complex(*v)
    for c in [(1, 1), (2, -3)]:
        det = v[0] * c[1] - v[1] * c[0]
        expect = abs(complex(*c) + h * det * 1j * vz / abs(vz))
        plain = presets.torus_class(*c)
        for word in [list(plain.crossings), *_detours(plain, s.gluings)]:
            r = len(word) // 2
            for rotated in (word, word[r:] + word[:r]):
                moved = res.transport.transport(HomotopyClassPath(rotated))
                g = tighten_geodesic(res.surface, moved, tol=1e-12)
                assert abs(g.length - expect) < 1e-12 * expect, (c, rotated)


def test_transported_trivial_loop_stays_trivial():
    # a class followed by its inverse bounds a disk; so does its transport,
    # whose tightening on the new surface raises
    s = presets.square_torus()
    res = insert_cylinder_detailed(s, presets.torus_class(1, 0), 2.0)
    w = presets.torus_class(1, 1).crossings
    loops = [w + tuple(s.gluings[c] for c in reversed(w)),
             ((0, 0), s.gluings[(0, 0)])]
    for loop in map(HomotopyClassPath, loops):
        moved = res.transport.transport(loop)
        with pytest.raises(TrivialClass):
            tighten_geodesic(res.surface, moved)


def test_insert_preserves_core_and_stretches_crossers():
    o = presets.regular_octagon()
    core = presets.octagon_class_vertical()
    before_core = tighten_geodesic(o, core, tol=1e-12).length
    before_h = tighten_geodesic(o, presets.octagon_class_horizontal(),
                                tol=1e-12).length
    res = insert_cylinder_detailed(o, core, 1.0)
    after_core = tighten_geodesic(res.surface,
                                  res.transport.transport(core),
                                  tol=1e-12).length
    after_h = tighten_geodesic(
        res.surface,
        res.transport.transport(presets.octagon_class_horizontal()),
        tol=1e-12).length
    assert abs(after_core - before_core) < 1e-9
    # the horizontal class crosses the core once: grows by >= 1 * height
    assert after_h >= before_h + 1.0 - 1e-9
    assert abs(area(res.surface) - (area(o) + before_core * 1.0)) < 1e-9


def test_insert_area_additivity_re_triangulated():
    # the rebuilt triangulation's shoelace sum is the oracle here, at every
    # scale f of the torus and the heights
    for f in (1.0, 1e-9, 1e-6, 1e3, 1e9):
        s = presets.square_torus().scaled(f)
        for h in (0.5, 2.0):
            s2 = insert_cylinder_detailed(s, presets.torus_class(1, 1),
                                          h * f).surface
            expect = 1.0 + math.sqrt(2.0) * h
            assert abs(area(s2) / f ** 2 - expect) < 1e-9, f
            assert abs(gauss_bonnet_defect(s2)) < 1e-9, f


def test_insert_requires_positive_height():
    s = presets.square_torus()
    with pytest.raises(ValueError):
        insert_cylinder_detailed(s, presets.torus_class(1, 0), 0.0).surface


def test_iterated_insert():
    s = presets.square_torus()
    res = insert_cylinder_detailed(s, presets.torus_class(1, 0), 1.0)
    core2 = res.transport.transport(presets.torus_class(1, 0))
    s3 = insert_cylinder_detailed(res.surface, core2, 1.0).surface
    assert abs(area(s3) - 3.0) < 1e-9


def test_insert_keeps_marked_puncture():
    for f in (1.0, 1e-12):
        s = presets.square_torus(mark_vertex=True).scaled(f)
        s2 = insert_cylinder_detailed(s, presets.torus_class(1, 0),
                                      2.0 * f).surface
        assert len(s2.marked_punctures) == 1
        (orbit,) = s2.marked_punctures
        assert s2.orbit_orders[orbit] == 0
        # the marked orbit is the torus vertex, not a new vertex on the cut
        corners = [s2.triangles[ti][i] for ti, i in s2.vertex_orbits[orbit]]
        assert all(c in (0.0, f) for z in corners for c in (z.real, z.imag))
        assert abs(area(s2) / f ** 2 - 3.0) < 1e-12
