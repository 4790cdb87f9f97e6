import itertools

import numpy as np
import pytest

from cubiclab.errors import NotNonsingular, TrivialClass
from cubiclab.flatsurface import presets, tighten_geodesic
from cubiclab.flatsurface.cylinders import insert_cylinder_detailed
from cubiclab.flatsurface.geodesics import develop_strip
from cubiclab.flatsurface.intersections import geometric_intersection_count
from oracles import lattice_intersection, random_closed_strip

PRIMITIVE = [(1, 0), (0, 1), (1, 1), (1, 2), (2, 1), (1, -1), (2, 3)]
# 2-fold classes cross a class twice at each point where they meet it
K_FOLD = [(2, 0), (2, 2)]
TORUS_PAIRS = list(itertools.combinations(PRIMITIVE, 2)) + [
    (c, k) for k in K_FOLD for c in PRIMITIVE] + [tuple(K_FOLD)]


def _reps(f):
    s = presets.square_torus().scaled(f)
    cache = {}

    def rep(pq):
        if pq not in cache:
            cache[pq] = tighten_geodesic(s, presets.torus_class(*pq),
                                         tol=1e-12)
        return cache[pq]

    return rep


@pytest.fixture(scope="module")
def torus_reps():
    return _reps(1.0)


@pytest.fixture(scope="module")
def tiny_torus_reps():
    return _reps(1e-9)


@pytest.mark.parametrize("c1,c2", TORUS_PAIRS)
def test_torus_matches_lattice_formula(torus_reps, tiny_torus_reps, c1, c2):
    for rep in (torus_reps, tiny_torus_reps):
        got = geometric_intersection_count(rep(c1), rep(c2))
        assert got == lattice_intersection(c1, c2)


def test_symmetry(torus_reps):
    rep = torus_reps
    for c1, c2 in [((1, 0), (1, 2)), ((2, 1), (1, -1))]:
        assert geometric_intersection_count(rep(c1), rep(c2)) == \
            geometric_intersection_count(rep(c2), rep(c1))


def test_same_class_zero(torus_reps):
    rep = torus_reps
    for pq in [(1, 0), (1, 1), (2, 3)]:
        assert geometric_intersection_count(rep(pq), rep(pq)) == 0


def test_identical_representatives_full_overlap(torus_reps):
    rep = torus_reps
    g = rep((1, 0))
    assert geometric_intersection_count(g, g) == 0


def test_octagon_counts():
    o = presets.regular_octagon()
    gv = tighten_geodesic(o, presets.octagon_class_vertical(), tol=1e-12)
    gh = tighten_geodesic(o, presets.octagon_class_horizontal(), tol=1e-12)
    gp = tighten_geodesic(o, presets.octagon_class_product(), tol=1e-12)
    assert geometric_intersection_count(gv, gh) == 1
    assert geometric_intersection_count(gv, gv) == 0
    assert geometric_intersection_count(gv, gp) == 1
    assert geometric_intersection_count(gh, gp) == 1


def test_octagon_cores_match_the_graft_bound():
    # a height-h cylinder along a core c stretches a class g to a length
    # l_h with i(c, g) h <= l_h <= l_0 + i(c, g) h, so at h = 1e5 the
    # count is round(l_h / h).  Many random classes are saddle connection
    # chains through the cone point, some crossing a core twice there.
    o = presets.regular_octagon()
    rng = np.random.default_rng(3)
    classes = [random_closed_strip(o, rng, 6) for _ in range(30)]
    reps = [tighten_geodesic(o, cls, tol=1e-12) for cls in classes]
    h = 1e5
    for core in presets.octagon_marking():
        c = tighten_geodesic(o, core, tol=1e-12)
        res = insert_cylinder_detailed(o, core, h)
        for cls, g in zip(classes, reps):
            stretched = tighten_geodesic(
                res.surface, res.transport.transport(cls), tol=1e-12).length
            k = round(stretched / h)
            slack = 1e-9 * stretched / h
            assert -slack <= stretched / h - k <= g.length / h + slack
            assert geometric_intersection_count(c, g) == k
            assert geometric_intersection_count(g, c) == k


def test_grafted_torus_matches_lattice_formula():
    # the graft leaves a 1.3 x 1.2 torus with flat vertices on the cut;
    # 13 of the 30 classes pass through them, and k-fold classes occur
    s = insert_cylinder_detailed(presets.rectangle_torus(1.3, 0.7),
                                 presets.torus_class(1, 0, 1.3, 0.7),
                                 0.5).surface
    rng = np.random.default_rng(7)
    geos = []
    while len(geos) < 30:
        cls = random_closed_strip(s, rng, 6)
        try:
            g = tighten_geodesic(s, cls, tol=1e-12)
        except TrivialClass:
            continue
        hol = develop_strip(s, cls.crossings)[-1].shift
        geos.append(((round(hol.real / 1.3), round(hol.imag / 1.2)), g))
    assert sum(not all(0.0 < u < 1.0 for u in g.params)
               for _ij, g in geos) == 13
    for (ij1, g1), (ij2, g2) in itertools.combinations(geos, 2):
        assert geometric_intersection_count(g1, g2) == \
            lattice_intersection(ij1, ij2)


def test_two_cone_concatenations_raise(octagon_commutator):
    o = presets.regular_octagon()
    g = tighten_geodesic(o, octagon_commutator, tol=1e-12)
    assert g.kind == "cone-concatenation"
    with pytest.raises(NotNonsingular, match=r"orbits \[0\] and \[0\]"):
        geometric_intersection_count(g, g)


def test_geodesics_on_different_surfaces_raise():
    # an equal copy of the surface is a different surface: the count reads
    # one surface's charts and gluings for both curves
    s, t = presets.square_torus(), presets.square_torus()
    g1 = tighten_geodesic(s, presets.torus_class(1, 0), tol=1e-12)
    g2 = tighten_geodesic(t, presets.torus_class(0, 1), tol=1e-12)
    with pytest.raises(ValueError, match="different surfaces, of 2 and 2 triangles"):
        geometric_intersection_count(g1, g2)
    assert geometric_intersection_count(
        g1, tighten_geodesic(s, presets.torus_class(0, 1), tol=1e-12)) == 1
