import itertools

import pytest

from cubiclab.flatsurface import presets, tighten_geodesic
from cubiclab.flatsurface.intersections import geometric_intersection_count
from oracles import lattice_intersection

TORUS_PAIRS = list(itertools.combinations(
    [(1, 0), (0, 1), (1, 1), (1, 2), (2, 1), (1, -1), (2, 3)], 2))


def _reps(f):
    s = presets.square_torus().scaled(f)
    cache = {}

    def rep(pq):
        if pq not in cache:
            cache[pq] = tighten_geodesic(s, presets.torus_class(*pq),
                                         tol=1e-12)
        return cache[pq]

    return s, rep


@pytest.fixture(scope="module")
def torus_reps():
    return _reps(1.0)


@pytest.fixture(scope="module")
def tiny_torus_reps():
    return _reps(1e-9)


@pytest.mark.parametrize("c1,c2", TORUS_PAIRS)
def test_torus_matches_lattice_formula(torus_reps, tiny_torus_reps, c1, c2):
    for s, rep in (torus_reps, tiny_torus_reps):
        got = geometric_intersection_count(s, rep(c1), rep(c2))
        assert got == lattice_intersection(c1, c2)


def test_symmetry(torus_reps):
    s, rep = torus_reps
    for c1, c2 in [((1, 0), (1, 2)), ((2, 1), (1, -1))]:
        assert geometric_intersection_count(s, rep(c1), rep(c2)) == \
            geometric_intersection_count(s, rep(c2), rep(c1))


def test_same_class_zero(torus_reps):
    s, rep = torus_reps
    for pq in [(1, 0), (1, 1), (2, 3)]:
        assert geometric_intersection_count(s, rep(pq), rep(pq)) == 0


def test_identical_representatives_full_overlap(torus_reps):
    s, rep = torus_reps
    g = rep((1, 0))
    assert geometric_intersection_count(s, g, g) == 0


def test_octagon_counts():
    o = presets.regular_octagon()
    gv = tighten_geodesic(o, presets.octagon_class_vertical(), tol=1e-12)
    gh = tighten_geodesic(o, presets.octagon_class_horizontal(), tol=1e-12)
    gp = tighten_geodesic(o, presets.octagon_class_product(), tol=1e-12)
    assert geometric_intersection_count(o, gv, gh) == 1
    assert geometric_intersection_count(o, gv, gv) == 0
    assert geometric_intersection_count(o, gv, gp) == 1
    assert geometric_intersection_count(o, gh, gp) == 1
