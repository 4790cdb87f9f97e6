import cmath
import math

import numpy as np
import pytest

from cubiclab.currents import spectrum_from_flat
from cubiclab.errors import NoConvergence
from cubiclab.flatsurface import (
    PlanarIsometry,
    TriangulatedFlatSurface,
    presets,
)
from cubiclab.flatsurface.saddles import enumerate_saddle_connections
from oracles import brute_saddle_connections, sequential_saddle_connections
from reference import glued_tori, keyset


def test_torus_has_no_saddle_connections():
    assert enumerate_saddle_connections(presets.square_torus(), 10.0) == []


def test_marked_puncture_is_an_endpoint():
    # the marked flat vertex of the square torus ends the primitive lattice
    # segments: (1,0), (0,1), (1,+-1) and (2,+-1), (1,+-2) up to length 2.3
    t = presets.square_torus(mark_vertex=True)
    scs = enumerate_saddle_connections(t, 2.3)
    assert sorted(sc.length for sc in scs) == pytest.approx(
        [1.0] * 2 + [math.sqrt(2.0)] * 2 + [math.sqrt(5.0)] * 4, abs=1e-12)
    assert all(sc.start_orbit == sc.end_orbit == 0 for sc in scs)
    _lens, keys = brute_saddle_connections(t, 2.3, depth=8)
    assert keyset(scs) == set(keys)


@pytest.mark.parametrize("orbit", [1, 2])
@pytest.mark.parametrize("bound", [0.12, 0.3, 0.6])
def test_short_connections_match_brute_oracle(orbit, bound,
                                              flat_puncture_surface):
    # the 0.0536 connection from the marked flat orbit to a k = 2 cone
    # point is far below the unit edge; an oracle rounding its candidate
    # endpoints to absolute digits listed it twice, at fan angles 0 and
    # 10*pi/3, when orbit 1 was marked
    g = flat_puncture_surface(orbit)
    lib = keyset(enumerate_saddle_connections(g, bound))
    assert min(k[2] for k in lib) == pytest.approx(0.2 * (2 - math.sqrt(3)))
    _lens, keys = brute_saddle_connections(g, bound, depth=5)
    assert lib == set(keys)


def test_octagon_unit_sides():
    o = presets.regular_octagon()
    scs = enumerate_saddle_connections(o, 1.01)
    # the octagon's eight unit sides are glued in opposite pairs, leaving
    # four distinct unoriented segments (oracle-confirmed below)
    assert len(scs) == 4
    assert all(abs(sc.length - 1.0) < 1e-12 for sc in scs)
    assert all(sc.start_orbit == sc.end_orbit == 0 for sc in scs)


def test_octagon_below_shortest_is_empty():
    o = presets.regular_octagon()
    assert enumerate_saddle_connections(o, 0.5) == []


def test_octagon_matches_brute_oracle():
    o = presets.regular_octagon()
    for bound, depth in ((1.01, 7), (1.9, 8)):
        lib = keyset(enumerate_saddle_connections(o, bound))
        _lens, keys = brute_saddle_connections(o, bound, depth=depth)
        assert lib == set(keys)


@pytest.mark.parametrize("f", [1e3, 1e6])
def test_scaled_octagon_matches_brute_oracle(f):
    # the oracle's length floor and frame keys are in units of the longest
    # edge: with absolute ones it listed zero-length connections here
    o = presets.regular_octagon().scaled(f)
    lib = keyset(enumerate_saddle_connections(o, 1.01 * f))
    _lens, keys = brute_saddle_connections(o, 1.01 * f, depth=7)
    assert len(lib) == 4
    assert lib == set(keys)


def test_octagon_short_diagonals_appear():
    o = presets.regular_octagon()
    scs = enumerate_saddle_connections(o, 1.9)
    lengths = sorted({round(sc.length, 6) for sc in scs})
    assert lengths == [1.0, round(math.sqrt(2.0 + math.sqrt(2.0)), 6)]
    assert len(scs) == 12  # 4 sides + 8 short diagonals


def test_monotone_inclusion():
    o = presets.regular_octagon()
    small = keyset(enumerate_saddle_connections(o, 1.2))
    large = keyset(enumerate_saddle_connections(o, 2.2))
    assert small <= large


def test_doubled_triangle_edges():
    d = presets.doubled_triangle()
    scs = enumerate_saddle_connections(d, 1.01)
    assert len(scs) == 3
    pairs = sorted((sc.start_orbit, sc.end_orbit) for sc in scs)
    assert pairs == [(0, 1), (0, 2), (1, 2)]
    lib = keyset(scs)
    _lens, keys = brute_saddle_connections(d, 1.01, depth=5)
    assert lib == set(keys)


def test_bad_bound():
    with pytest.raises(ValueError):
        enumerate_saddle_connections(presets.regular_octagon(), 0.0)
    # a NaN bound fails no comparison, so it must fail the positivity test
    with pytest.raises(ValueError, match="max_length must be positive, "
                                         "got nan"):
        enumerate_saddle_connections(presets.regular_octagon(), math.nan)


def test_budget_exhaustion_names_its_numbers():
    o = presets.regular_octagon()
    with pytest.raises(NoConvergence,
                       match=r"budget of 10 wedge expansions with "
                             r"max_length=3; \d+ connections found so far"):
        enumerate_saddle_connections(o, 3.0, max_expansions=10)


@pytest.mark.parametrize("bound,needed,count", [(5.0, 738, 56),
                                                (20.0, 27_414, 848)])
def test_wedge_expansions_are_pinned(bound, needed, count):
    # the BFS's work: a faster loop must explore the same wedges and
    # charge the budget the same way, one unit per wedge expansion
    o = presets.regular_octagon()
    assert len(enumerate_saddle_connections(
        o, bound, max_expansions=needed)) == count
    with pytest.raises(NoConvergence, match=f"budget of {needed - 1} "):
        enumerate_saddle_connections(o, bound, max_expansions=needed - 1)


@pytest.mark.parametrize("make,bound,needed,short", [
    (presets.regular_octagon, 5.0, 738, 736),
    (lambda: presets.square_torus(mark_vertex=True), 6.0, 490, 470)],
    ids=["octagon", "marked-torus"])
def test_budget_is_charged_a_level_at_a_time(make, bound, needed, short):
    # an apex inside a wedge opens a wedge on the next level, so the last
    # level records nothing, and a loop that stopped once the total equalled
    # the budget would still give the unbounded list at the exact budget;
    # it shows at the expansions through the level before the last
    # (``short``), which the last level's expansions exceed
    s = make()
    assert enumerate_saddle_connections(s, bound, max_expansions=needed) \
        == enumerate_saddle_connections(s, bound)
    with pytest.raises(NoConvergence, match=f"budget of {short} "):
        enumerate_saddle_connections(s, bound, max_expansions=short)


@pytest.mark.parametrize("f", [1e-6, 1e-3, 0.37, 1e3, 1e6])
def test_connections_scale_with_the_surface(f):
    # every tolerance is relative to the surface, so the connections of a
    # scaled octagon are the scaled connections: at the parent 1e3 and
    # 1e6 found 80 and 91 (extras through the cone point) and 1e-6 raised
    o = presets.regular_octagon()
    unit = enumerate_saddle_connections(o, 5.0)
    scaled = enumerate_saddle_connections(o.scaled(f), 5.0 * f)
    assert len(unit) == len(scaled) == 56
    assert keyset(scaled, unit=f) == keyset(unit)


@pytest.mark.parametrize("seed", [5, 6])
@pytest.mark.parametrize("per_triangle", [False, True])
def test_rotated_octagon_has_the_same_spectrum_and_saddles(seed,
                                                           per_triangle):
    # turning the triangle charts, all by one seeded angle or each by its
    # own, with the same gluings, changes neither the marking spectrum nor
    # the saddle connections
    o = presets.regular_octagon()
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.0, 2.0 * math.pi,
                         size=o.num_triangles if per_triangle else 1)
    turns = [PlanarIsometry(cmath.rect(1.0, a), 0j)
             for a in np.resize(angles, o.num_triangles)]
    r = TriangulatedFlatSurface(
        [[turn(z) for z in tri] for turn, tri in zip(turns, o.triangles)],
        o.gluings.items())
    marking = presets.octagon_marking()
    want = spectrum_from_flat(o, marking).values
    got = spectrum_from_flat(r, marking).values
    assert all(abs(g - w) <= 1e-12 * w for g, w in zip(got, want))
    assert keyset(enumerate_saddle_connections(r, 5.0)) == \
        keyset(enumerate_saddle_connections(o, 5.0))



# (surface, L) of each case
SEQUENTIAL_CASES = {
    "octagon-5": lambda: (presets.regular_octagon(), 5.0),
    "octagon-10": lambda: (presets.regular_octagon(), 10.0),
    "octagon-x1e-6": lambda: (presets.regular_octagon().scaled(1e-6), 1e-5),
    "octagon-x1e6": lambda: (presets.regular_octagon().scaled(1e6), 1e7),
    "glued-0.2": lambda: (glued_tori(0.2), 2.0),
    "glued-0.15-w0.3": lambda: (glued_tori(0.15, 0.3), 2.0),
    "glued-0.25-w0.3": lambda: (glued_tori(0.25, 0.3), 2.0),
    "glued-0.25-w0.3-x0.37": lambda: (glued_tori(0.25, 0.3).scaled(0.37),
                                      0.74),
    "doubled-triangle": lambda: (presets.doubled_triangle(), 3.0),
    "marked-torus": lambda: (presets.square_torus(mark_vertex=True), 6.0),
}


@pytest.mark.parametrize("case", SEQUENTIAL_CASES)
def test_levels_match_the_sequential_queue(case):
    # the level-at-a-time search must find the same connections as a queue
    # of single wedges, bit for bit in every field and in the same order
    s, L = SEQUENTIAL_CASES[case]()
    got = enumerate_saddle_connections(s, L)
    assert got
    assert got == sequential_saddle_connections(s, L)
