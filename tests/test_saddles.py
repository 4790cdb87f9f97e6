import math

import pytest

from cubiclab.errors import NoConvergence
from cubiclab.flatsurface import presets
from cubiclab.flatsurface.saddles import enumerate_saddle_connections
from oracles import brute_saddle_connections


def _keyset(scs):
    return {(min(sc.start_orbit, sc.end_orbit),
             max(sc.start_orbit, sc.end_orbit),
             round(sc.length, 9),
             tuple(sorted((round(sc.directions[0], 7),
                           round(sc.directions[1], 7)))))
            for sc in scs}


def test_torus_has_no_saddle_connections():
    assert enumerate_saddle_connections(presets.square_torus(), 10.0) == []


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
        lib = _keyset(enumerate_saddle_connections(o, bound))
        _lens, keys = brute_saddle_connections(o, bound, depth=depth)
        assert lib == set(keys)


def test_octagon_short_diagonals_appear():
    o = presets.regular_octagon()
    scs = enumerate_saddle_connections(o, 1.9)
    lengths = sorted({round(sc.length, 6) for sc in scs})
    assert lengths == [1.0, round(math.sqrt(2.0 + math.sqrt(2.0)), 6)]
    assert len(scs) == 12  # 4 sides + 8 short diagonals


def test_monotone_inclusion():
    o = presets.regular_octagon()
    small = _keyset(enumerate_saddle_connections(o, 1.2))
    large = _keyset(enumerate_saddle_connections(o, 2.2))
    assert small <= large


def test_doubled_triangle_edges():
    d = presets.doubled_triangle()
    scs = enumerate_saddle_connections(d, 1.01)
    assert len(scs) == 3
    pairs = sorted((sc.start_orbit, sc.end_orbit) for sc in scs)
    assert pairs == [(0, 1), (0, 2), (1, 2)]
    lib = _keyset(scs)
    _lens, keys = brute_saddle_connections(d, 1.01, depth=5)
    assert lib == set(keys)


def test_bad_bound():
    with pytest.raises(ValueError):
        enumerate_saddle_connections(presets.regular_octagon(), 0.0)


def test_budget_exhaustion_names_its_numbers():
    o = presets.regular_octagon()
    with pytest.raises(NoConvergence,
                       match=r"budget of 10 wedge expansions with "
                             r"max_length=3; \d+ connections found so far"):
        enumerate_saddle_connections(o, 3.0, max_expansions=10)
