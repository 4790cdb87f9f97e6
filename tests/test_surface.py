import cmath
import math
from types import SimpleNamespace

import numpy as np
import pytest

from cubiclab.errors import (
    BadConeAngle,
    EdgeLengthMismatch,
    NegativeOrderAtInterior,
    NonInvolutiveGluing,
)
from cubiclab.flatsurface import area, gauss_bonnet_defect, presets
from cubiclab.flatsurface.cylinders import insert_cylinder_detailed
from cubiclab.flatsurface.io import build_surface, surface_to_dict
from cubiclab.flatsurface.surface import PlanarIsometry, TriangulatedFlatSurface


def test_square_torus_invariants():
    s = presets.square_torus()
    assert s.euler_characteristic == 0
    assert len(s.vertex_orbits) == 1
    assert s.orbit_orders == [0]
    assert s.cone_points == []
    assert abs(area(s) - 1.0) < 1e-15
    assert abs(gauss_bonnet_defect(s)) < 1e-9


def test_octagon_forced_cone_data():
    s = presets.regular_octagon()
    assert s.euler_characteristic == -2
    assert len(s.cone_points) == 1
    cp = s.cone_points[0]
    assert cp.order == 6
    assert abs(cp.angle - 6.0 * math.pi) < 1e-9
    assert s.total_cone_order() == -3 * s.euler_characteristic
    assert abs(gauss_bonnet_defect(s)) < 1e-9
    # shoelace oracle for the unit-side regular octagon
    assert abs(area(s) - 2.0 * (1.0 + math.sqrt(2.0))) < 1e-12


def test_doubled_triangle_marked_poles():
    s = presets.doubled_triangle()
    assert s.euler_characteristic == 2
    assert sorted(s.orbit_orders) == [-2, -2, -2]
    assert s.marked_punctures == frozenset({0, 1, 2})
    assert abs(gauss_bonnet_defect(s)) < 1e-9


def test_negative_order_requires_marking():
    trial = presets.doubled_triangle()
    with pytest.raises(NegativeOrderAtInterior):
        TriangulatedFlatSurface([t for t in trial.triangles],
                                trial.gluings.items(), marked_punctures=())


def test_edge_length_mismatch():
    tris = [
        [0, 1, 1 + 1j],
        [0, 1 + 1j, 2j],  # left edge has length 2
    ]
    gluings = [((0, 0), (1, 1)), ((0, 1), (1, 2)), ((0, 2), (1, 0))]
    with pytest.raises(EdgeLengthMismatch):
        TriangulatedFlatSurface(tris, gluings)
    # the match is relative to the edge: a 1e-4 relative move of one
    # corner is caught on a small surface too
    o = presets.regular_octagon().scaled(1e-6)
    tris = [list(t) for t in o.triangles]
    tris[0][1] += 1e-4 * abs(tris[0][1] - tris[0][0])
    with pytest.raises(EdgeLengthMismatch):
        TriangulatedFlatSurface(tris, o.gluings.items())


def test_non_involutive_gluing():
    s = presets.square_torus()
    tris = [t for t in s.triangles]
    with pytest.raises(NonInvolutiveGluing):
        TriangulatedFlatSurface(tris, [((0, 0), (1, 1)), ((0, 1), (1, 1)),
                                       ((0, 2), (1, 0))])
    with pytest.raises(NonInvolutiveGluing):
        TriangulatedFlatSurface(tris, [((0, 0), (0, 0)), ((0, 1), (1, 2)),
                                       ((0, 2), (1, 0))])


def test_missing_slot_is_rejected():
    s = presets.square_torus()
    with pytest.raises(NonInvolutiveGluing):
        TriangulatedFlatSurface([t for t in s.triangles],
                                [((0, 0), (1, 1)), ((0, 1), (1, 2))])


def test_bad_cone_angle():
    # the double of the right isosceles triangle: a sphere whose vertex
    # orbits have angles pi, pi/2, pi/2.  An angle 2*pi*(1 + k/3) needs an
    # integer k, but the pi orbit has k = 3 * (1/2 - 1) = -1.5
    tris = [
        [0, 1, 1j],
        [0, -1j, 1],
    ]
    gluings = [((0, 0), (1, 2)), ((0, 1), (1, 1)), ((0, 2), (1, 0))]
    with pytest.raises(BadConeAngle, match=r"k = -1\.5\b"):
        TriangulatedFlatSurface(tris, gluings)


@pytest.mark.parametrize("name", ["square torus", "marked torus", "octagon",
                                  "doubled triangle", "G", "grafted torus"])
def test_stored_fans_walk_each_vertex(name, flat_puncture_surface):
    s = {
        "square torus": presets.square_torus,
        "marked torus": lambda: presets.square_torus(mark_vertex=True),
        "octagon": presets.regular_octagon,
        "doubled triangle": presets.doubled_triangle,
        "G": lambda: flat_puncture_surface(1),
        "grafted torus": lambda: insert_cylinder_detailed(
            presets.rectangle_torus(1.3, 0.7), presets.torus_class(1, 2),
            0.5).surface,
    }[name]()
    assert len(s.fans) == len(s.vertex_orbits)
    for o, fan in enumerate(s.fans):
        assert sorted(fan) == s.vertex_orbits[o]
        assert all(s.orbit_of[c] == o for c in fan)
        # the ccw step round the vertex leads to the next corner and closes
        for (t, i), nxt in zip(fan, fan[1:] + fan[:1]):
            assert s.gluings[(t, (i + 2) % 3)] == nxt
        assert s.fan_angle[fan[0]] == 0.0
        for c, nxt in zip(fan, fan[1:]):
            assert s.fan_angle[nxt] == s.fan_angle[c] + s.corner_angle(*c)
        total = s.fan_angle[fan[-1]] + s.corner_angle(*fan[-1])
        assert abs(total - s.orbit_angles[o]) <= 1e-12 * s.orbit_angles[o]


def test_gauss_bonnet_negative_control():
    # the octagon's data with orbit 0 given the wrong cone angle 5 pi
    s = presets.regular_octagon()
    angles = s.orbit_angles.copy()
    angles[0] = 5.0 * math.pi
    wrong = SimpleNamespace(euler_characteristic=s.euler_characteristic,
                            orbit_angles=angles)
    assert abs(gauss_bonnet_defect(wrong)) > 1.0


def test_build_surface_json_roundtrip_isometries():
    s = presets.regular_octagon()
    spec = surface_to_dict(s)
    s2 = build_surface(spec)
    assert abs(area(s2) - area(s)) < 1e-12
    assert s2.orbit_orders == s.orbit_orders
    # corrupting a stored isometry is rejected
    spec["gluings"][0][2]["rot"] += 0.3
    with pytest.raises(NonInvolutiveGluing):
        build_surface(spec)


def test_scaling():
    s = presets.regular_octagon().scaled(2.5)
    assert abs(area(s) - 2.5 ** 2 * 2.0 * (1.0 + math.sqrt(2.0))) < 1e-10
    assert s.orbit_orders == presets.regular_octagon().orbit_orders


def test_isometry_composition_inverse():
    rng = np.random.default_rng(7)

    def isometry():
        angle, tx, ty = rng.uniform(-2, 2, size=3)
        return PlanarIsometry(cmath.rect(1.0, angle), complex(tx, ty))

    for _ in range(25):
        a, b = isometry(), isometry()
        p = complex(*rng.uniform(-3, 3, size=2))
        assert abs(a.compose(b)(p) - a(b(p))) < 1e-12
        assert abs(a.inverse()(a(p)) - p) < 1e-12
        # the segment [p, q] goes to [a(p), a(q)]
        q = complex(*rng.uniform(-3, 3, size=2))
        m = PlanarIsometry.from_segment_match(p, q, a(p), a(q))
        assert abs(m(p) - a(p)) < 1e-12 and abs(m(q) - a(q)) < 1e-12
        assert abs(m.rot - a.rot) <= 1e-12
        assert abs(m.shift - a.shift) <= 1e-12
