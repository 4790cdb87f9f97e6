import math

import pytest

from cubiclab.errors import AngleClash, BadParameters
from cubiclab.flatsurface import presets
from cubiclab.flatsurface.surface import area, gauss_bonnet_defect
from cubiclab.flatsurface.surgery import (
    _carve_with_rotation,
    plan_carve,
    triangle_surgery_glue,
)
from reference import marked_octagon, parallelogram_torus, two_by_one_torus

WEDGE_AREA = math.sqrt(3.0) / 4.0  # equilateral triangle of unit side


def test_glue_two_tori_weightless():
    t1 = presets.square_torus(mark_vertex=True)
    t2 = presets.square_torus(mark_vertex=True)
    eps = 0.2
    g = triangle_surgery_glue([(t1, 0), (t2, 0)], eps)
    assert abs(gauss_bonnet_defect(g)) < 1e-9
    assert g.euler_characteristic == -2  # genus two
    assert sorted(g.orbit_orders) == [0, 0, 2, 2, 2]
    assert g.total_cone_order() == -3 * g.euler_characteristic
    assert abs(area(g) - (2.0 - 2.0 * WEDGE_AREA * eps ** 2)) < 1e-12
    assert not g.marked_punctures


def test_glue_with_prism_band():
    t1 = presets.square_torus(mark_vertex=True)
    t2 = presets.square_torus(mark_vertex=True)
    eps, w = 0.2, 1.0
    g = triangle_surgery_glue([(t1, 0), (t2, 0)], eps, weights=[w])
    assert abs(gauss_bonnet_defect(g)) < 1e-9
    assert g.euler_characteristic == -2  # the band is an annulus
    # prism lateral surface adds 3 * eps * w
    expect = 2.0 - 2.0 * WEDGE_AREA * eps ** 2 + 3.0 * eps * w
    assert abs(area(g) - expect) < 1e-12
    assert sorted(g.orbit_orders) == [0, 0, 0, 0, 1, 1, 1, 1, 1, 1]


def test_glue_octagons_at_cone_points():
    o1, o2 = marked_octagon(), marked_octagon()
    g = triangle_surgery_glue([(o1, 0), (o2, 0)], 0.3)
    assert abs(gauss_bonnet_defect(g)) < 1e-9
    assert g.euler_characteristic == -6
    assert sorted(o for o in g.orbit_orders if o != 0) == [2, 2, 14]


def test_prism_band_between_cone_points():
    # the band is glued to cut boundaries whose fans run round the
    # octagon's cone point
    o1, o2 = marked_octagon(), marked_octagon()
    eps, w = 0.3, 0.4
    g = triangle_surgery_glue([(o1, 0), (o2, 0)], eps, weights=[w])
    assert abs(gauss_bonnet_defect(g)) < 1e-9
    assert g.euler_characteristic == -6
    assert sorted(o for o in g.orbit_orders if o != 0) == [1, 1, 1, 1, 7, 7]
    expect = 2.0 * area(o1) - 2.0 * WEDGE_AREA * eps ** 2 + 3.0 * eps * w
    assert abs(area(g) - expect) < 1e-12


def test_eps_too_large_clearance():
    # octagon's cone point has a closed saddle connection of length 1
    o1, o2 = marked_octagon(), marked_octagon()
    with pytest.raises(BadParameters, match=r"distance 1 < 2\*eps from "
                                            r"puncture orbit 0, eps=0\.6$"):
        triangle_surgery_glue([(o1, 0), (o2, 0)], 0.6)


def test_double_pole_rejected():
    d = presets.doubled_triangle()
    t = presets.square_torus(mark_vertex=True)
    with pytest.raises(AngleClash):
        triangle_surgery_glue([(d, 0), (t, 0)], 0.1)


def test_weight_and_pairing_validation():
    t1 = presets.square_torus(mark_vertex=True)
    with pytest.raises(ValueError):
        triangle_surgery_glue([(t1, 0)], 0.1)
    t2 = presets.square_torus(mark_vertex=True)
    with pytest.raises(ValueError):
        triangle_surgery_glue([(t1, 0), (t2, 0)], 0.1, weights=[-1.0])
    with pytest.raises(ValueError):
        triangle_surgery_glue([(t1, 0), (t2, 0)], 0.1, weights=[0.0, 0.0])


def test_unglued_puncture_survives():
    t = presets.square_torus(mark_vertex=True)
    b = two_by_one_torus()
    assert b.orbit_orders == [0, 0]
    assert all(b.triangles[ti][i].real == 1.0
               for ti, i in b.vertex_orbits[1])
    eps = 0.2
    g = triangle_surgery_glue([(t, 0), (b, 0)], eps)
    assert g.num_triangles == 16
    assert abs(gauss_bonnet_defect(g)) < 1e-9
    assert abs(area(g) - (3.0 - 2.0 * WEDGE_AREA * eps ** 2)) < 1e-12
    # orbit 1 of the 2 x 1 torus is the only marked puncture left, still flat
    (orbit,) = g.marked_punctures
    assert g.orbit_orders[orbit] == 0
    assert all(g.triangles[ti][i].real == 1.0
               for ti, i in g.vertex_orbits[orbit])


def test_prism_core_lengths_scale_with_eps():
    # at every scale f of the tori, eps and the weight
    for f in (1.0, 1e-9, 1e-6, 1e3, 1e9):
        t1 = presets.square_torus(mark_vertex=True).scaled(f)
        t2 = presets.square_torus(mark_vertex=True).scaled(f)
        for eps in (0.1, 0.25):
            g = triangle_surgery_glue([(t1, 0), (t2, 0)], eps * f,
                                      weights=[0.5 * f])
            expect = 2.0 - 2.0 * WEDGE_AREA * eps ** 2 + 3.0 * eps * 0.5
            assert abs(area(g) / f ** 2 - expect) < 1e-12, f


@pytest.mark.parametrize("orbit", [1, 2])
@pytest.mark.parametrize("eps", [0.05, 0.08, 0.12])
def test_clearance_sees_cone_points_near_a_flat_puncture(
        orbit, eps, flat_puncture_surface):
    assert f"{0.2 * (2.0 - math.sqrt(3.0)):.6g}" == "0.0535898"
    with pytest.raises(BadParameters, match=(
            rf"distance 0\.0535898 < 2\*eps from puncture orbit {orbit}, "
            rf"eps={eps}$")):
        triangle_surgery_glue(
            [(flat_puncture_surface(orbit), orbit),
             (presets.square_torus(mark_vertex=True), 0)], eps)


@pytest.mark.parametrize("eps", [0.01, 0.02, 0.025])
def test_unfannable_carve_names_its_numbers(eps, flat_puncture_surface):
    # orbit 1 glues; at orbit 2 the carved piece has a reflex p2 that no
    # fan apex sees past
    t = presets.square_torus(mark_vertex=True)
    g = triangle_surgery_glue([(flat_puncture_surface(1), 1), (t, 0)], eps)
    assert abs(gauss_bonnet_defect(g)) < 1e-9
    with pytest.raises(ValueError, match=(
            rf"part 0 at puncture orbit 2 with eps={eps} leaves triangle 1 "
            r".*triangulation too coarse near the puncture")) as info:
        triangle_surgery_glue([(flat_puncture_surface(2), 2), (t, 0)], eps)
    assert type(info.value) is BadParameters


@pytest.mark.parametrize("w", [0.0, 0.3])
def test_carve_rotates_its_fan_until_the_wedge_fits(w):
    # the wedge from the fan's first corner meets triangle 0 twice; the
    # carve starts the fan one corner later, where it meets each once
    p = parallelogram_torus()
    fan = p.fans[0]
    angles = [p.corner_angle(*c) for c in fan]
    eps = 0.1
    with pytest.raises(BadParameters, match=(
            r"affected corners share a triangle: \[\(0, 0\), \(1, 0\), "
            r"\(0, 1\)\]$")):
        _carve_with_rotation(p, eps, 0, fan, angles)
    assert plan_carve(p, 0, eps, 0).corners == fan[1:3]
    g = triangle_surgery_glue(
        [(p, 0), (presets.square_torus(mark_vertex=True), 0)], eps,
        weights=[w])
    assert g.euler_characteristic == -2
    assert abs(gauss_bonnet_defect(g)) < 1e-9
    expect = 1.5 - 2.0 * WEDGE_AREA * eps ** 2 + 3.0 * eps * w
    assert abs(area(g) - expect) < 1e-12


def test_glue_takes_one_pair_of_distinct_surfaces():
    t1 = presets.square_torus(mark_vertex=True)
    t2 = presets.square_torus(mark_vertex=True)
    t3 = presets.square_torus(mark_vertex=True)
    with pytest.raises(BadParameters,
                       match=r"glues one pair of parts, got 3 parts$"):
        triangle_surgery_glue([(t1, 0), (t2, 0), (t3, 0)], 0.1)
    with pytest.raises(BadParameters, match=(
            r"glues two distinct surfaces, got 1 surface object for 2 "
            r"parts$")):
        triangle_surgery_glue([(t1, 0), (t1, 0)], 0.1)
    with pytest.raises(BadParameters, match=(
            r"one pair of parts takes one weight, got 2: \[0\.0, 0\.3\]$")):
        triangle_surgery_glue([(t1, 0), (t2, 0)], 0.1, weights=[0.0, 0.3])


def test_gluings_chain_at_surviving_punctures():
    # the 2 x 1 torus glued at orbit 0 keeps orbit 1 marked, and a third
    # torus glues there: genus three, the three tori less two wedges each
    eps = 0.2
    g = triangle_surgery_glue(
        [(presets.square_torus(mark_vertex=True), 0), (two_by_one_torus(), 0)],
        eps)
    (orbit,) = g.marked_punctures
    h = triangle_surgery_glue(
        [(g, orbit), (presets.square_torus(mark_vertex=True), 0)], eps)
    assert h.euler_characteristic == -4
    assert not h.marked_punctures
    assert abs(gauss_bonnet_defect(h)) < 1e-9
    assert abs(area(h) - (4.0 - 4.0 * WEDGE_AREA * eps ** 2)) < 1e-12
