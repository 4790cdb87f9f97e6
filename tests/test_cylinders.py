import math

import numpy as np
import pytest

from cubiclab.errors import NotCylindrical, NotNonsingular
from cubiclab.flatsurface import presets, tighten_geodesic
from cubiclab.flatsurface.cylinders import (
    detect_cylinder,
    insert_cylinder,
    insert_cylinder_detailed,
)
from cubiclab.flatsurface.surface import area, gauss_bonnet_defect
from oracles import lattice_norm


def test_torus_whole_surface_cylinder():
    s = presets.square_torus()
    g = tighten_geodesic(s, presets.torus_class(1, 0), tol=1e-12)
    cyl = detect_cylinder(s, g)
    assert cyl.closed
    assert abs(cyl.circumference - 1.0) < 1e-9
    assert abs(cyl.height - 1.0) < 1e-9


@pytest.mark.parametrize("p,q", [(1, 1), (1, 2), (2, 1), (2, 3)])
def test_torus_cylinder_heights(p, q):
    # the (p, q) cylinder fills the torus: height = area / circumference
    s = presets.square_torus()
    g = tighten_geodesic(s, presets.torus_class(p, q), tol=1e-12)
    cyl = detect_cylinder(s, g)
    assert cyl.closed
    expected = 1.0 / lattice_norm(p, q)
    assert abs(cyl.height - expected) < 1e-8
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
        detect_cylinder(s, g)
    with pytest.raises(NotCylindrical, match=msg):
        insert_cylinder(s, presets.torus_class(p, q), 1.0)


def test_octagon_vertical_cylinder():
    o = presets.regular_octagon()
    g = tighten_geodesic(o, presets.octagon_class_vertical(), tol=1e-12)
    cyl = detect_cylinder(o, g)
    assert not cyl.closed
    assert abs(cyl.circumference - (1.0 + math.sqrt(2.0))) < 1e-9
    # direct octagon dissection: the middle column sweeps width 1
    assert abs(cyl.height - 1.0) < 1e-9
    assert cyl.boundary_orbits == ((0,), (0,))
    # the cylinder covers half the surface area
    assert cyl.circumference * cyl.height < area(o)


def test_cone_concatenation_rejected(octagon_commutator):
    o = presets.regular_octagon()
    g = tighten_geodesic(o, octagon_commutator, tol=1e-12)
    with pytest.raises(NotNonsingular):
        detect_cylinder(o, g)
    with pytest.raises(NotCylindrical):
        insert_cylinder(o, octagon_commutator, 1.0)


def test_insert_cylinder_torus_geometry():
    s = presets.square_torus()
    res = insert_cylinder_detailed(s, presets.torus_class(1, 0), 2.0)
    s2 = res.surface
    assert abs(area(s2) - 3.0) < 1e-12
    assert abs(gauss_bonnet_defect(s2)) < 1e-9
    assert all(k == 0 for k in s2.orbit_orders)  # cone data unchanged


def test_insert_cylinder_transported_spectrum():
    s = presets.square_torus()
    res = insert_cylinder_detailed(s, presets.torus_class(1, 0), 2.0)
    expect = {(1, 0): 1.0, (0, 1): 3.0, (1, 1): math.sqrt(10.0)}
    for (p, q), val in expect.items():
        moved = res.transport.transport(presets.torus_class(p, q))
        g = tighten_geodesic(res.surface, moved, tol=1e-12)
        assert abs(g.length - val) < 1e-9
        # oracle: lattice norm on the 1 x 3 torus
        assert abs(val - lattice_norm(p, q, 1.0, 3.0)) < 1e-15


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
    # the rebuilt triangulation's shoelace sum is the oracle here
    s = presets.square_torus()
    for h in (0.5, 2.0):
        s2 = insert_cylinder(s, presets.torus_class(1, 1), h)
        assert abs(area(s2) - (1.0 + math.sqrt(2.0) * h)) < 1e-9
        assert abs(gauss_bonnet_defect(s2)) < 1e-9


def test_insert_requires_positive_height():
    s = presets.square_torus()
    with pytest.raises(ValueError):
        insert_cylinder(s, presets.torus_class(1, 0), 0.0)


def test_iterated_insert():
    s = presets.square_torus()
    res = insert_cylinder_detailed(s, presets.torus_class(1, 0), 1.0)
    core2 = res.transport.transport(presets.torus_class(1, 0))
    s3 = insert_cylinder(res.surface, core2, 1.0)
    assert abs(area(s3) - 3.0) < 1e-9


def test_insert_keeps_marked_puncture():
    s = presets.square_torus(mark_vertex=True)
    s2 = insert_cylinder(s, presets.torus_class(1, 0), 2.0)
    assert len(s2.marked_punctures) == 1
    (orbit,) = s2.marked_punctures
    assert s2.orbit_orders[orbit] == 0
    # the marked orbit is the torus vertex, not a new vertex on the cut
    assert all(float(c) in (0.0, 1.0) for ti, i in s2.vertex_orbits[orbit]
               for c in s2.triangles[ti][i])
    assert abs(area(s2) - 3.0) < 1e-12
