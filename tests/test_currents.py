import math

import numpy as np
import pytest

from cubiclab.currents import (
    MarkedLengthSpectrum,
    MixedStructure,
    classify_limit,
    evaluate_mixed,
    projectivize,
    self_intersection_flat,
    spectrum_from_flat,
)
from cubiclab.errors import BadParameters, NotConverged
from cubiclab.flatsurface import presets
from cubiclab.flatsurface.cylinders import insert_cylinder_detailed


def test_torus_spectrum():
    s = presets.square_torus()
    sp = spectrum_from_flat(s, presets.torus_marking())
    assert sp.marking == ("(1,0)", "(0,1)", "(1,1)")
    expect = (1.0, 1.0, math.sqrt(2.0))
    assert all(abs(v - e) < 1e-9 for v, e in zip(sp.values, expect))


def test_spectrum_after_insert():
    s = presets.square_torus()
    res = insert_cylinder_detailed(s, presets.torus_class(1, 0), 2.0)
    moved = [res.transport.transport(c) for c in presets.torus_marking()]
    sp = spectrum_from_flat(res.surface, moved)
    expect = (1.0, 3.0, math.sqrt(10.0))
    assert all(abs(v - e) < 1e-9 for v, e in zip(sp.values, expect))


@pytest.mark.parametrize("height", [1.0, 4.0])
def test_cylinder_ray_spectrum_exact(height):
    # a height-h cylinder along (1,0) turns the lattice basis (1,0), (0,1)
    # into (1,0), (0,1+h); the transported marking has the lattice norms
    s = presets.square_torus()
    res = insert_cylinder_detailed(s, presets.torus_class(1, 0), height)
    moved = [res.transport.transport(c) for c in presets.torus_marking()]
    sp = spectrum_from_flat(res.surface, moved)
    expect = (1.0, 1.0 + height, math.hypot(1.0, 1.0 + height))
    assert all(abs(v - e) <= 1e-12 * e for v, e in zip(sp.values, expect))


def test_self_intersection_flat():
    assert abs(self_intersection_flat(presets.square_torus())
               - math.pi / 2) < 1e-12
    o = presets.regular_octagon()
    assert abs(self_intersection_flat(o)
               - math.pi / 2 * 2.0 * (1 + math.sqrt(2))) < 1e-9
    unit = o.scaled(1.0 / math.sqrt(2.0 * (1 + math.sqrt(2))))
    assert abs(self_intersection_flat(unit) - math.pi / 2) < 1e-9


def test_projectivize():
    p = projectivize(MarkedLengthSpectrum(("a", "b", "c"),
                                          (1.0, 3.0, math.sqrt(10.0))))
    assert abs(p.scale - math.sqrt(10.0)) < 1e-15
    assert max(p.values) == 1.0
    p2 = projectivize(MarkedLengthSpectrum(("a",), (1.0,)))
    assert p2.scale == 1.0
    with pytest.raises(BadParameters, match=r"zero spectrum \(0\.0, 0\.0\)"):
        projectivize(MarkedLengthSpectrum(("a", "b"), (0.0, 0.0)))


def test_projective_scale_invariance():
    o = presets.regular_octagon()
    marking = presets.octagon_marking()
    p1 = projectivize(spectrum_from_flat(o, marking))
    c = 2.5
    p2 = projectivize(spectrum_from_flat(o.scaled(c), marking))
    assert np.allclose(p1.values, p2.values, atol=1e-9)
    assert abs(p2.scale - c * p1.scale) < 1e-8


def test_classify_cylinder_ray():
    s = presets.square_torus()
    marking = [presets.torus_class(1, 0), presets.torus_class(0, 1)]
    table = np.array([[0, 1], [1, 0]])
    spectra = []
    for h in (1.0, 2.0, 4.0, 8.0, 16.0):
        res = insert_cylinder_detailed(s, presets.torus_class(1, 0), h)
        moved = [res.transport.transport(c) for c in marking]
        spectra.append(spectrum_from_flat(res.surface, moved))
    cls = classify_limit(spectra, table)
    assert cls.null_set == ("(1,0)",)
    col = table[0] / table[0].max()
    assert np.abs(np.array(cls.limit.values) - col).max() < 1e-3
    lam = [p for p in cls.parts if p.label == "laminar-candidate"]
    assert any(p.classes == ("(1,0)",) for p in lam)
    assert cls.laminar_weights is not None
    assert abs(cls.laminar_weights["(1,0)"] - 1.0) < 1e-3


def test_classify_constant_sequence():
    s = presets.square_torus()
    sp = spectrum_from_flat(s, presets.torus_marking())
    table = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    cls = classify_limit([sp] * 4, table)
    assert cls.null_set == ()
    assert len(cls.parts) == 1
    assert cls.parts[0].label == "flat-candidate"
    assert cls.parts[0].systole_over_marking > 0
    assert np.allclose(cls.limit.values, projectivize(sp).values)
    # plain floats, so a repr of the result reads as the rest of the package
    assert all(type(v) is float for v in cls.limit.values)
    assert type(cls.parts[0].systole_over_marking) is float


def test_classify_two_part_synthetic():
    # marking: a1, a2 in a decaying part; b the separating boundary class;
    # c1, c2 in the surviving part; x crosses b into both parts
    marking = ("a1", "a2", "b", "c1", "c2", "x")
    table = np.array([
        [0, 1, 0, 0, 0, 1],
        [1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, 1, 1],
        [0, 0, 0, 1, 0, 0],
        [1, 0, 1, 1, 0, 0],
    ])
    seq = []
    for n in (1, 2, 4, 8, 16, 32):
        seq.append(MarkedLengthSpectrum(
            marking,
            (2.0 / n, 3.0 / n, 1.0 / n ** 2, 5.0 * n, 4.0 * n, 6.0 * n)))
    cls = classify_limit(seq, table)
    assert cls.null_set == ("b",)
    labels = {p.classes: p.label for p in cls.parts}
    assert labels[("a1", "a2")] == "laminar-candidate"
    assert labels[("c1", "c2")] == "flat-candidate"
    part_c = next(p for p in cls.parts if p.classes == ("c1", "c2"))
    assert "x" in part_c.peripheral and "b" in part_c.peripheral


def test_classify_errors():
    sp1 = MarkedLengthSpectrum(("a", "b"), (1.0, 2.0))
    sp2 = MarkedLengthSpectrum(("a", "c"), (1.0, 2.0))
    with pytest.raises(BadParameters, match=r"do not share one marking: "
                                            r"\[\('a', 'b'\), \('a', 'c'\)\]"):
        classify_limit([sp1, sp2], np.zeros((2, 2), dtype=int))
    osc = [MarkedLengthSpectrum(("a", "b"),
                                (1.0, 2.0 if i % 2 else 1.0))
           for i in range(8)]
    with pytest.raises(NotConverged,
                       match=r"component tail \[0\.5, 1\.0, 0\.5\]"):
        classify_limit(osc, np.array([[0, 1], [1, 0]]))


def _chain_table(marking, edges):
    index = {c: i for i, c in enumerate(marking)}
    table = np.zeros((len(marking), len(marking)), dtype=int)
    for u, v in edges:
        table[index[u], index[v]] = table[index[v], index[u]] = 1
    return table


def test_classify_parts_are_components_not_neighbourhoods():
    # a meets b meets c, d meets nothing: a and c share a part through b
    marking = ("a", "b", "c", "d")
    table = _chain_table(marking, [("a", "b"), ("b", "c")])
    cls = classify_limit([MarkedLengthSpectrum(marking, (1.0, 2.0, 3.0, 4.0))]
                         * 3, table)
    assert cls.null_set == ()
    assert [(p.classes, p.peripheral, p.label) for p in cls.parts] == [
        (("a", "b", "c"), (), "flat-candidate"),
        (("d",), (), "flat-candidate")]
    # a vanishing z that meets only c takes c out of every part, which cuts
    # the chain at b
    marking += ("z",)
    table = _chain_table(marking, [("a", "b"), ("b", "c"), ("c", "z")])
    seq = [MarkedLengthSpectrum(marking, (1.0, 2.0, 3.0, 4.0, 1.0 / m))
           for m in (1, 2, 4, 8, 16, 32)]
    cls = classify_limit(seq, table)
    assert cls.null_set == ("z",)
    assert [(p.classes, p.peripheral, p.label) for p in cls.parts] == [
        (("a", "b"), ("c", "z"), "flat-candidate"),
        (("d",), ("z",), "flat-candidate"),
        (("z",), ("c",), "laminar-candidate")]
    assert cls.laminar_weights is None


def test_monotone_insert_never_shrinks_marking():
    s = presets.square_torus()
    base = spectrum_from_flat(s, presets.torus_marking())
    res = insert_cylinder_detailed(s, presets.torus_class(1, 0), 1.5)
    moved = [res.transport.transport(c) for c in presets.torus_marking()]
    after = spectrum_from_flat(res.surface, moved)
    assert all(b2 >= b1 - 1e-9 for b1, b2 in zip(base.values, after.values))


def test_evaluate_mixed_and_self_intersection():
    s = presets.square_torus()
    marking = ("(1,0)", "(0,1)", "(1,1)", "alpha", "beta")
    table = np.zeros((5, 5), dtype=int)
    table[3, 4] = table[4, 3] = 3
    restriction = {"(1,0)": presets.torus_class(1, 0),
                   "(0,1)": presets.torus_class(0, 1),
                   "(1,1)": presets.torus_class(1, 1)}
    m_flat = MixedStructure(((0, s, restriction),), {})
    assert abs(evaluate_mixed(m_flat, "(1,1)", marking, table)
               - math.sqrt(2.0)) < 1e-9
    m_curve = MixedStructure((), {"alpha": 2.0})
    assert evaluate_mixed(m_curve, "beta", marking, table) == 6.0
    assert evaluate_mixed(m_curve, "(1,0)", marking, table) == 0.0
    combined = MixedStructure(((0, s, restriction),), {"alpha": 2.0})
    assert abs(evaluate_mixed(combined, "beta", marking, table) - 6.0) < 1e-12


def test_mixed_overlap_errors():
    s = presets.square_torus()
    restriction = {"(1,0)": presets.torus_class(1, 0)}
    with pytest.raises(BadParameters,
                       match=r"classes \['\(1,0\)'\] lie in a flat part"):
        MixedStructure(((0, s, restriction),), {"(1,0)": 1.0})
    marking = ("a", "b")
    table = np.array([[0, 2], [2, 0]])
    m = MixedStructure((), {"a": 1.0, "b": 1.0})
    with pytest.raises(BadParameters, match=r"class 'zz' is not in the "
                                            r"marking \('a', 'b'\)"):
        evaluate_mixed(m, "zz", marking, table)


def test_boundary_classes_have_zero_length():
    s = presets.square_torus()
    m = MixedStructure(((0, s, {}),), {}, boundary=("gamma",))
    table = np.zeros((1, 1), dtype=int)
    assert evaluate_mixed(m, "gamma", ("gamma",), table) == 0.0
