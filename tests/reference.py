"""Frozen outputs, and the comparisons that tier-1 makes against them.

Two kinds are frozen.  The output directories of the CLI presets live in
``tests/data/presets/<preset>/``, with ``wall_time`` dropped from each
report.json.  The flat-layer corpus lives in ``tests/data/reference.json``:
saddle-connection key sets, tightened random classes, their intersection
tables, cylinders, transported words and the surface files of gluings and
grafts, built from fixed seeds by
``build_corpus``.  After a change that moves outputs on purpose, regenerate
both with

    PYTHONPATH=src python tests/reference.py

What must match: file names, text, check ids, pass flags, saddle keys,
crossing words and every other combinatorial value, exactly; numbers to
1e-12 relative.  Roundoff-level values need only stay within their
tolerance: a check's ``measured`` value below 1e-9 within the check's
tolerance, a ``residual`` column within the 1e-10 that ``decay_experiment``
solves the ray presets' grids to (its tolerance rises above 1e-10 only
where the rounding floor does, from n = 381 on a window of side 1.6), and
a reference number below 1e-15 in magnitude (a rounded zero, such as an
isometry shift of -5.6e-17) below 1e-15.
"""

import csv
import functools
import json
import math
import re
import shutil
from pathlib import Path

import numpy as np

from cubiclab.cli import PRESETS, main
from cubiclab.errors import CubiclabError
from cubiclab.flatsurface import (
    TriangulatedFlatSurface,
    presets,
    tighten_geodesic,
)
from cubiclab.flatsurface.cylinders import (
    detect_cylinder,
    insert_cylinder_detailed,
)
from cubiclab.flatsurface.intersections import geometric_intersection_count
from cubiclab.flatsurface.io import surface_to_dict
from cubiclab.flatsurface.saddles import enumerate_saddle_connections
from cubiclab.flatsurface.surgery import triangle_surgery_glue
from oracles import random_closed_strip

DATA = Path(__file__).resolve().parent / "data" / "presets"
CORPUS = Path(__file__).resolve().parent / "data" / "reference.json"
REL = 1e-12
MEASURED_ROUNDOFF = 1e-9
RESIDUAL_TOL = 1e-10
ZERO = 1e-15
_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _close(ref: float, new: float) -> bool:
    if ref == new or (math.isnan(ref) and math.isnan(new)):
        return True
    if abs(ref) < ZERO:
        return abs(new) < ZERO
    return abs(new - ref) <= REL * max(abs(ref), abs(new))


def _diff_json(ref, new, where, out) -> None:
    if isinstance(ref, dict) and isinstance(new, dict):
        if ref.keys() != new.keys():
            out.append(f"{where}: keys {sorted(ref)} != {sorted(new)}")
            return
        if ({"measured", "tolerance"} <= ref.keys()
                and abs(ref["measured"]) < MEASURED_ROUNDOFF):
            if not abs(new["measured"]) <= new["tolerance"]:
                out.append(f"{where}.measured: {new['measured']!r} exceeds "
                           f"the tolerance {new['tolerance']!r}")
            ref = {k: v for k, v in ref.items() if k != "measured"}
        for k in ref:
            _diff_json(ref[k], new[k], f"{where}.{k}", out)
    elif isinstance(ref, list) and isinstance(new, list):
        if len(ref) != len(new):
            out.append(f"{where}: {len(new)} entries, reference {len(ref)}")
            return
        for i, (a, b) in enumerate(zip(ref, new)):
            _diff_json(a, b, f"{where}[{i}]", out)
    elif _is_number(ref) and _is_number(new):
        if not _close(ref, new):
            out.append(f"{where}: {new!r}, reference {ref!r}")
    elif type(ref) is not type(new) or ref != new:
        out.append(f"{where}: {new!r}, reference {ref!r}")


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _diff_csv(ref_text, new_text, where, out) -> None:
    ref_rows = list(csv.reader(ref_text.splitlines()))
    new_rows = list(csv.reader(new_text.splitlines()))
    if len(ref_rows) != len(new_rows) or ref_rows[:1] != new_rows[:1]:
        out.append(f"{where}: header or row count differs")
        return
    header = ref_rows[0]
    for r, (ref_row, new_row) in enumerate(zip(ref_rows, new_rows)):
        if len(ref_row) != len(new_row):
            out.append(f"{where} row {r}: {new_row}, reference {ref_row}")
            continue
        for col, a, b in zip(header, ref_row, new_row):
            x, y = _number(a), _number(b)
            if x is None or y is None:
                ok = a == b
            elif col == "residual":
                ok = abs(y) <= RESIDUAL_TOL
            else:
                ok = _close(x, y)
            if not ok:
                out.append(f"{where} row {r} {col}: {b}, reference {a}")


def _diff_text(ref_text, new_text, where, out) -> None:
    ref_parts = _NUMBER.split(ref_text)
    new_parts = _NUMBER.split(new_text)
    if len(ref_parts) != len(new_parts):
        out.append(f"{where}: text differs")
        return
    # split with one group alternates text (even) and numbers (odd)
    for i, (a, b) in enumerate(zip(ref_parts, new_parts)):
        if a != b and (i % 2 == 0 or not _close(float(a), float(b))):
            out.append(f"{where}: {b!r}, reference {a!r}")


def compare_with_reference(name: str, out_dir: Path) -> list[str]:
    """The differences of a preset's output directory from its frozen
    reference, one line each; empty when they match."""
    ref_dir = DATA / name
    ref_files = sorted(p.name for p in ref_dir.iterdir())
    new_files = sorted(p.name for p in Path(out_dir).iterdir())
    if ref_files != new_files:
        return [f"{name}: files {new_files}, reference {ref_files}"]
    diffs = []
    for fname in ref_files:
        ref_text = (ref_dir / fname).read_text()
        new_text = (Path(out_dir) / fname).read_text()
        where = f"{name}/{fname}"
        if fname.endswith(".json"):
            new = json.loads(new_text)
            if fname == "report.json":
                new.pop("wall_time")
            _diff_json(json.loads(ref_text), new, where, diffs)
        elif fname.endswith(".csv"):
            _diff_csv(ref_text, new_text, where, diffs)
        else:
            _diff_text(ref_text, new_text, where, diffs)
    return diffs


# -- the flat-layer corpus ----------------------------------------------------

def keyset(scs, unit=1.0):
    """The dedup identity of each saddle connection: its end orbits, its
    length in units of unit and its two intrinsic angles, rounded."""
    return {(min(sc.start_orbit, sc.end_orbit),
             max(sc.start_orbit, sc.end_orbit),
             round(sc.length / unit, 9),
             tuple(sorted((round(sc.directions[0], 7),
                           round(sc.directions[1], 7)))))
            for sc in scs}


def glued_tori(eps, weight=0.0, marked=None) -> TriangulatedFlatSurface:
    """Two marked square tori glued at eps with a band of the weight; with
    ``marked``, the same triangles with only that vertex orbit marked."""
    g = triangle_surgery_glue([(presets.square_torus(mark_vertex=True), 0),
                               (presets.square_torus(mark_vertex=True), 0)],
                              eps, weights=[weight])
    if marked is None:
        return g
    return TriangulatedFlatSurface(g.triangles, g.gluings.items(),
                                   marked_punctures=(marked,))


def marked_octagon() -> TriangulatedFlatSurface:
    """The regular octagon with its cone point marked."""
    o = presets.regular_octagon()
    return TriangulatedFlatSurface(o.triangles, o.gluings.items(),
                                   marked_punctures=(0,))


def two_by_one_torus() -> TriangulatedFlatSurface:
    """A 2 x 1 torus of two unit squares: two flat vertex orbits, orbit 0
    at x = 0 and orbit 1 at x = 1 in the triangle charts, both marked."""
    tris = [[0, 1, 1 + 1j], [0, 1 + 1j, 1j],
            [1, 2, 2 + 1j], [1, 2 + 1j, 1 + 1j]]
    gluings = [((0, 0), (1, 1)), ((0, 1), (3, 2)), ((0, 2), (1, 0)),
               ((1, 2), (2, 1)), ((2, 0), (3, 1)), ((2, 2), (3, 0))]
    return TriangulatedFlatSurface(tris, gluings, marked_punctures=(0, 1))


def parallelogram_torus() -> TriangulatedFlatSurface:
    """The torus spanned by 1 and 0.5 + 0.5i, its one vertex marked.  Its
    fan starts at a corner whose wedge at eps 0.1 meets triangle 0 twice."""
    tris = [[0, 1, 1.5 + 0.5j], [0, 1.5 + 0.5j, 0.5 + 0.5j]]
    gluings = [((0, 0), (1, 1)), ((0, 1), (1, 2)), ((0, 2), (1, 0))]
    return TriangulatedFlatSurface(tris, gluings, marked_punctures=(0,))


def _saddles() -> dict:
    o = presets.regular_octagon()
    cases = {f"octagon L={L:g}": (o, L, 1.0) for L in (5.0, 20.0)}
    cases |= {f"octagon x{f:g} L={10 * f:g}": (o.scaled(f), 10.0 * f, f)
              for f in (1e-6, 1e6)}
    cases |= {f"glued eps={eps:g} w={w:g} L=2": (glued_tori(eps, w), 2.0, 1.0)
              for eps in (0.1, 0.15, 0.2, 0.25) for w in (0.0, 0.3)}
    cases |= {f"glued eps=0.2 orbit {k} marked L=1":
              (glued_tori(0.2, marked=k), 1.0, 1.0) for k in (1, 2)}
    cases["doubled triangle L=3"] = (presets.doubled_triangle(), 3.0, 1.0)
    return {name: sorted(keyset(enumerate_saddle_connections(s, L), unit))
            for name, (s, L, unit) in cases.items()}


def _surfaces() -> dict:
    return {"square torus": presets.square_torus(),
            "1.3 x 0.7 torus": presets.rectangle_torus(1.3, 0.7),
            "octagon": presets.regular_octagon(),
            "glued tori": glued_tori(0.2)}


def _named_classes(name) -> list:
    if name == "square torus":
        return presets.torus_marking() + [presets.torus_class(5, 8),
                                          presets.torus_class(13, 21)]
    if name == "1.3 x 0.7 torus":
        return [presets.torus_class(p, q, 1.3, 0.7)
                for p, q in ((1, 0), (0, 1), (1, 1), (2, 3))]
    if name == "octagon":
        return presets.octagon_marking()
    return []


def _word(crossings) -> list:
    """A crossing word up to cyclic rotation: its least rotation."""
    w = [list(c) for c in crossings]
    return min(w[r:] + w[:r] for r in range(len(w)))


def _tighten(s, cls):
    """(representative or None, record) of one class: its word, length,
    kind and cone visits, or the error tightening raised."""
    try:
        g = tighten_geodesic(s, cls, tol=1e-12)
    except CubiclabError as err:
        return None, {"error": type(err).__name__}
    visits = sorted([v.orbit, *v.side_angles] for v in g.cone_visits)
    return g, {"word": _word(g.crossings), "length": g.length,
               "kind": g.kind, "cone_visits": visits}


@functools.cache
def _representatives(name) -> list:
    """(representative or None, record) of the named classes of a surface
    and of 40 seed-3 random closed strips of 6 to 30 crossings on it."""
    s = _surfaces()[name]
    rng = np.random.default_rng(3)
    classes = _named_classes(name) + [
        random_closed_strip(s, rng, int(rng.integers(6, 31)))
        for _ in range(40)]
    return [_tighten(s, cls) for cls in classes]


def _tightening() -> dict:
    return {name: [rec for _g, rec in _representatives(name)]
            for name in _surfaces()}


def _intersections() -> dict:
    """i(g_a, g_b) for a < b among the first 12 representatives of each
    surface, or the error the count raised."""
    records = {}
    for name in _surfaces():
        reps = [g for g, _rec in _representatives(name) if g is not None]
        table = []
        for a, ga in enumerate(reps[:12]):
            for gb in reps[a + 1:12]:
                try:
                    table.append(geometric_intersection_count(ga, gb))
                except CubiclabError as err:
                    table.append(type(err).__name__)
        records[name] = table
    return records


def _cylinders() -> dict:
    surfaces = _surfaces()
    cases = {
        "square torus (1,0)": ("square torus", presets.torus_class(1, 0)),
        "square torus (2,3)": ("square torus", presets.torus_class(2, 3)),
        "1.3 x 0.7 torus (1,2)": ("1.3 x 0.7 torus",
                                  presets.torus_class(1, 2, 1.3, 0.7)),
        "octagon vertical": ("octagon", presets.octagon_class_vertical()),
        "octagon horizontal": ("octagon",
                               presets.octagon_class_horizontal()),
    }
    found = {label: detect_cylinder(tighten_geodesic(surfaces[name], cls,
                                                     tol=1e-12))
             for label, (name, cls) in cases.items()}
    # the first class on the glued tori that sweeps a cylinder once
    for g, _rec in _representatives("glued tori"):
        if g is None:
            continue
        try:
            found["glued tori, first class"] = detect_cylinder(g)
            break
        except CubiclabError:
            continue
    return {label: [c.circumference, c.height, c.closed,
                    [list(o) for o in c.boundary_orbits]]
            for label, c in found.items()}


def _transport() -> dict:
    """Words and lengths of marking classes carried through 4 cylinder
    insertions and tightened on the new surface."""
    sq, rect = presets.square_torus(), presets.rectangle_torus(1.3, 0.7)
    rect_marking = _named_classes("1.3 x 0.7 torus")
    cases = {
        "square torus (1,0) h=2": (sq, presets.torus_class(1, 0), 2.0,
                                   presets.torus_marking()),
        "square torus (3,5) h=0.5": (sq, presets.torus_class(3, 5), 0.5,
                                     presets.torus_marking()
                                     + [presets.torus_class(2, -3)]),
        "1.3 x 0.7 torus (1,2) h=0.5": (rect, rect_marking[3], 0.5,
                                        rect_marking),
        "octagon vertical h=1": (presets.regular_octagon(),
                                 presets.octagon_class_vertical(), 1.0,
                                 presets.octagon_marking()),
    }
    records = {}
    for label, (s, core, h, marking) in cases.items():
        res = insert_cylinder_detailed(s, core, h)
        moved = [res.transport.transport(cls) for cls in marking]
        records[label] = [
            [_word(m.crossings),
             tighten_geodesic(res.surface, m, tol=1e-12).length]
            for m in moved]
    return records


def _surface_files() -> dict:
    """surface_to_dict of 20 surfaces that surgery and grafting build."""
    marked = functools.partial(presets.square_torus, mark_vertex=True)
    sq = presets.square_torus()
    cases = {f"glued eps={eps:g} w={w:g}": glued_tori(eps, w)
             for eps in (0.1, 0.15, 0.2, 0.25) for w in (0.0, 0.3)}
    cases |= {f"glued eps=0.2 orbit {k} marked": glued_tori(0.2, marked=k)
              for k in (1, 2)}
    cases["octagons eps=0.3 w=0.2"] = triangle_surgery_glue(
        [(marked_octagon(), 0), (marked_octagon(), 0)], 0.3, weights=[0.2])
    cases["torus and 2 x 1 torus eps=0.2"] = triangle_surgery_glue(
        [(marked(), 0), (two_by_one_torus(), 0)], 0.2)
    cases["parallelogram and torus eps=0.1 w=0.3"] = triangle_surgery_glue(
        [(parallelogram_torus(), 0), (marked(), 0)], 0.1, weights=[0.3])
    cases |= {f"square torus (1,0) h={h:g}": insert_cylinder_detailed(
        sq, presets.torus_class(1, 0), h).surface
        for h in (1.0, 2.0, 4.0, 8.0, 16.0)}
    cases["octagon vertical h=1"] = insert_cylinder_detailed(
        presets.regular_octagon(), presets.octagon_class_vertical(),
        1.0).surface
    cases["square torus (3,5) h=2"] = insert_cylinder_detailed(
        sq, presets.torus_class(3, 5), 2.0).surface
    return {name: surface_to_dict(s) for name, s in cases.items()}


SECTIONS = {"saddles": _saddles, "tightening": _tightening,
            "intersections": _intersections, "cylinders": _cylinders,
            "transport": _transport, "surfaces": _surface_files}


def compare_corpus(section: str, new) -> list[str]:
    """The differences of a rebuilt corpus section from the frozen one, one
    line each; saddle key sets name each key lost or new."""
    ref = json.loads(CORPUS.read_text())[section]
    new = json.loads(json.dumps(new))
    diffs = []
    if section != "saddles":
        _diff_json(ref, new, section, diffs)
        return diffs
    if ref.keys() != new.keys():
        return [f"saddles: cases {sorted(new)}, reference {sorted(ref)}"]
    for name in ref:
        old_keys = {json.dumps(k) for k in ref[name]}
        new_keys = {json.dumps(k) for k in new[name]}
        diffs += [f"saddles/{name}: lost {k}"
                  for k in sorted(old_keys - new_keys)]
        diffs += [f"saddles/{name}: new {k}"
                  for k in sorted(new_keys - old_keys)]
    return diffs


def _dump_corpus() -> str:
    """The corpus as JSON with one record a line."""
    sections = []
    for section, build in SECTIONS.items():
        lines = [f"  {json.dumps(name)}: {json.dumps(rec)}"
                 for name, rec in build().items()]
        sections.append(f" {json.dumps(section)}: {{\n"
                        + ",\n".join(lines) + "\n }")
    return "{\n" + ",\n".join(sections) + "\n}\n"


def regenerate() -> None:
    shutil.rmtree(DATA, ignore_errors=True)
    for name in sorted(PRESETS):
        out = DATA / name
        if main([PRESETS[name]["command"], "--preset", name,
                  "--out", str(out)]) != 0:
            raise SystemExit(f"preset {name} failed")
        report = out / "report.json"
        data = json.loads(report.read_text())
        del data["wall_time"]
        report.write_text(json.dumps(data, indent=1))
    CORPUS.write_text(_dump_corpus())


if __name__ == "__main__":
    regenerate()
