"""File formats for surfaces and curve classes, plus SVG rendering.

Surface JSON:
    {"triangles": [[[x, y], [x, y], [x, y]], ...],
     "gluings": [[[t, e], [t2, e2], {"rot": r, "tx": a, "ty": b}], ...],
     "punctures": [orbit ids]}
Curve class JSON: [{"name": ..., "strip": [[t, e], ...]}, ...].
"""

from __future__ import annotations

import cmath
import json
from pathlib import Path

from ..errors import BadParameters, CubiclabError, NonInvolutiveGluing
from .geodesics import GeodesicRepresentative, HomotopyClassPath, develop_strip
from .surface import TriangulatedFlatSurface

# a check of a file read in, not a rounding decision: how far a stored
# gluing isometry may lie from the one its edges give
_ISO_TOL = 1e-7


def surface_to_dict(s: TriangulatedFlatSurface) -> dict:
    gluings = []
    for slot, partner in sorted(s.gluings.items()):
        if slot > partner:
            continue
        rot, shift = s.isometries[slot].rot, s.isometries[slot].shift
        # adding 0.0 drops a negative zero, which would read -pi or -0.0
        angle = cmath.phase(complex(rot.real, rot.imag + 0.0))
        gluings.append([list(slot), list(partner),
                        {"rot": angle, "tx": shift.real, "ty": shift.imag}])
    return {
        "triangles": [[[z.real, z.imag] for z in t] for t in s.triangles],
        "gluings": gluings,
        "punctures": sorted(s.marked_punctures),
    }


def build_surface(spec: dict) -> TriangulatedFlatSurface:
    """The surface of a ``surface_to_dict`` description, with each stored
    isometry checked against the one its edges give."""
    gluings = spec.get("gluings", [])
    s = TriangulatedFlatSurface(
        [[complex(x, y) for x, y in t] for t in spec["triangles"]],
        [(a, b) for a, b, _iso in gluings],
        marked_punctures=spec.get("punctures", ()))
    for a, b, iso in gluings:
        derived = s.isometries[tuple(a)]
        rot = cmath.rect(1.0, float(iso["rot"]))
        shift = complex(float(iso["tx"]), float(iso["ty"]))
        if (abs(rot - derived.rot) > _ISO_TOL
                or abs(shift - derived.shift) > _ISO_TOL):
            raise NonInvolutiveGluing(
                f"stored isometry for {tuple(a)} does not map its edge onto "
                f"the partner edge {tuple(b)}")
    return s


def save_surface(s: TriangulatedFlatSurface, path) -> None:
    Path(path).write_text(json.dumps(surface_to_dict(s), indent=1))


def _load(path, build):
    """build(the JSON data in the file at path); a file that cannot be
    read, parsed or built raises BadParameters naming it."""
    try:
        return build(json.loads(Path(path).read_text()))
    except (OSError, ValueError, LookupError, TypeError, CubiclabError) as err:
        raise BadParameters(f"cannot load {path}: {type(err).__name__}: "
                            f"{err}") from err


def load_surface(path) -> TriangulatedFlatSurface:
    return _load(path, build_surface)


def class_to_dict(path: HomotopyClassPath) -> dict:
    return {"name": path.label or "",
            "strip": [list(c) for c in path.crossings]}


def save_classes(classes, path) -> None:
    Path(path).write_text(json.dumps([class_to_dict(c) for c in classes],
                                     indent=1))


def _classes(data) -> list[HomotopyClassPath]:
    return [HomotopyClassPath(tuple(tuple(c) for c in entry["strip"]),
                              label=entry.get("name") or None)
            for entry in data]


def load_classes(path) -> list[HomotopyClassPath]:
    return _load(path, _classes)


def spectrum_csv_rows(names, reps: list[GeodesicRepresentative]
                      ) -> list[list]:
    rows = [["class", "length", "kind", "cone_hits"]]
    for name, g in zip(names, reps):
        rows.append([name, f"{g.length:.15g}", g.kind,
                     ";".join(str(v.orbit) for v in g.cone_visits)])
    return rows


def render_geodesic_svg(g: GeodesicRepresentative, path) -> None:
    """Draw the developed strip of a geodesic with its polyline."""
    s = g.surface
    phis = develop_strip(s, g.crossings)
    polys = [[phis[k](v) for v in s.triangles[slot[0]]]
             for k, slot in enumerate(g.crossings)]
    pts = [phis[k](s.edge_point(slot, u))
           for k, (slot, u) in enumerate(zip(g.crossings, g.params))]
    pts.append(phis[-1](s.edge_point(g.crossings[0], g.params[0])))

    allpts = [z for poly in polys for z in poly] + pts
    lo_x = min(z.real for z in allpts) - 0.2
    lo_y = min(z.imag for z in allpts) - 0.2
    hi_x = max(z.real for z in allpts) + 0.2
    hi_y = max(z.imag for z in allpts) + 0.2
    width = 640.0
    scale = width / (hi_x - lo_x)
    height = (hi_y - lo_y) * scale

    def xy(z):
        return ((z.real - lo_x) * scale, (hi_y - z.imag) * scale)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
             f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">']
    for poly in polys:
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in map(xy, poly))
        parts.append(f'<polygon points="{coords}" fill="#eef" '
                     f'stroke="#88a" stroke-width="1"/>')
    coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in map(xy, pts))
    parts.append(f'<polyline points="{coords}" fill="none" stroke="#c22" '
                 f'stroke-width="2"/>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts))
