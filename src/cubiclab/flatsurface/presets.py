"""Standard surfaces and curve classes used by tests and the CLI."""

from __future__ import annotations

import cmath
import math

from ..errors import BadParameters
from .geodesics import HomotopyClassPath
from .surface import TriangulatedFlatSurface

# a lattice line this close below a class's segment's end is not crossed
_END_MARGIN = 1e-15


def rectangle_torus(a: float = 1.0, b: float = 1.0,
                    mark_vertex: bool = False) -> TriangulatedFlatSurface:
    """An a x b flat torus as two triangles split along the diagonal.

    Triangle 0 is the lower-right half, triangle 1 the upper-left.  All
    four corners are one vertex orbit of angle 2*pi (k = 0).
    """
    tris = [
        [0j, complex(a, 0.0), complex(a, b)],
        [0j, complex(a, b), complex(0.0, b)],
    ]
    gluings = [
        ((0, 0), (1, 1)),  # bottom <-> top
        ((0, 1), (1, 2)),  # right  <-> left
        ((0, 2), (1, 0)),  # diagonal
    ]
    punctures = (0,) if mark_vertex else ()
    return TriangulatedFlatSurface(tris, gluings, marked_punctures=punctures)


def square_torus(mark_vertex: bool = False) -> TriangulatedFlatSurface:
    return rectangle_torus(1.0, 1.0, mark_vertex=mark_vertex)


def torus_class(p: int, q: int, a: float = 1.0, b: float = 1.0,
                label: str | None = None) -> HomotopyClassPath:
    """The (p, q) class on rectangle_torus(a, b) as a crossing sequence.

    Traces the straight segment from a generic interior point to its
    (p*a, q*b) translate and records the lattice/diagonal crossings in order.
    """
    if p == 0 and q == 0:
        raise BadParameters(f"({p}, {q}) is the trivial class")
    # generic start point to avoid corners and crossing ties
    x0, y0 = 0.4321987 * a, 0.2718133 * b
    dx, dy = p * a, q * b

    events: list[tuple[float, tuple[int, int]]] = []

    def line_hits(w0, dw, period):
        """Times t in (0, 1) at which w0 + t*dw crosses multiples of period."""
        out = []
        if dw == 0.0:
            return out
        lo, hi = sorted((w0, w0 + dw))
        m = math.floor(lo / period) + 1
        while m * period < hi - _END_MARGIN:
            out.append(((m * period) - w0) / dw)
            m += 1
        return out

    for t in line_hits(x0, dx, a):
        events.append((t, (0, 1) if dx > 0 else (1, 2)))
    for t in line_hits(y0, dy, b):
        events.append((t, (1, 1) if dy > 0 else (0, 0)))
    # the diagonal y/b = x/a, i.e. crossings of w = y/b - x/a through integers
    w0 = y0 / b - x0 / a
    dw = dy / b - dx / a
    for t in line_hits(w0, dw, 1.0):
        events.append((t, (0, 2) if dw > 0 else (1, 0)))

    events.sort()
    crossings = [slot for _, slot in events]
    if label is None:
        label = f"({p},{q})"
    return HomotopyClassPath(tuple(crossings), label=label)


def torus_marking() -> list[HomotopyClassPath]:
    return [torus_class(p, q) for p, q in ((1, 0), (0, 1), (1, 1))]


def regular_octagon() -> TriangulatedFlatSurface:
    """Unit-side regular octagon, opposite sides glued by translation.

    Genus 2; a single vertex orbit of cone angle 6*pi (k = 6).  Triangulated
    as a fan from vertex 0; the bottom side is horizontal.
    """
    rc = 1.0 / (2.0 * math.sin(math.pi / 8.0))
    verts = [cmath.rect(rc, -5 * math.pi / 8 + j * math.pi / 4)
             for j in range(8)]
    tris = [[verts[0], verts[i + 1], verts[i + 2]] for i in range(6)]

    def side_slot(j):
        if j == 0:
            return (0, 0)
        if j == 7:
            return (5, 2)
        return (j - 1, 1)

    gluings = []
    for j in range(4):
        gluings.append((side_slot(j), side_slot(j + 4)))
    for i in range(5):
        gluings.append(((i, 2), (i + 1, 0)))
    return TriangulatedFlatSurface(tris, gluings)


def octagon_class_vertical() -> HomotopyClassPath:
    """Core of the vertical cylinder: joins the midpoints of sides 0 and 4."""
    return HomotopyClassPath(((0, 2), (1, 2), (2, 2), (3, 1)), label="vert")


def octagon_class_horizontal() -> HomotopyClassPath:
    """Core of the horizontal cylinder: joins the midpoints of sides 6 and 2."""
    return HomotopyClassPath(((5, 0), (4, 0), (3, 0), (2, 0), (1, 1)),
                             label="horiz")


def octagon_class_product() -> HomotopyClassPath:
    """The concatenation of the vertical and horizontal classes at T1."""
    vert = ((1, 2), (2, 2), (3, 1), (0, 2))
    horiz = ((1, 1), (5, 0), (4, 0), (3, 0), (2, 0))
    return HomotopyClassPath(vert + horiz, label="vert*horiz")


def octagon_marking() -> list[HomotopyClassPath]:
    return [octagon_class_vertical(), octagon_class_horizontal(),
            octagon_class_product()]


def doubled_triangle() -> TriangulatedFlatSurface:
    """The double of an equilateral unit triangle: a flat sphere with three
    cone points of angle 2*pi/3 (k = -2 each), all marked as punctures.

    This is the standard model of a surface carrying order-2 pole behaviour
    at its punctures.
    """
    h = math.sqrt(3.0) / 2.0
    front = [0j, complex(1.0, 0.0), complex(0.5, h)]
    back = [complex(1.0, 0.0), 0j, complex(0.5, -h)]
    gluings = [
        ((0, 0), (1, 0)),
        ((0, 1), (1, 2)),
        ((0, 2), (1, 1)),
    ]
    return TriangulatedFlatSurface([front, back], gluings,
                                   marked_punctures=(0, 1, 2))
