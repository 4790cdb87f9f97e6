"""Tagged triangle soup: the cut-and-glue layer shared by the surgeries.

Cylinder insertion and triangle surgery cut triangles into pieces, add flat
parts between the cuts and rebuild a surface.  They only say where to cut
and what to glue; the bookkeeping lives here:

- ``add_cut`` records a cut on a slot and on its glued slot, in order;
- ``triangle_piece`` turns a triangle into a piece with its cut points
  inserted, and ``sub_edge`` names the sub-edge that holds a param;
- ``split_piece`` cuts a piece in two along a path between two boundary
  vertices: a chord for insertion, the wedge's base (and leg) for surgery;
- ``Soup.add_fan`` triangulates a piece and ``Soup.add_band`` glues a
  closed band of flat rectangles between two sides of a cut;
- ``Soup.glue`` pairs two tags, and ``Soup.assemble`` pairs every other
  sub-edge with that of its glued slot and builds the validated surface;
- ``Soup.carry`` finds surviving marked punctures, ``Soup.where`` the edge
  that carries a tag.

Tags are matched symbolically, so no floating-point keys enter the matching.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, insort
from dataclasses import dataclass

from .planar import left_of
from .surface import TriangulatedFlatSurface

# A tag is any hashable value; each tag appears on exactly one soup edge.
# The sub-edge of a slot between the cut ids a and b ("lo"/"hi" at the
# slot's own ends 0/1) is tagged ("slot", key, slot, a, b), where ``key``
# tells apart the surfaces that enter one soup.
_FLIP = {"lo": "hi", "hi": "lo"}


@dataclass
class Piece:
    """A polygon with symbolic vertex ids and tagged boundary edges.

    ``tags[j]`` tags the edge from verts[j] to verts[j+1] (cyclically).
    """

    verts: list
    coords: list  # complex points aligned with verts
    tags: list

    def centroid(self) -> complex:
        return sum(self.coords) / len(self.coords)


def split_piece(piece: Piece, id_a, id_b, tags_ab, tags_ba, inner=(),
                ) -> tuple[Piece, Piece]:
    """Split a piece along a path from boundary vertex a through the
    ``inner`` (vertex id, point) pairs to boundary vertex b.

    ``tags_ab`` tags the path's edges walked from a to b, ``tags_ba`` from
    b to a.  Returns (the piece keeping the path a -> b, the piece keeping
    b -> a).
    """
    n = len(piece.verts)
    ia, ib = piece.verts.index(id_a), piece.verts.index(id_b)

    def side(start, stop, path, tags):
        # the boundary from start round to stop, then the path back
        idx = [(start + j) % n for j in range((stop - start) % n + 1)]
        return Piece([piece.verts[j] for j in idx] + [v for v, _z in path],
                     [piece.coords[j] for j in idx] + [z for _v, z in path],
                     [piece.tags[j] for j in idx[:-1]] + list(tags))

    inner = list(inner)
    return side(ib, ia, inner, tags_ab), side(ia, ib, inner[::-1], tags_ba)


class Soup:
    """Accumulates tagged triangles and assembles the final surface."""

    def __init__(self):
        self.tris: list[tuple[complex, complex, complex]] = []
        self.tags: list[list] = []
        self._fresh = itertools.count()
        self._pairs: dict = {}

    def add_triangle(self, pts, tags3) -> int:
        self.tris.append(tuple(pts))
        self.tags.append(list(tags3))
        return len(self.tris) - 1

    def add_fan(self, piece: Piece) -> list[int]:
        """Fan-triangulate a piece; internal diagonals are paired here.

        The fan apex is chosen so every fan triangle is counterclockwise
        with positive area (handles one reflex vertex).  Returns the soup
        triangles in path order.
        """
        m = len(piece.verts)
        if m == 3:
            return [self.add_triangle(piece.coords, piece.tags)]
        z = piece.coords
        for a in range(m):
            if all(left_of(z[(a + i) % m] - z[a], z[(a + i + 1) % m] - z[a])
                   for i in range(1, m - 1)):
                break
        else:
            raise ValueError("piece admits no valid fan apex")

        subtris = []
        prev_diag = None
        for i in range(1, m - 1):
            j0, j1, j2 = a, (a + i) % m, (a + i + 1) % m
            pts = [piece.coords[j0], piece.coords[j1], piece.coords[j2]]
            tags3 = [None, piece.tags[j1], None]
            if i == 1:
                tags3[0] = piece.tags[j0]
            if i == m - 2:
                tags3[2] = piece.tags[j2]
            idx = self.add_triangle(pts, tags3)
            if prev_diag is not None:
                pid = ("fan", next(self._fresh))
                self.tags[prev_diag][2] = pid
                self.tags[idx][0] = (pid, "twin")
                self.glue(pid, (pid, "twin"))
            prev_diag = idx
            subtris.append(idx)
        return subtris

    def add_band(self, widths, h: float, bottoms, tops) -> list[list[int]]:
        """A closed band of w_k x h rectangles glued between two sides of a
        cut; returns the soup triangles of each rectangle.

        Rectangle k is cut along its diagonal from (0, 0).  Its bottom is
        glued to the soup edge tagged ``bottoms[k]``, its top to the edge
        tagged ``tops[k]`` and its right side to the left side of rectangle
        k+1, cyclically.
        """
        band = ("band", next(self._fresh))
        n = len(widths)
        rects = []
        for k, w in enumerate(widths):
            bottom, top = (band, k, "bottom"), (band, k, "top")
            seam, prev_seam = (band, k, "seam"), (band, (k - 1) % n, "seam")
            sides = [bottom, seam, top, (prev_seam, "twin")]
            corners = [0j, complex(w, 0.0), complex(w, h), complex(0.0, h)]
            rects.append(self.add_fan(Piece([0, 1, 2, 3], corners, sides)))
            self.glue(bottom, bottoms[k])
            self.glue(top, tops[k])
            self.glue(seam, (seam, "twin"))
        return rects

    def glue(self, a, b) -> None:
        """Pair the soup edges tagged a and b."""
        self._pairs[a] = b
        self._pairs[b] = a

    def carry(self, s: TriangulatedFlatSurface, fans, orbits) -> list:
        """(soup triangle, corner) of each vertex orbit of s in ``orbits``,
        found at the orbit's least corner (t, i) among ``fans[t]``, the soup
        triangles of old triangle t.  Pieces copy their corners bit for
        bit, so the match is exact at every scale."""
        out = []
        for orbit in orbits:
            t, i = s.vertex_orbits[orbit][0]
            pos = s.triangles[t][i]
            hit = next(((ti, li) for ti in fans[t] for li in range(3)
                        if self.tris[ti][li] == pos), None)
            if hit is None:
                raise RuntimeError(f"no corner of soup triangles {fans[t]} "
                                   f"lies at {pos!r}")
            out.append(hit)
        return out

    def where(self) -> dict:
        """The (triangle, edge) carrying each tag, in the soup and, as soup
        triangle i is triangle i of the assembled surface, on the surface."""
        index: dict = {}
        for ti, tags3 in enumerate(self.tags):
            for e, tag in enumerate(tags3):
                if tag is None:
                    raise ValueError(f"untagged soup edge ({ti}, {e})")
                if tag in index:
                    raise ValueError(f"duplicate soup tag {tag!r}")
                index[tag] = (ti, e)
        return index

    def assemble(self, by_key, marked_punctures=()) -> TriangulatedFlatSurface:
        """Pair all tagged edges and build the validated surface.

        A sub-edge no ``glue`` paired meets the sub-edge of its glued slot
        in ``by_key[key]``, the gluings of the surface it came from: cut ids
        are shared, the slot's own ends swap.
        """
        index = self.where()
        used = set()
        gluings = []
        for tag, slot in index.items():
            if tag in used:
                continue
            partner = self._pairs.get(tag)
            if partner is None:
                _, key, old, a, b = tag
                partner = ("slot", key, by_key[key][old],
                           _FLIP.get(b, b), _FLIP.get(a, a))
            if partner not in index:
                raise ValueError(f"no partner for soup tag {tag!r}")
            gluings.append((slot, index[partner]))
            used.add(tag)
            used.add(partner)
        return TriangulatedFlatSurface(
            [t for t in self.tris], gluings, marked_punctures=marked_punctures)


def add_cut(cuts, s: TriangulatedFlatSurface, slot, u: float, cid) -> None:
    """Record the cut ``cid`` at param u on the slot and at 1 - u on its
    glued slot: ``cuts[slot]`` lists (param, cut id) sorted by param, and a
    cut id names a point shared with the glued slot."""
    insort(cuts.setdefault(slot, []), (u, cid))
    insort(cuts.setdefault(s.gluings[slot], []), (1.0 - u, cid))


def sub_edge(cuts, key, slot, u: float):
    """The tag of the sub-edge of the slot that holds the param u."""
    on = cuts.get(slot, [])
    i = bisect_left(on, (u,))
    return ("slot", key, slot, on[i - 1][1] if i else "lo",
            on[i][1] if i < len(on) else "hi")


def triangle_piece(s: TriangulatedFlatSurface, t: int, cuts, key=None,
                   ) -> Piece:
    """Triangle t as a piece with the cut points of its edges inserted,
    each sub-edge tagged with ``key`` (see ``add_cut`` for ``cuts``)."""
    tri = s.triangles[t]
    verts, coords, tags = [], [], []
    for e in range(3):
        slot = (t, e)
        verts.append(("corner", t, e))
        coords.append(tri[e])
        a, b = tri[e], tri[(e + 1) % 3]
        prev_id = "lo"
        for u, cid in list(cuts.get(slot, ())) + [(1.0, "hi")]:
            tags.append(("slot", key, slot, prev_id, cid))
            prev_id = cid
            if cid != "hi":
                verts.append(cid)
                coords.append(a + u * (b - a))
    if len(set(verts)) != len(verts):
        raise ValueError(f"a cut id appears twice on triangle {t}: {verts}")
    return Piece(verts, coords, tags)
