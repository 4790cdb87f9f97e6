import itertools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import pytest

from cubiclab.blaschke import Grid2D
from cubiclab.flatsurface import HomotopyClassPath, presets
from reference import glued_tori


@pytest.fixture
def octagon_commutator():
    """[vert, horiz] = V H V^-1 H^-1 on the regular octagon, where V and H
    are the vertical and horizontal classes read from triangle 1, the
    base point of ``presets.octagon_class_product``."""
    o = presets.regular_octagon()
    vert = ((1, 2), (2, 2), (3, 1), (0, 2))
    horiz = ((1, 1), (5, 0), (4, 0), (3, 0), (2, 0))

    def inverse(crossings):
        return tuple(o.gluings[c] for c in reversed(crossings))

    return HomotopyClassPath(vert + horiz + inverse(vert) + inverse(horiz),
                             label="[vert,horiz]")


@pytest.fixture
def flat_puncture_surface():
    """Two marked square tori glued at eps 0.2, with the flat vertex orbit
    ``orbit`` (1 or 2) marked.  Orbits 1 and 2 lie 0.2 (2 - sqrt 3) from a
    k = 2 cone point."""
    def build(orbit):
        g = glued_tori(0.2, marked=orbit)
        assert g.orbit_orders == [2, 0, 0, 2, 2]
        return g

    return build


@pytest.fixture
def preconditioner_applications(monkeypatch):
    """A list that gains an entry each time a preconditioner made by
    ``Grid2D.preconditioner`` is applied, that is once per CG iteration,
    spectral or V-cycle alike.  The entry numbers the preconditioner, one a
    CG solve: k for the k-th made, from 0."""
    applied = []
    serials = itertools.count()
    preconditioner = Grid2D.preconditioner

    def counting(grid, fp, mask):
        precondition = preconditioner(grid, fp, mask)
        serial = next(serials)

        def apply(b):
            applied.append(serial)
            return precondition(b)
        return apply

    monkeypatch.setattr(Grid2D, "preconditioner", counting)
    return applied
