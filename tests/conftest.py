import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import pytest

from cubiclab.flatsurface import HomotopyClassPath, presets


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
