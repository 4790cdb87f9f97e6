"""The flat layer reproduces its frozen corpus (``tests/reference.py``):
saddle key sets exactly, tightened classes, intersection tables, cylinders
and transported words with combinatorial data exact and numbers to 1e-12
relative, and the frozen surface files read back."""

import json

import pytest

from cubiclab.flatsurface.io import build_surface, surface_to_dict
from reference import CORPUS, SECTIONS, compare_corpus


@pytest.mark.parametrize("section", sorted(SECTIONS))
def test_flat_layer_matches_reference_corpus(section):
    diffs = compare_corpus(section, SECTIONS[section]())
    assert not diffs, f"{len(diffs)} differences:\n" + "\n".join(diffs[:40])


def test_frozen_surface_files_read_back():
    # each frozen surface file builds a surface that writes the same file
    files = json.loads(CORPUS.read_text())["surfaces"]
    assert len(files) == 20
    for name, spec in files.items():
        assert surface_to_dict(build_surface(spec)) == spec, name
