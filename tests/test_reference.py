"""The flat layer reproduces its frozen corpus (``tests/reference.py``):
saddle key sets exactly, tightened classes, intersection tables, cylinders
and transported words with combinatorial data exact and numbers to 1e-12
relative."""

import pytest

from reference import SECTIONS, compare_corpus


@pytest.mark.parametrize("section", sorted(SECTIONS))
def test_flat_layer_matches_reference_corpus(section):
    diffs = compare_corpus(section, SECTIONS[section]())
    assert not diffs, f"{len(diffs)} differences:\n" + "\n".join(diffs[:40])
