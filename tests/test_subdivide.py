from cubiclab.flatsurface.subdivide import Piece, split_piece


def _area(piece):
    """Shoelace area of a piece's polygon."""
    z = piece.coords
    return 0.5 * sum((z[j].conjugate() * z[(j + 1) % len(z)]).imag
                     for j in range(len(z)))


def test_split_along_a_two_point_path():
    # a convex hexagon, split from vertex 1 through two inner points to
    # vertex 4
    coords = [0j, 2 + 0j, 3 + 1j, 3 + 2j, 1 + 3j, -1 + 1j]
    piece = Piece(list("abcdef"), coords, [f"e{j}" for j in range(6)])
    inner = [("x", 1.5 + 1j), ("y", 1 + 2j)]
    p_ab, p_ba = split_piece(piece, "b", "e", ["bx", "xy", "ye"],
                             ["ey", "yx", "xb"], inner)

    # each piece runs the boundary from one end round to the other, then
    # the path back, and its edges keep their tags
    assert p_ab.verts == ["e", "f", "a", "b", "x", "y"]
    assert p_ab.tags == ["e4", "e5", "e0", "bx", "xy", "ye"]
    assert p_ba.verts == ["b", "c", "d", "e", "y", "x"]
    assert p_ba.tags == ["e1", "e2", "e3", "ey", "yx", "xb"]
    for p in (p_ab, p_ba):
        assert p.coords == [coords["abcdef".index(v)] if v in "abcdef"
                            else dict(inner)[v] for v in p.verts]

    assert _area(p_ab) > 0 and _area(p_ba) > 0
    assert abs(_area(p_ab) + _area(p_ba) - _area(piece)) < 1e-12 * _area(piece)


def test_split_along_a_chord():
    # with no inner points the path is the chord a -> b
    piece = Piece([0, 1, 2, 3], [0j, 1 + 0j, 1 + 1j, 1j],
                  ["s0", "s1", "s2", "s3"])
    p_ab, p_ba = split_piece(piece, 0, 2, ["A"], ["B"])
    assert (p_ab.verts, p_ab.tags) == ([2, 3, 0], ["s2", "s3", "A"])
    assert (p_ba.verts, p_ba.tags) == ([0, 1, 2], ["s0", "s1", "B"])
