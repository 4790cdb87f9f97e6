import math

import numpy as np
import pytest

from cubiclab.flatsurface.planar import (
    EPS,
    clip_cone,
    cross,
    dot,
    in_wedge,
    left_of,
    origin_to_segment,
)

# The fused wedge predicates of planar.py must round exactly as their
# cross / left_of / dot compositions below, so that saddle enumeration
# gives the same connections bit for bit.


def _in_wedge(w1, w2, c):
    return left_of(w1, c) and left_of(c, w2)


def _clip_cone(a1, a2, b1, b2):
    s = b1 if cross(a1, b1) > 0 else a1
    e = b2 if cross(b2, a2) > 0 else a2
    if not left_of(s, e):
        return None
    return s, e


def _origin_to_segment(a, b):
    d = b - a
    L2 = dot(d, d)
    if L2 == 0.0:
        return abs(a)
    t = min(1.0, max(0.0, -dot(a, d) / L2))
    return abs(a + t * d)


def _points(rng, n):
    """n seeded points, each at its own scale between 1e-6 and 1e6."""
    scales = 10.0 ** rng.integers(-6, 7, size=n)
    xy = rng.normal(size=(n, 2)) * scales[:, None]
    return [complex(x, y) for x, y in xy]


def _near_rays(rng, n):
    """n quads of points within a few EPS of one seeded direction, so
    that the rounding of each test decides it."""
    base = _points(rng, n)
    tilt = rng.uniform(-3e-12, 3e-12, size=(n, 3))
    stretch = 10.0 ** rng.uniform(-3, 3, size=(n, 3))
    return [(u, *(u * s * complex(1.0, e) for s, e in zip(ss, es)))
            for u, ss, es in zip(base, stretch, tilt)]


def _on_threshold(rng, n):
    """n pairs (u, v) where cross(u, v) is exactly the larger of
    EPS * abs(u) * abs(v) and EPS * (abs(u) * abs(v)), which differ: there
    the grouping of the threshold alone decides left_of(u, v)."""
    pairs = []
    while len(pairs) < n:
        a, vr = 10.0 ** rng.uniform(-6, 6, size=2)
        # u is real, so cross(u, v) is the one product a * vi
        u, top = complex(a, 0.0), max(EPS * a * vr, EPS * (a * vr))
        if top == min(EPS * a * vr, EPS * (a * vr)):
            continue
        vi = top / a
        for _ in range(4):
            v = complex(vr, vi)
            if cross(u, v) == top and abs(v) == vr:
                pairs.append((u, v))
                break
            vi = math.nextafter(vi, math.inf if a * vi < top else -math.inf)
    return pairs


def _same(got, want):
    # == on floats and on (complex, complex) pairs, with None == None
    return type(got) is type(want) and got == want


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fused_predicates_match_their_compositions(seed):
    rng = np.random.default_rng(seed)
    p = _points(rng, 4 * 2000)
    quads = [*zip(p[0::4], p[1::4], p[2::4], p[3::4]), *_near_rays(rng, 2000)]
    inside = [in_wedge(a, b, c) for a, b, c, _d in quads]
    assert inside == [_in_wedge(a, b, c) for a, b, c, _d in quads]
    assert any(inside) and not all(inside)
    clips = [clip_cone(*q) for q in quads]
    assert all(_same(got, _clip_cone(*q)) for got, q in zip(clips, quads))
    assert None in clips and any(c is not None for c in clips)
    dists = [origin_to_segment(a, b) for a, b, _c, _d in quads]
    assert dists == [_origin_to_segment(a, b) for a, b, _c, _d in quads]


def test_fused_predicates_keep_the_threshold_grouping():
    pairs = _on_threshold(np.random.default_rng(3), 200)
    assert any(left_of(u, v) for u, v in pairs)
    assert not all(left_of(u, v) for u, v in pairs)
    for u, v in pairs:
        # the first test of in_wedge, its second, and the clip's last
        assert in_wedge(u, v * 1j, v) == _in_wedge(u, v * 1j, v)
        assert in_wedge(u * -1j, v, u) == _in_wedge(u * -1j, v, u)
        assert _same(clip_cone(u, v, u, v), _clip_cone(u, v, u, v))


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_fused_predicates_on_degenerate_input(scale):
    w1, w2 = scale * (1 + 0j), scale * (1 + 1j)
    rays = (w1, w2)
    # an apex on a wedge ray, at or beyond its length, or a rounding off it
    for c in [3.0 * w1, 0.5 * w2, w1 * complex(1.0, 1e-13),
              w2 * complex(1.0, -1e-13), 0j]:
        assert in_wedge(w1, w2, c) is _in_wedge(w1, w2, c) is False
    assert in_wedge(w1, w2, 2.0 * w1 + w2) == _in_wedge(w1, w2, 2.0 * w1 + w2)
    # a portal with an end on a wedge ray, or wholly along one
    for b1, b2 in [(2.0 * w1, 2.0 * w2), (w1, 3.0 * w1), (2.0 * w2, w2),
                   (0.5 * w1, 0.25 * w1 + w2), (w2 * 1j, w1 * -1j)]:
        for a1, a2 in (rays, rays[::-1]):
            assert _same(clip_cone(a1, a2, b1, b2),
                         _clip_cone(a1, a2, b1, b2))
    # a portal end parallel to a ray keeps the wedge's own ray
    assert clip_cone(w1, w2, 2.0 * w1, 2.0 * w2) == (w1, w2)
    assert clip_cone(w1, w2, w1, 3.0 * w1) is None
    # zero-length and origin-crossing segments, and ends on the origin
    for a, b in [(w2, w2), (0j, 0j), (-w1, w1), (0j, w2),
                 (w1, w1 + w2 * 1e-9)]:
        assert origin_to_segment(a, b) == _origin_to_segment(a, b)
    assert origin_to_segment(w2, w2) == abs(w2)
    assert origin_to_segment(-w1, w1) == 0.0
    assert math.isclose(origin_to_segment(w1 * 1j, w1 * 1j + w2),
                        abs(w1), rel_tol=1e-15)
