import math

import numpy as np
import pytest

from cubiclab.flatsurface.planar import (
    EPS,
    clip_cone,
    cross,
    in_wedge,
    left_of,
    mul,
    origin_to_segment,
)
from oracles import clip_cone as _clip_cone
from oracles import in_wedge as _in_wedge
from oracles import origin_to_segment as _origin_to_segment

# The array forms of planar.py must round exactly as the cross / left_of /
# dot compositions of oracles.py, element for element, so that saddle
# enumeration gives the same connections bit for bit.


def _pair(zs):
    """A list of complex numbers as an (re, im) pair of arrays."""
    return (np.array([z.real for z in zs], dtype=float),
            np.array([z.imag for z in zs], dtype=float))


def _complex(pair):
    return [complex(x, y) for x, y in zip(*(a.tolist() for a in pair))]


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


def _same_wedges(quads):
    """in_wedge(a, b, c) and the composition agree on every quad."""
    a, b, c = (_pair(col) for col in list(zip(*quads))[:3])
    got = in_wedge(a, b, c).tolist()
    assert got == [_in_wedge(*q[:3]) for q in quads]
    return got


def _same_clips(quads):
    """clip_cone agrees with the composition on every quad: the same
    verdict, and where the cone is open the same rays."""
    s, e, open_ = clip_cone(*(_pair(col) for col in zip(*quads)))
    got = [(lo, hi) if ok else None
           for lo, hi, ok in zip(_complex(s), _complex(e), open_.tolist())]
    assert got == [_clip_cone(*q) for q in quads]
    return got


def _same_distances(segments):
    a, b = (_pair(col) for col in zip(*segments))
    got = origin_to_segment(a, b).tolist()
    assert got == [_origin_to_segment(*seg) for seg in segments]
    return got


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fused_predicates_match_their_compositions(seed):
    rng = np.random.default_rng(seed)
    p = _points(rng, 4 * 2000)
    quads = [*zip(p[0::4], p[1::4], p[2::4], p[3::4]), *_near_rays(rng, 2000)]
    inside = _same_wedges(quads)
    assert any(inside) and not all(inside)
    clips = _same_clips(quads)
    assert None in clips and any(c is not None for c in clips)
    _same_distances([q[:2] for q in quads])
    u, v = _pair(p[0::2]), _pair(p[1::2])
    assert _complex(mul(u, v)) == [a * b for a, b in zip(p[0::2], p[1::2])]


def test_fused_predicates_keep_the_threshold_grouping():
    pairs = _on_threshold(np.random.default_rng(3), 200)
    assert any(left_of(u, v) for u, v in pairs)
    assert not all(left_of(u, v) for u, v in pairs)
    # the first test of in_wedge, its second, and the clip's last
    _same_wedges([(u, v * 1j, v) for u, v in pairs])
    _same_wedges([(u * -1j, v, u) for u, v in pairs])
    _same_clips([(u, v, u, v) for u, v in pairs])


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_fused_predicates_on_degenerate_input(scale):
    w1, w2 = scale * (1 + 0j), scale * (1 + 1j)
    rays = (w1, w2)
    # an apex on a wedge ray, at or beyond its length, or a rounding off it
    apexes = [3.0 * w1, 0.5 * w2, w1 * complex(1.0, 1e-13),
              w2 * complex(1.0, -1e-13), 0j]
    assert _same_wedges([(w1, w2, c) for c in apexes]) == [False] * 5
    _same_wedges([(w1, w2, 2.0 * w1 + w2)])
    # a portal with an end on a wedge ray, or wholly along one
    portals = [(2.0 * w1, 2.0 * w2), (w1, 3.0 * w1), (2.0 * w2, w2),
               (0.5 * w1, 0.25 * w1 + w2), (w2 * 1j, w1 * -1j)]
    _same_clips([(*a, *b) for b in portals for a in (rays, rays[::-1])])
    # a portal end parallel to a ray keeps the wedge's own ray
    assert _same_clips([(w1, w2, 2.0 * w1, 2.0 * w2),
                        (w1, w2, w1, 3.0 * w1)]) == [(w1, w2), None]
    # zero-length and origin-crossing segments, and ends on the origin
    got = _same_distances([(w2, w2), (0j, 0j), (-w1, w1), (0j, w2),
                           (w1, w1 + w2 * 1e-9), (w1 * 1j, w1 * 1j + w2)])
    assert got[:3] == [abs(w2), 0.0, 0.0]
    assert math.isclose(got[-1], abs(w1), rel_tol=1e-15)
