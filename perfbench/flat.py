"""Flat-geometry workloads: geodesic spectra and cylinder rays, and
surgery followed by saddle-connection enumeration.

Same interface as ``pde``: inputs from the seed in ``__init__``, ``ops(k)``
for pass k, ``check(k, results)`` with one verdict per operation.
"""

from __future__ import annotations

import math

import numpy as np

from cubiclab import currents, flatsurface
from cubiclab.flatsurface import cylinders, presets, saddles, surgery
from cubiclab.flatsurface.surface import area, gauss_bonnet_defect

TIGHTEN_TOL = 1e-12
# Each torus class is tightened from two seeded starts, with every edge
# parameter drawn from one of these ranges: a start near the mid-edge
# polyline and one far from it.  On the 110-crossing class, six seeds gave
# 2970-3070 sweeps from near starts and 2720-3300 from far ones, so one
# start of each kind per pass keeps the work close to seed-independent.
START_RANGES = ((0.45, 0.55), (0.3, 0.7))


def _relerr(got, want) -> float:
    return max(abs(g - w) / w for g, w in zip(got, want))


class FlatSpectrum:
    """Tightening on the square torus and the octagon, then a cylinder ray.

    Per pass: the torus classes (5,8), (13,21), (34,55) (16, 42 and 110
    crossings), each from a near and a far seeded start, and the octagon
    marking, each from one seeded start (the starts are drawn once, so
    every pass does the same work);
    cylinders of heights 1..16 along (1,0), each followed by transport of
    the torus marking and its spectrum, then the limit classification; and
    a height-2 cylinder along (3,5) with its transported spectrum.
    """

    TORUS_CLASSES = ((5, 8), (13, 21), (34, 55))
    HEIGHTS = (1.0, 2.0, 4.0, 8.0, 16.0)
    SLANTED_CORE = (3, 5)
    # intersection numbers of the torus marking (1,0), (0,1), (1,1)
    TABLE = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]])

    def __init__(self, seed: int, smoke: bool):
        self.torus = presets.square_torus()
        self.octagon = presets.regular_octagon()
        pq = self.TORUS_CLASSES[:1] if smoke else self.TORUS_CLASSES
        self.torus_classes = [(p, q, presets.torus_class(p, q)) for p, q in pq]
        self.octagon_marking = presets.octagon_marking()
        self.marking = presets.torus_marking()
        self.core = presets.torus_class(1, 0)
        self.slanted = presets.torus_class(*self.SLANTED_CORE)
        rng = np.random.default_rng(seed)
        self.starts = [
            (self.torus, path, rng.uniform(lo, hi, len(path)).tolist())
            for _p, _q, path in self.torus_classes
            for lo, hi in START_RANGES]
        self.starts += [
            (self.octagon, path, rng.uniform(0.3, 0.7, len(path)).tolist())
            for path in self.octagon_marking]

    def _spectrum_after_cylinder(self, core, height):
        res = cylinders.insert_cylinder_detailed(self.torus, core, height)
        moved = [res.transport.transport(c) for c in self.marking]
        return currents.spectrum_from_flat(res.surface, moved)

    def ops(self, k: int):
        ops = [lambda done, s=s, path=path, init=init:
               flatsurface.tighten_geodesic(s, path, tol=TIGHTEN_TOL,
                                            initial_params=init)
               for s, path, init in self.starts]
        first_height = len(ops)
        for h in self.HEIGHTS:
            ops.append(lambda done, h=h:
                       self._spectrum_after_cylinder(self.core, h))
        ops.append(lambda done: currents.classify_limit(
            done[first_height:first_height + len(self.HEIGHTS)], self.TABLE))
        ops.append(lambda done:
                   self._spectrum_after_cylinder(self.slanted, 2.0))
        return ops

    def check(self, k: int, results) -> list[bool]:
        norms = [math.hypot(p, q) for p, q, _ in self.torus_classes
                 for _ in START_RANGES]
        n_torus, n_oct = len(norms), len(self.octagon_marking)
        torus = results[:n_torus]
        octagon = results[n_torus:n_torus + n_oct]
        ray = results[n_torus + n_oct:-2]
        classified, slanted = results[-2:]
        oks = [rep is not None and abs(rep.length - norm) / norm <= 1e-8
               for norm, rep in zip(norms, torus)]
        oks += [rep is not None and rep.angle_condition_ok()
                for rep in octagon]
        # a height-h cylinder along (1,0) turns the lattice basis (1,0),
        # (0,1) into (1,0), (0,1+h): the spectrum is (1, 1+h, |(1,1+h)|).
        # Height 2 is held to 1e-9; the others to the 1e-8 of the torus
        # classes (at height 1 the seed code is 3.6e-9 off).
        for h, sp in zip(self.HEIGHTS, ray):
            want = (1.0, 1.0 + h, math.hypot(1.0, 1.0 + h))
            tol = 1e-9 if h == 2.0 else 1e-8
            oks.append(sp is not None and _relerr(sp.values, want) <= tol)
        oks.append(classified is not None
                   and classified.null_set == (self.core.label,))
        oks.append(slanted is not None
                   and _relerr(slanted.values, self._slanted_lengths())
                   <= 1e-9)
        return oks

    def _slanted_lengths(self):
        """Marking lengths after a height-2 cylinder along v = (3,5).

        Each class c crosses the core det(v, c) times (signed), and every
        crossing adds the cylinder's height along the unit normal of v.
        """
        v = np.array(self.SLANTED_CORE, dtype=float)
        normal = np.array([-v[1], v[0]]) / np.linalg.norm(v)
        out = []
        for c in ((1, 0), (0, 1), (1, 1)):
            c = np.array(c, dtype=float)
            crossings = v[0] * c[1] - v[1] * c[0]
            out.append(float(np.linalg.norm(c + 2.0 * crossings * normal)))
        return out


class SaddleSurgery:
    """Seeded triangle-surgery gluings of two marked square tori, each
    followed by saddle enumeration up to L = 2, and the regular octagon's
    saddle connections up to L = 20.

    The gluings are drawn once from the seed, stratified: half with
    weight 0 and half with a prism band of weight in [0.1, 0.5], eps in
    [0.1, 0.25].  The i-th eps stratum is paired with the i-th weight
    stratum, so the seed moves each gluing only within its stratum and the
    work stays close to seed-independent; every pass does the same work.  A
    gluing costs milliseconds against about a second of enumeration, so
    no surgery speed-up can move this workload's wall time.
    """

    GLUINGS_PER_STRATUM = 4
    GLUED_L = 2.0
    OCTAGON_L = 20.0
    SCALE = 0.37
    # counts frozen from the seed code at these lengths (the L = 1.9
    # count is the one tests/test_saddles.py checks against an oracle)
    OCTAGON_COUNTS = {20.0: 848, 1.9: 12}

    def __init__(self, seed: int, smoke: bool):
        self.per_stratum = 1 if smoke else self.GLUINGS_PER_STRATUM
        self.octagon_l = 1.9 if smoke else self.OCTAGON_L
        self.tori = (presets.square_torus(mark_vertex=True),
                     presets.square_torus(mark_vertex=True))
        self.octagon = presets.regular_octagon()
        rng = np.random.default_rng(seed)
        m = self.per_stratum

        def stratified(lo, hi):
            return lo + (hi - lo) * (np.arange(m) + rng.uniform(size=m)) / m

        self.draws = list(zip(stratified(0.1, 0.25), [0.0] * m)) + \
            list(zip(stratified(0.1, 0.25), stratified(0.1, 0.5)))

    def ops(self, k: int):
        t1, t2 = self.tori
        ops = []
        for eps, w in self.draws:
            glued = len(ops)
            ops.append(lambda done, eps=eps, w=w:
                       surgery.triangle_surgery_glue(
                           [(t1, 0), (t2, 0)], eps, weights=[w]))
            ops.append(lambda done, glued=glued:
                       saddles.enumerate_saddle_connections(
                           done[glued], self.GLUED_L))
        ops.append(lambda done: saddles.enumerate_saddle_connections(
            self.octagon, self.octagon_l))
        return ops

    @staticmethod
    def _well_formed(found, length) -> bool:
        """No connection is longer than ``length`` and none is listed twice,
        on the key the enumerator deduplicates with."""
        keys = {(min(sc.start_orbit, sc.end_orbit),
                 max(sc.start_orbit, sc.end_orbit), round(sc.length, 9),
                 tuple(sorted(round(a, 7) for a in sc.directions)))
                for sc in found}
        return len(keys) == len(found) and \
            all(sc.length <= length + 1e-12 for sc in found)

    def _count_is_scale_free(self, s, length, found) -> bool:
        scaled = saddles.enumerate_saddle_connections(
            s.scaled(self.SCALE), self.SCALE * length)
        return len(scaled) == len(found)

    def check(self, k: int, results) -> list[bool]:
        oks = []
        for i, (eps, w) in enumerate(self.draws):
            s, found = results[2 * i], results[2 * i + 1]
            if s is None:
                oks += [False, False]
                continue
            want = 2.0 - 2.0 * (math.sqrt(3.0) / 4.0) * eps ** 2 \
                + 3.0 * eps * w
            oks.append(abs(gauss_bonnet_defect(s)) < 1e-9
                       and abs(area(s) - want) < 1e-9
                       and s.total_cone_order()
                       == -3 * s.euler_characteristic)
            # rescaling checks are slow, so only the first pass has them
            oks.append(found is not None
                       and self._well_formed(found, self.GLUED_L) and (
                           k > 0 or self._count_is_scale_free(
                               s, self.GLUED_L, found)))
        found = results[-1]
        oks.append(found is not None
                   and len(found) == self.OCTAGON_COUNTS[self.octagon_l]
                   and self._well_formed(found, self.octagon_l)
                   and (k > 0 or self._count_is_scale_free(
                       self.octagon, self.octagon_l, found)))
        return oks
