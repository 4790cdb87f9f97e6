"""Length-spectrum bookkeeping over finite curve markings.

Geodesic currents are represented only through marked length spectra and
explicit intersection tables; weak-* convergence is replaced by
componentwise convergence over the marking.  The degeneration classifier
computes the null set (classes whose limit length vanishes while every
crossing class stays positive), partitions the remaining marking into
subsurface groups, and reports per-part systoles over the marking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParameters, NotConverged
from .flatsurface import TriangulatedFlatSurface, tighten_geodesic
from .flatsurface.surface import area as flat_area

SELF_INTERSECTION_FACTOR = math.pi / 2.0
ZERO_TOL = 1e-9  # a projectivized limit at or below it vanishes


@dataclass(frozen=True)
class MarkedLengthSpectrum:
    """Lengths of the marking classes."""

    marking: tuple[str, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(set(self.marking)) != len(self.marking):
            raise BadParameters(f"marking ids repeat: {self.marking}")
        if len(self.values) != len(self.marking):
            raise BadParameters(f"values {self.values} for {self.marking}")
        if not all(v >= 0 for v in self.values):
            raise BadParameters(f"negative length in {self.values}")


@dataclass(frozen=True)
class ProjectiveSpectrum:
    """A spectrum normalized to max-norm one, with its original scale."""

    marking: tuple[str, ...]
    values: tuple[float, ...]
    scale: float


def projectivize(sp: MarkedLengthSpectrum) -> ProjectiveSpectrum:
    scale = max(sp.values)
    if scale <= 0:
        raise BadParameters(f"cannot projectivize zero spectrum {sp.values}")
    return ProjectiveSpectrum(sp.marking,
                              tuple(v / scale for v in sp.values), scale)


def class_names(marking) -> tuple[str, ...]:
    """The classes' labels; the i-th unlabelled class is named class{i}."""
    return tuple(p.label or f"class{i}" for i, p in enumerate(marking))


def spectrum_from_flat(s: TriangulatedFlatSurface,
                       marking) -> MarkedLengthSpectrum:
    """Tightened lengths of the marking classes on a flat surface."""
    reps = [tighten_geodesic(s, path) for path in marking]
    return MarkedLengthSpectrum(class_names(marking),
                                tuple(r.length for r in reps))


def self_intersection_flat(s: TriangulatedFlatSurface) -> float:
    """(pi/2) * area: the self-intersection of the induced current."""
    return SELF_INTERSECTION_FACTOR * flat_area(s)


# -- degeneration classifier -------------------------------------------------


@dataclass(frozen=True)
class SubsurfaceMarking:
    """Marking classes grouped into one complementary subsurface."""

    classes: tuple[str, ...]
    peripheral: tuple[str, ...]
    systole_over_marking: float
    label: str  # "flat-candidate" | "laminar-candidate"


@dataclass(frozen=True)
class LimitClassification:
    limit: ProjectiveSpectrum
    modes: tuple[str, ...]          # per-class: direct | extrapolated
    null_set: tuple[str, ...]
    parts: tuple[SubsurfaceMarking, ...]
    laminar_weights: dict | None    # weights on the null set, when fittable


def _component_limit(seq: list[float], tol: float):
    """Limit of one marking component: direct or clamped-Aitken.

    Returns (limit, mode) or raises NotConverged.  A geometric tail (stable
    successive-difference ratios below one) is extrapolated by Aitken's
    delta-squared formula, clamped to the admissible cone [0, inf).
    """
    if len(seq) == 1:
        return seq[0], "direct"
    diffs = [b - a for a, b in zip(seq, seq[1:])]
    if abs(diffs[-1]) < tol:
        return seq[-1], "direct"
    if len(seq) >= 3:
        d1, d2 = diffs[-2], diffs[-1]
        if abs(d1) > 0:
            r = d2 / d1
            stable = True
            if len(diffs) >= 3 and abs(diffs[-3]) > 0:
                stable = abs(d1 / diffs[-3] - r) < 0.2
            if stable and 0 < r < 0.9:
                denom = d1 - d2
                est = seq[-1] + d2 * d2 / denom if abs(denom) > 0 else seq[-1]
                return max(est, 0.0), "extrapolated"
    raise NotConverged(
        f"component tail {seq[-3:]} neither settles below {tol} nor "
        f"extrapolates geometrically")


def classify_limit(seq: list[MarkedLengthSpectrum],
                   table: np.ndarray) -> LimitClassification:
    """Classify the limit of a sequence of spectra over a fixed marking.

    The sequence is projectivized (max-norm) and each component's limit is
    declared by direct convergence (successive differences below 1e-6) or by
    clamped geometric extrapolation.  The null set collects classes with
    zero limit all of whose crossing classes have positive limit; classes
    disjoint from the null set are grouped by the intersection graph into
    subsurface parts labeled flat-candidate (positive systole over the
    marking) or laminar-candidate.
    """
    if not seq:
        raise BadParameters(f"empty spectrum sequence {seq!r}")
    marking = seq[0].marking
    if any(sp.marking != marking for sp in seq):
        raise BadParameters(f"spectra do not share one marking: "
                            f"{sorted({sp.marking for sp in seq})}")
    n = len(marking)
    table = np.asarray(table)
    if table.shape != (n, n):
        raise BadParameters(f"intersection table of shape {table.shape} for "
                            f"{n} marking classes")
    if not np.array_equal(table, table.T):
        raise BadParameters(f"intersection table must be symmetric, got "
                            f"{table.tolist()}")
    if np.any(table < 0) or not np.array_equal(table, np.round(table)):
        raise BadParameters(f"intersection table entries are nonnegative "
                            f"ints, got {table.tolist()}")

    proj = [projectivize(sp) for sp in seq]
    comps = np.array([p.values for p in proj])
    limits, modes = zip(*(_component_limit(col, 1e-6)
                          for col in comps.T.tolist()))
    top = max(limits)
    if top <= 0:
        raise NotConverged("all projectivized limits vanished")
    limits = np.array(limits) / top
    limit = ProjectiveSpectrum(marking, tuple(limits.tolist()),
                               proj[-1].scale)

    names = np.array(marking, dtype=object)
    meets, zero = table > 0, limits <= ZERO_TOL
    null = zero & ~(meets & zero).any(1)
    touches = meets[:, null].any(1)
    crossing, free = touches & ~null, ~null & ~touches
    # the free classes (disjoint from the null set) group into parts by the
    # reachability closure of the intersection graph (each squaring doubles
    # the path length it covers); a part's row is that of its least class
    reach = meets[free][:, free] | np.eye(free.sum(), dtype=bool)
    for _ in range(len(reach).bit_length()):
        reach = reach @ reach
    blocks = np.zeros((len(reach), n), dtype=bool)
    blocks[:, free] = reach
    parts = []
    for part in blocks[blocks.argmax(1) == np.flatnonzero(free)]:
        systole = float(limits[part].min())
        label = "flat-candidate" if systole > ZERO_TOL else "laminar-candidate"
        periph = null | (crossing & meets[:, part].any(1))
        parts.append(SubsurfaceMarking(tuple(names[part]),
                                       tuple(names[periph]), systole, label))
    # classes crossing the null set cannot be certified inside any part;
    # when the null set is nonempty the laminar candidate supported on it
    # is reported as its own entry with systole zero
    if null.any():
        parts.append(SubsurfaceMarking(tuple(names[null]),
                                       tuple(names[crossing]), 0.0,
                                       "laminar-candidate"))

    weights = None
    if null.any() and not any(p.label == "flat-candidate" for p in parts):
        # fit nonnegative weights: limit(beta) = sum_alpha w_alpha i(alpha, beta)
        A = table[~null][:, null].astype(float)
        if A.size and np.linalg.matrix_rank(A) == null.sum():
            w, *_ = np.linalg.lstsq(A, limits[~null], rcond=None)
            if np.all(w >= -1e-9):
                weights = {name: max(float(wj), 0.0)
                           for name, wj in zip(names[null], w)}

    return LimitClassification(limit, modes, tuple(names[null]), tuple(parts),
                               weights)


# -- mixed structures --------------------------------------------------------


@dataclass(frozen=True)
class MixedStructure:
    """A flat metric on a subsurface plus a weighted multicurve.

    Flat parts are (part id, surface, restriction) triples where the
    restriction maps marking class ids to combinatorial classes on the part
    (ids absent from the mapping do not meet that part).  The multicurve is
    a mapping class id -> weight >= 0; boundary ids have length zero.
    """

    flat_parts: tuple
    multicurve: dict
    boundary: tuple[str, ...] = ()

    def __post_init__(self):
        for _pid, _s, restriction in self.flat_parts:
            overlap = set(restriction) & set(self.multicurve)
            if overlap:
                raise BadParameters(
                    f"classes {sorted(overlap)} lie in a flat part and in "
                    f"the multicurve")
        if not all(w >= 0 for w in self.multicurve.values()):
            raise BadParameters(f"multicurve weights must be nonnegative, got "
                                f"{self.multicurve}")


def evaluate_mixed(m: MixedStructure, class_id: str, marking,
                   table: np.ndarray) -> float:
    """i(mixed structure, class): flat lengths plus weighted crossings."""
    marking = list(marking)
    if class_id not in marking:
        raise BadParameters(f"class {class_id!r} is not in the marking "
                            f"{tuple(marking)}")
    if class_id in m.boundary:
        return 0.0
    total = 0.0
    for _pid, s, restriction in m.flat_parts:
        path = restriction.get(class_id)
        if path is not None:
            total += tighten_geodesic(s, path).length
    j = marking.index(class_id)
    for curve_id, w in m.multicurve.items():
        if w == 0.0 or curve_id not in marking:
            continue
        total += w * float(table[marking.index(curve_id), j])
    return total

