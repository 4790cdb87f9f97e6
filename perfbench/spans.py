"""In-memory spans around cubiclab's public calls, and the per-layer metrics
computed from them.

The tracer wraps callables from outside the program: nothing under ``src/``
changes.  A wrapper replaces the callable in every loaded module that binds
it by name (``decay.solve_tzitzeica``, ``currents.tighten_geodesic``, ...),
and methods are replaced on their class.  Modules a workload never imported
are left alone, so a traced run imports nothing the untraced run does not.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _wang_attrs(args, kwargs, sol):
    return {"n": _arg(args, kwargs, 0, "grid").nx,
            "newton_iterations": sol.newton_iterations,
            "residual": sol.residual}


def _tighten_attrs(args, kwargs, rep):
    return {"crossings": len(_arg(args, kwargs, 1, "path")),
            "length": rep.length}


def _saddle_attrs(_args, _kwargs, found):
    return {"found": len(found)}


# (span name, "module:qualified.attribute", attrs(args, kwargs, result))
TARGETS = (
    ("spla.spsolve", "scipy.sparse.linalg:spsolve", None),
    ("solver.laplacian_matrix",
     "cubiclab.blaschke.solver:laplacian_matrix", None),
    ("solver.solve_wang", "cubiclab.blaschke.solver:solve_wang", _wang_attrs),
    ("solver.solve_tzitzeica",
     "cubiclab.blaschke.solver:solve_tzitzeica", None),
    ("decay.decay_experiment",
     "cubiclab.blaschke.decay:decay_experiment", None),
    ("decay.flat_metric_path_length",
     "cubiclab.blaschke.decay:flat_metric_path_length", None),
    ("geodesics.tighten_geodesic",
     "cubiclab.flatsurface.geodesics:tighten_geodesic", _tighten_attrs),
    ("geodesics.develop_strip",
     "cubiclab.flatsurface.geodesics:develop_strip", None),
    ("cylinders.insert_cylinder_detailed",
     "cubiclab.flatsurface.cylinders:insert_cylinder_detailed", None),
    ("cylinders.TransportMap.transport",
     "cubiclab.flatsurface.cylinders:TransportMap.transport", None),
    ("currents.spectrum_from_flat",
     "cubiclab.currents:spectrum_from_flat", None),
    ("currents.classify_limit", "cubiclab.currents:classify_limit", None),
    ("saddles.enumerate_saddle_connections",
     "cubiclab.flatsurface.saddles:enumerate_saddle_connections",
     _saddle_attrs),
    ("surgery.triangle_surgery_glue",
     "cubiclab.flatsurface.surgery:triangle_surgery_glue", None),
    ("surface.TriangulatedFlatSurface",
     "cubiclab.flatsurface.surface:TriangulatedFlatSurface.__init__", None),
    ("subdivide.Soup.assemble",
     "cubiclab.flatsurface.subdivide:Soup.assemble", None),
)

WANG_SCALE_POINTS = (129, 257, 513)
# square-torus classes of flat-spectrum by their number of crossings
TORUS_CLASSES = {16: (5, 8), 42: (13, 21), 110: (34, 55)}

# every per-layer metric with its unit, in reporting order
PER_LAYER = (
    ("solver.linsolve_s", "s"),
    ("solver.linsolve_calls", "count"),
    ("solver.laplacian_s", "s"),
    ("solver.laplacian_calls", "count"),
    *((f"solver.wang_n{n}_s", "s") for n in WANG_SCALE_POINTS),
    ("solver.newton_iters", "count"),
    ("solver.residual_max", "1"),
    ("solver.tzitzeica_s", "s"),
    ("decay.self_s", "s"),
    ("decay.quad_s", "s"),
    *((f"geodesics.tighten_x{c}_s", "s") for c in TORUS_CLASSES),
    ("geodesics.tighten_calls", "count"),
    ("geodesics.develop_calls", "count"),
    ("geodesics.len_relerr_max", "ratio"),
    ("cylinders.insert_self_s", "s"),
    ("cylinders.transport_self_s", "s"),
    ("currents.spectrum_self_s", "s"),
    ("currents.classify_s", "s"),
    ("saddles.enumerate_s", "s"),
    ("saddles.found_per_s", "1/s"),
    ("surgery.glue_self_s", "s"),
    ("surgery.glue_calls", "count"),
    ("surface.build_s", "s"),
    ("surface.builds", "count"),
    ("subdivide.assemble_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans while installed; ``take`` hands over one pass's spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.passes: list[list[Span]] = []
        self._open: list[int] = []

    def _wrap(self, name, fn, attrs):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, open_[-1] if open_ else None)
            open_.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                open_.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target bound in an already-imported module."""
        undo = []
        try:
            for name, target, attrs in TARGETS:
                modname, _, qualname = target.partition(":")
                module = sys.modules.get(modname)
                if module is None:
                    continue  # the workload does not use this layer
                *owner_path, attr = qualname.split(".")
                owner = module
                for part in owner_path:
                    owner = getattr(owner, part, None)
                orig = getattr(owner, attr, None) if owner is not None \
                    else None
                if orig is None:
                    print(f"perfbench: trace target {target} not found",
                          file=sys.stderr)
                    continue
                wrapper = self._wrap(name, orig, attrs)
                if owner_path:
                    holders = [owner]
                else:
                    holders = [m for m in list(sys.modules.values())
                               if getattr(m, "__dict__", {}).get(attr)
                               is orig]
                for holder in holders:
                    setattr(holder, attr, wrapper)
                    undo.append((holder, attr, orig))
            yield self
        finally:
            for holder, attr, orig in reversed(undo):
                setattr(holder, attr, orig)

    def take(self) -> list[Span]:
        """Return the spans of the pass just ended and start a new list;
        they are also kept for ``dump``."""
        if self._open:
            raise RuntimeError("cannot take spans while a span is open")
        spans = self.spans[:]
        self.spans.clear()
        self.passes.append(spans)
        return spans

    def discard(self) -> None:
        """Forget the spans recorded since the last ``take``."""
        self.spans.clear()

    def dump(self) -> list[dict]:
        """Every kept span as a JSON-ready record; parents index the pass."""
        return [{"pass": k, "name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "attrs": s.attrs}
                for k, spans in enumerate(self.passes) for s in spans]


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer metrics of one pass.

    A layer the workload does not run reports 0: that is the prediction
    for the workloads that bypass it.
    """
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.seconds
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append((i, s))

    def total(name, keep=lambda s: True):
        return sum(s.seconds for _, s in by_name[name] if keep(s))

    def self_time(name):
        return sum(s.seconds - child[i] for i, s in by_name[name])

    def count(name):
        return len(by_name[name])

    def attr_values(name, key):  # a call that raised has no attributes
        return [s.attrs[key] for _, s in by_name[name] if key in s.attrs]

    enum_s = total("saddles.enumerate_saddle_connections")
    found = sum(attr_values("saddles.enumerate_saddle_connections", "found"))
    m = {
        "solver.linsolve_s": total("spla.spsolve"),
        "solver.linsolve_calls": count("spla.spsolve"),
        "solver.laplacian_s": total("solver.laplacian_matrix"),
        "solver.laplacian_calls": count("solver.laplacian_matrix"),
    }
    for n in WANG_SCALE_POINTS:
        m[f"solver.wang_n{n}_s"] = total(
            "solver.solve_wang", lambda s, n=n: s.attrs.get("n") == n)
    m.update({
        "solver.newton_iters": sum(
            attr_values("solver.solve_wang", "newton_iterations")),
        "solver.residual_max": max(
            attr_values("solver.solve_wang", "residual"), default=0.0),
        "solver.tzitzeica_s": total("solver.solve_tzitzeica"),
        "decay.self_s": self_time("decay.decay_experiment"),
        "decay.quad_s": total("decay.flat_metric_path_length"),
    })
    # only the workload's own calls: tightening nested in a cylinder
    # insertion or a spectrum may coincide in crossing count
    own = [s for _, s in by_name["geodesics.tighten_geodesic"]
           if s.parent is None and "length" in s.attrs]
    relerr = [0.0]
    for c, (p, q) in TORUS_CLASSES.items():
        mine = [s for s in own if s.attrs["crossings"] == c]
        m[f"geodesics.tighten_x{c}_s"] = sum(s.seconds for s in mine)
        norm = math.hypot(p, q)
        relerr += [abs(s.attrs["length"] - norm) / norm for s in mine]
    m.update({
        "geodesics.tighten_calls": count("geodesics.tighten_geodesic"),
        "geodesics.develop_calls": count("geodesics.develop_strip"),
        "geodesics.len_relerr_max": max(relerr),
        "cylinders.insert_self_s": self_time(
            "cylinders.insert_cylinder_detailed"),
        "cylinders.transport_self_s": self_time(
            "cylinders.TransportMap.transport"),
        "currents.spectrum_self_s": self_time("currents.spectrum_from_flat"),
        "currents.classify_s": total("currents.classify_limit"),
        "saddles.enumerate_s": enum_s,
        "saddles.found_per_s": found / enum_s if enum_s > 0 else 0.0,
        "surgery.glue_self_s": self_time("surgery.triangle_surgery_glue"),
        "surgery.glue_calls": count("surgery.triangle_surgery_glue"),
        "surface.build_s": total("surface.TriangulatedFlatSurface"),
        "surface.builds": count("surface.TriangulatedFlatSurface"),
        "subdivide.assemble_s": total("subdivide.Soup.assemble"),
    })
    return m


def median_metrics(per_pass: list[dict]) -> dict:
    """Median of each metric over the traced passes."""
    return {k: statistics.median(d[k] for d in per_pass)
            for k in per_pass[0]}
