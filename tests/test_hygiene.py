"""Source hygiene: every imported name is used, every definition in the
package is reached from what the package runs, every stored field is read,
every call the benchmark traces exists, the flat layer rounds with one
epsilon, takes its planar products from planar.py and uses no NumPy complex
arithmetic, only flatsurface/io.py knows the surface file's keys, only
flatsurface/subdivide.py knows how a sub-edge is tagged, only
blaschke/grid.py applies the stencil and its transforms and computes in
single precision, importing the package loads only the SciPy it runs,
every CLI preset's command reads each key of the preset, and the first pass
of every benchmark workload passes its own checks.

No linter ships with the project, so this walks the syntax trees of the
package, its tests and the benchmark with ``ast``.
"""

import ast
import importlib
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from cubiclab.cli import COMMANDS, PRESETS, _Config, main

ROOT = Path(__file__).resolve().parent.parent

# Definitions that only tests reach, each kept for a reason.  They are roots
# of the walk, so what they reach (their errors, helpers and result types)
# needs no entry of its own; an entry that is reached anyway is stale.
ALLOWED = {
    "log_density_curvature": "estimate suite, criterion 5: the solved "
                             "metric has negative curvature",
    "minimal_surface_metric": "estimate suite, criterion 5: the sandwich "
                              "12 h < g <= 24 h",
    "largest_root": "estimate suite, criterion 9: the comparison root of "
                    "2 t^3 - 2 t^2 - 4 a",
    "area_and_bounds": "estimate suite: the metric area against "
                       "2^(1/3) ||q||",
    "gap_upper_bound": "estimate suite: the gap bound on a zero-free flat "
                       "ball",
    "self_intersection_flat": "criterion 3: (pi/2) area; a Crofton count "
                              "of crossings is to check the factor",
    "evaluate_mixed": "mixed structures (MixedStructure) of the paper's "
                      "boundary points, a flat part plus a multicurve",
    "doubled_triangle": "the one preset with rotation holonomy: a flat "
                        "sphere with three poles",
    "save_classes": "writes (with class_to_dict) the class format that "
                    "load_classes reads",
}


def _unused_imports(path: Path) -> list[str]:
    """file:line:name of each name a module imports and never references;
    names listed in its ``__all__`` count as used."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.lineno, a.asname or a.name.split(".")[0])
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(a.lineno, a.asname or a.name)
                         for a in node.names if a.name != "*"]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used |= {c.value for c in ast.walk(node.value)
                     if isinstance(c, ast.Constant)}
    rel = path.relative_to(ROOT)
    return [f"{rel}:{line}:{name}" for line, name in imported
            if name not in used]


def test_no_unused_imports():
    files = sorted([*ROOT.glob("src/cubiclab/**/*.py"),
                    *ROOT.glob("tests/**/*.py"),
                    *ROOT.glob("perfbench/*.py")])
    assert files
    unused = [hit for f in files for hit in _unused_imports(f)]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def _referenced(*nodes) -> set[str]:
    """The ``Name`` ids and ``Attribute`` attrs inside the nodes."""
    names = set()
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                names.add(n.id)
            elif isinstance(n, ast.Attribute):
                names.add(n.attr)
    return names


def _definitions():
    """The package's top-level functions and classes and its non-dunder
    methods, as name -> [(file:line, names the body references)], and the
    names referenced by module-level statements.

    A class body without its non-dunder methods (bases, decorators, fields,
    dunder methods) belongs to the class.
    """
    defs = defaultdict(list)
    module_level = set()
    for path in sorted(ROOT.glob("src/cubiclab/**/*.py")):
        rel = path.relative_to(ROOT)
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.ClassDef):
                methods = [m for m in node.body
                           if isinstance(m, (ast.FunctionDef,
                                             ast.AsyncFunctionDef))
                           and not (m.name.startswith("__")
                                    and m.name.endswith("__"))]
                for m in methods:
                    defs[m.name].append((f"{rel}:{m.lineno}", _referenced(m)))
                own = [n for n in node.body if n not in methods]
                defs[node.name].append((f"{rel}:{node.lineno}", _referenced(
                    *node.bases, *node.keywords, *node.decorator_list, *own)))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs[node.name].append((f"{rel}:{node.lineno}",
                                        _referenced(node)))
            else:
                module_level |= _referenced(node)
    return defs, module_level


def _reached(roots, defs) -> set[str]:
    """The roots and every name referenced, transitively, by the bodies of
    the definitions of a reached name.  Matching by name alone may count a
    dead definition as reached, never a live one as dead."""
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += [n for _where, refs in defs.get(name, ())
                     for n in refs]
    return reached


def test_every_public_definition_is_reached():
    # roots: the CLI's commands and entry point, module-level statements of
    # the package and everything the benchmark workloads name
    defs, module_level = _definitions()
    roots = module_level | {f.__name__ for f in (*COMMANDS.values(), main)}
    for path in ROOT.glob("perfbench/*.py"):
        roots |= _referenced(ast.parse(path.read_text(), filename=str(path)))

    reached = _reached(roots | ALLOWED.keys(), defs)
    unreached = sorted(f"{where}:{name}" for name, sites in defs.items()
                       if name not in reached for where, _refs in sites)
    assert not unreached, (
        "definitions nothing reaches but tests (delete them, or list them "
        "in ALLOWED with a reason):\n" + "\n".join(unreached))
    stale = sorted(name for name in ALLOWED if name not in defs
                   or name in _reached(roots | (ALLOWED.keys() - {name}),
                                       defs))
    assert not stale, ("ALLOWED entries that name nothing or are reached "
                       "anyway:\n" + "\n".join(stale))


# Span targets of the benchmark that name no callable, each with a reason.
# An entry that resolves is stale.
UNRESOLVED_SPANS = {
    "solver.laplacian_matrix": "the solver assembles no Laplacian matrix; "
                               "the span waits for a benchmark change",
    "decay.flat_metric_path_length": "the decay certificate computes no "
                                     "flat distance; the span waits for a "
                                     "benchmark change",
}


def _resolves(target: str) -> bool:
    module, _, qualname = target.partition(":")
    owner = importlib.import_module(module)
    for part in qualname.split("."):
        owner = getattr(owner, part, None)
    return callable(owner)


def test_benchmark_span_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spans = importlib.import_module("spans")
    missing = sorted(name for name, target, _attrs in spans.TARGETS
                     if not _resolves(target))
    assert missing == sorted(UNRESOLVED_SPANS), (
        "benchmark span targets that resolve to nothing (or stale "
        f"UNRESOLVED_SPANS entries): {missing}")


@pytest.mark.parametrize("name,smoke", [
    ("wang-zcubic", True), ("decay-ray", True), ("flat-spectrum", True),
    ("saddle-surgery", True), ("flat-spectrum", False),
    ("saddle-surgery", False)])
def test_benchmark_workload_first_pass_checks(monkeypatch, name, smoke):
    # pass 0 of each benchmark workload, in this process with seed 12: no
    # operation raises and every check of the pass holds
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    worker = importlib.import_module("worker")
    modname, _, classname = worker.WORKLOADS[name].partition(":")
    workload = getattr(importlib.import_module(modname), classname)(12, smoke)
    _op_s, done, errors = worker.run_pass(workload, 0)
    assert not errors, "\n".join(errors)
    verdicts = workload.check(0, done)
    assert verdicts and all(verdicts), verdicts


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass" for d in node.decorator_list)


def _signatures():
    """(file:line, callee name, [parameter names callers may pass
    positionally, in order], {names with a default}, whether they are
    dataclass fields) for each function and method of the package and for
    each dataclass's generated ``__init__``.  A method's ``self``/``cls`` is
    dropped, a class's ``__init__`` is called by the class's name, and a
    dataclass field defaulted by ``field(...)`` is state filled after
    construction, so it has no entry in the set."""
    sigs = []
    for path in sorted(ROOT.glob("src/cubiclab/**/*.py")):
        rel = path.relative_to(ROOT)
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {}
        for cls in [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]:
            owner |= {id(m): cls.name for m in cls.body}
            if _is_dataclass(cls):
                fields = [s for s in cls.body if isinstance(s, ast.AnnAssign)
                          and isinstance(s.target, ast.Name)]
                sigs.append((f"{rel}:{cls.lineno}", cls.name,
                             [f.target.id for f in fields],
                             {f.target.id for f in fields
                              if f.value is not None
                              and not (isinstance(f.value, ast.Call)
                                       and isinstance(f.value.func, ast.Name)
                                       and f.value.func.id == "field")},
                             True))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = fn.args
            positional = [p.arg for p in (*a.posonlyargs, *a.args)]
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in fn.decorator_list)
            if id(fn) in owner and not static:
                positional = positional[1:]
            defaulted = {p.arg for p in (*a.posonlyargs, *a.args)[
                len(a.posonlyargs) + len(a.args) - len(a.defaults):]}
            defaulted |= {p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults)
                          if d is not None}
            name = owner[id(fn)] if fn.name == "__init__" else fn.name
            sigs.append((f"{rel}:{fn.lineno}", name, positional, defaulted,
                         False))
    return sigs


def _passed(sigs):
    """Callee name -> the parameter names some call in the package, the
    tests or the benchmark passes, by keyword, by position or through
    ``*``/``**`` (which pass them all); and the attribute names those
    files assign."""
    positional = defaultdict(list)
    for _where, name, params, _defaulted, _fields in sigs:
        positional[name].append(params)
    passed, assigned = defaultdict(set), set()
    files = [*ROOT.glob("src/cubiclab/**/*.py"), *ROOT.glob("tests/**/*.py"),
             *ROOT.glob("perfbench/*.py")]
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                assigned |= {t.attr for t in targets
                             if isinstance(t, ast.Attribute)}
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = (f.id if isinstance(f, ast.Name)
                    else f.attr if isinstance(f, ast.Attribute) else None)
            if name not in positional:
                continue
            every = {p for ps in positional[name] for p in ps}
            if (any(isinstance(a, ast.Starred) for a in node.args)
                    or any(k.arg is None for k in node.keywords)):
                passed[name] |= every
                continue
            passed[name] |= {k.arg for k in node.keywords}
            for params in positional[name]:
                passed[name] |= set(params[:len(node.args)])
    return passed, assigned


def test_every_optional_parameter_is_passed():
    # a default that no call overrides is a constant in disguise; tests
    # count as callers, so an error path's budget stays a parameter, and a
    # dataclass field that code assigns (RunReport.wall_time) is set too
    sigs = _signatures()
    passed, assigned = _passed(sigs)
    unpassed = sorted(
        f"{where}:{name}({p})"
        for where, name, _params, defaulted, fields in sigs
        for p in defaulted
        if p not in passed[name] and not (fields and p in assigned))
    assert not unpassed, (
        "defaults that no call in the package, tests or benchmark "
        "overrides (make them constants):\n" + "\n".join(unpassed))


# Parameters that no body reads, each kept for a reason.  An entry whose
# parameter is read, or gone, is stale.
UNREAD_PARAMETERS = {
    "tighten_geodesic.initial_params": "perfbench/flat.py passes it; the "
                                       "benchmark change of Direction A "
                                       "deletes it",
}


def _unread_parameters() -> set[str]:
    """function.parameter for each parameter of a package function that its
    body never loads as a ``Name``; ``self``, ``cls`` and names with a
    leading underscore (a signature a callback imposes) are skipped."""
    unread = set()
    for path in sorted(ROOT.glob("src/cubiclab/**/*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = fn.args
            params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                      *filter(None, (a.vararg, a.kwarg)))]
            loaded = {n.id for stmt in fn.body for n in ast.walk(stmt)
                      if isinstance(n, ast.Name)
                      and isinstance(n.ctx, ast.Load)}
            unread |= {f"{fn.name}.{p}" for p in params
                       if p not in ("self", "cls") and not p.startswith("_")
                       and p not in loaded}
    return unread


def test_every_parameter_is_read():
    unread = _unread_parameters()
    extra = sorted(unread - UNREAD_PARAMETERS.keys())
    assert not extra, ("parameters that no body reads (delete them, or "
                       "list them in UNREAD_PARAMETERS with a reason):\n"
                       + "\n".join(extra))
    stale = sorted(UNREAD_PARAMETERS.keys() - unread)
    assert not stale, ("UNREAD_PARAMETERS entries whose parameter is read "
                       "or gone:\n" + "\n".join(stale))


# Stored fields that nothing reads, each kept for a reason.  An entry that
# is read, or gone, is stale.
UNREAD_FIELDS = {
    "DecayCertificate.coord_radius": "the disk the barrier is stated on",
}


def _stored_fields() -> dict[str, str]:
    """Class.field -> file:line for every dataclass field and every
    attribute a method assigns on ``self`` in the package."""
    stored = {}
    for path in sorted(ROOT.glob("src/cubiclab/**/*.py")):
        rel = path.relative_to(ROOT)
        tree = ast.parse(path.read_text(), filename=str(path))
        for cls in [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]:
            if _is_dataclass(cls):
                stored |= {f"{cls.name}.{s.target.id}": f"{rel}:{s.lineno}"
                           for s in cls.body if isinstance(s, ast.AnnAssign)
                           and isinstance(s.target, ast.Name)}
            for fn in cls.body:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    stored |= {
                        f"{cls.name}.{n.attr}": f"{rel}:{n.lineno}"
                        for n in ast.walk(fn)
                        if isinstance(n, ast.Attribute)
                        and isinstance(n.ctx, ast.Store)
                        and isinstance(n.value, ast.Name)
                        and n.value.id == "self"}
    return stored


def test_every_stored_field_is_read():
    # a field is read when some file of the package, the tests or the
    # benchmark loads an attribute of its name (on any object)
    files = [*ROOT.glob("src/cubiclab/**/*.py"), *ROOT.glob("tests/**/*.py"),
             *ROOT.glob("perfbench/*.py")]
    loaded = {n.attr for path in files
              for n in ast.walk(ast.parse(path.read_text(),
                                          filename=str(path)))
              if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    stored = _stored_fields()
    unread = {name for name in stored if name.split(".")[1] not in loaded}
    extra = sorted(f"{stored[name]}:{name}"
                   for name in unread - UNREAD_FIELDS.keys())
    assert not extra, ("stored fields that nothing reads (delete them, or "
                       "list them in UNREAD_FIELDS with a reason):\n"
                       + "\n".join(extra))
    stale = sorted(UNREAD_FIELDS.keys() - unread)
    assert not stale, ("UNREAD_FIELDS entries that are read or gone:\n"
                       + "\n".join(stale))


# Raises of builtin errors in the package, by file and enclosing function,
# each an internal invariant that no argument can break or an error that its
# caller turns into a typed one.  An entry with no such raise is stale.
BUILTIN_RAISES = {
    "cli.py:_whole":
        "a config converter, like int and float: _Config.read turns its "
        "ValueError into ConfigError naming the key and the value",
    "cli.py:_list_of.read":
        "the config list converters, like list: _Config.read turns their "
        "TypeError into ConfigError naming the key and the value",
    "flatsurface/subdivide.py:Soup.add_fan":
        "a piece no fan triangulates; the one caller whose pieces depend "
        "on its arguments, triangle_surgery_glue, re-raises it as "
        "BadParameters naming eps and the triangle",
    "flatsurface/subdivide.py:Soup.carry":
        "pieces copy their corners bit for bit, so a corner of the old "
        "surface is always found",
    "flatsurface/subdivide.py:Soup.where":
        "the piece builders give every soup edge exactly one tag",
    "flatsurface/subdivide.py:Soup.assemble":
        "the cut-and-glue construction gives every tag a partner",
    "flatsurface/subdivide.py:triangle_piece":
        "the carves and chords name each cut once",
}


def _raises():
    """(file:function, line, raised name, the raise) for every ``raise``
    of a name or a call of a name in the package; the function is the
    qualified name of the enclosing definition, or the module."""
    found = []

    def visit(node, rel, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, rel, where + [child.name])
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc
                f = exc.func if isinstance(exc, ast.Call) else exc
                if isinstance(f, ast.Name):
                    found.append((f"{rel}:{'.'.join(where) or '<module>'}",
                                  child.lineno, f.id, exc))
            visit(child, rel, where)

    pkg = ROOT / "src/cubiclab"
    for path in sorted(pkg.glob("**/*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)),
              path.relative_to(pkg).as_posix(), [])
    return found


def test_errors_are_typed():
    # every error class of the package is raised somewhere, and an argument
    # check raises BadParameters with the value in its message
    errors = [n for n in ast.parse(
        (ROOT / "src/cubiclab/errors.py").read_text()).body
        if isinstance(n, ast.ClassDef)]
    bases = {b.id for c in errors for b in c.bases if isinstance(b, ast.Name)}
    raises = _raises()
    raised = {name for _where, _line, name, _exc in raises}
    unraised = sorted(c.name for c in errors
                      if c.name not in bases and c.name not in raised)
    assert not unraised, ("error classes the package never raises (delete "
                          f"them): {unraised}")

    builtin = defaultdict(list)
    for where, line, name, _exc in raises:
        if name in ("ValueError", "TypeError", "RuntimeError"):
            builtin[where].append(f"{where}:{line}:{name}")
    extra = sorted(site for where, sites in builtin.items()
                   if where not in BUILTIN_RAISES for site in sites)
    assert not extra, ("builtin errors raised outside BUILTIN_RAISES (raise "
                       "BadParameters for a wrong argument, or list an "
                       "internal invariant with a reason):\n"
                       + "\n".join(extra))
    stale = sorted(BUILTIN_RAISES.keys() - builtin.keys())
    assert not stale, f"BUILTIN_RAISES entries with no such raise: {stale}"

    unnamed = sorted(
        f"{where}:{line}" for where, line, name, exc in raises
        if name == "BadParameters" and not (
            isinstance(exc, ast.Call) and exc.args and any(
                isinstance(n, ast.FormattedValue)
                for n in ast.walk(exc.args[0]))))
    assert not unnamed, ("BadParameters raised with a message that "
                         "formats no value:\n" + "\n".join(unnamed))


# Tolerances of the flat layer that are not rounding decisions, each the
# whole value of a module-level constant, by file and name, with a reason.
# Rounding decisions read the one EPS of planar.py.  An entry that names no
# such constant is stale.
NAMED_TOLERANCES = {
    "surface.py:GEOM_TOL": "checks a surface handed in: edge lengths match "
                           "and triangles have area, relative to its size",
    "surface.py:_ORDER_TOL": "checks a surface handed in: each cone angle "
                             "is 2 pi (1 + k/3) for a whole k",
    "surgery.py:_RAY_MARGIN": "keeps the wedge boundary clear of every fan "
                              "ray, so no carve runs along an edge",
    "presets.py:_END_MARGIN": "a torus class's segment does not cross the "
                              "lattice line at its own end",
    "geodesics.py:ANGLE_SLACK": "the slack of the angle-condition check that "
                                "certifies a returned geodesic",
    "io.py:_ISO_TOL": "checks a surface file read in: a stored gluing "
                      "isometry matches the one its edges give",
}


def _small_float_literals():
    """(file:name of the module-level constant it is the whole value of,
    or file:line: value) for each float literal x with 0 < |x| < 1e-5 in
    ``flatsurface/`` outside ``planar.py``."""
    found = []
    for path in sorted((ROOT / "src/cubiclab/flatsurface").glob("*.py")):
        if path.name == "planar.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        named = {id(node.value): node.targets[0].id for node in tree.body
                 if isinstance(node, ast.Assign) and len(node.targets) == 1
                 and isinstance(node.targets[0], ast.Name)}
        found += [f"{path.name}:{named[id(n)]}" if id(n) in named
                  else f"{path.name}:{n.lineno}: {n.value!r}"
                  for n in ast.walk(tree)
                  if isinstance(n, ast.Constant) and type(n.value) is float
                  and 0 < abs(n.value) < 1e-5]
    return found


def test_flat_layer_rounds_with_one_epsilon():
    # a new tolerance either reads planar.EPS or is a named constant with a
    # reason here
    found = _small_float_literals()
    inline = sorted(set(found) - NAMED_TOLERANCES.keys())
    assert not inline, ("tolerances in flatsurface/ that are neither "
                        "planar.EPS nor a listed module constant:\n"
                        + "\n".join(inline))
    stale = sorted(NAMED_TOLERANCES.keys() - set(found))
    assert not stale, ("NAMED_TOLERANCES entries with no such constant: "
                       f"{stale}")


# The keys of the surface file, which flatsurface/io.py alone writes and reads
SURFACE_FILE_KEYS = {"rot", "tx", "ty", "punctures"}
# The layout of the soup's sub-edge tags ("slot", key, slot, a, b) and the
# ids of a slot's own ends, which flatsurface/subdivide.py alone builds and
# reads
SUB_EDGE_TAG_WORDS = {"slot", "lo", "hi"}


def _string_literals(path: Path, words) -> list[tuple[int, str]]:
    """(line, word) of each string literal in the module that is one of
    ``words``."""
    return [(n.lineno, n.value)
            for n in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(n, ast.Constant) and isinstance(n.value, str)
            and n.value in words]


def _literals_outside(owner: Path, words) -> list[str]:
    """Where the package writes one of ``words`` outside ``owner``, after
    checking that the gate sees all of them in ``owner``."""
    assert {w for _line, w in _string_literals(owner, words)} == words
    return [f"{path.relative_to(ROOT)}:{line}: {w!r}"
            for path in sorted(ROOT.glob("src/cubiclab/**/*.py"))
            if path != owner for line, w in _string_literals(path, words)]


def test_surface_file_format_lives_in_io():
    outside = _literals_outside(ROOT / "src/cubiclab/flatsurface/io.py",
                                SURFACE_FILE_KEYS)
    assert not outside, ("surface file keys outside flatsurface/io.py:\n"
                         + "\n".join(outside))


def test_sub_edge_tags_live_in_subdivide():
    # cylinder insertion and triangle surgery say where to cut and what to
    # glue; only the cut-and-glue layer knows how a sub-edge is tagged
    outside = _literals_outside(
        ROOT / "src/cubiclab/flatsurface/subdivide.py", SUB_EDGE_TAG_WORDS)
    assert not outside, ("sub-edge tag layout outside "
                         "flatsurface/subdivide.py:\n" + "\n".join(outside))


def _conjugates(path: Path) -> list[int]:
    """The line of each ``.conjugate()`` call in the module."""
    return [n.lineno
            for n in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
            and n.func.attr == "conjugate"]


# NumPy's complex multiply and np.abs of a complex array round differently
# from Python's complex arithmetic in the last bit (on 44% and 35% of random
# inputs), so the flat layer's arrays stay (re, im) pairs of floats
COMPLEX_NUMPY = {"abs", "absolute", "complex_", "complex64", "complex128",
                 "complex256", "complexfloating", "csingle", "cdouble",
                 "clongdouble"}


def _complex_numpy(path: Path) -> list[str]:
    """line: name of each ``np.abs``, ``np.absolute`` or complex NumPy
    dtype in the module: a NumPy attribute or import of one of
    ``COMPLEX_NUMPY``, or a complex ``dtype=`` or ``astype`` argument."""
    hits = []
    for n in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) \
                and n.value.id in ("np", "numpy") and n.attr in COMPLEX_NUMPY:
            hits.append(f"{n.lineno}: np.{n.attr}")
        elif isinstance(n, ast.ImportFrom) and n.module == "numpy":
            hits += [f"{n.lineno}: numpy.{a.name}" for a in n.names
                     if a.name in COMPLEX_NUMPY]
        elif isinstance(n, ast.Call):
            args = [k.value for k in n.keywords if k.arg == "dtype"]
            if isinstance(n.func, ast.Attribute) and n.func.attr == "astype":
                args += n.args[:1]
            for a in args:
                if isinstance(a, ast.Name) and a.id == "complex" or \
                        isinstance(a, ast.Constant) and \
                        isinstance(a.value, str) and \
                        np.dtype(a.value).kind == "c":
                    hits.append(f"{n.lineno}: complex dtype")
    return hits


def test_planar_products_live_in_planar():
    # cross and dot products, and the wedge predicates fused from them, are
    # written once in planar.py, where their roundings are kept the same;
    # no NumPy complex arithmetic rounds them anywhere in the flat layer
    planar_py = ROOT / "src/cubiclab/flatsurface/planar.py"
    assert _conjugates(planar_py)
    flat = sorted([*(ROOT / "src/cubiclab/flatsurface").glob("*.py"),
                   ROOT / "src/cubiclab/currents.py"])
    outside = [f"{path.relative_to(ROOT)}:{line}" for path in flat
               if path != planar_py for line in _conjugates(path)]
    assert not outside, (".conjugate() outside flatsurface/planar.py:\n"
                         + "\n".join(outside))
    numpy_complex = [f"{path.relative_to(ROOT)}:{hit}" for path in flat
                     for hit in _complex_numpy(path)]
    assert not numpy_complex, ("NumPy complex arithmetic in the flat "
                               "layer:\n" + "\n".join(numpy_complex))
    # the gate sees what it is meant to catch
    assert _complex_numpy(ROOT / "src/cubiclab/blaschke/cubic.py")


# The 5-point stencil and its sine transforms, which blaschke/grid.py alone
# applies: the one module that knows the grid's boundary condition, and the
# one that imports SciPy, for those transforms
STENCIL_NAMES = ("scipy", "np.roll", "np.pad", "numpy.roll", "numpy.pad")


def _stencil_uses(path: Path) -> list[tuple[int, str]]:
    """(line, name) of each import from SciPy and each use of ``np.roll``
    or ``np.pad`` in the module."""
    hits = []
    for n in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(n, ast.Import):
            names = [a.name for a in n.names]
        elif isinstance(n, ast.ImportFrom):
            names = [f"{n.module}.{a.name}" for a in n.names]
        elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
            names = [f"{n.value.id}.{n.attr}"]
        else:
            continue
        hits += [(n.lineno, name) for name in names
                 if name.startswith(STENCIL_NAMES)]
    return hits


def test_stencil_and_transforms_live_in_grid():
    grid_py = ROOT / "src/cubiclab/blaschke/grid.py"
    used = {name.split(".")[-1] for _line, name in _stencil_uses(grid_py)}
    assert {"dstn", "idstn"} <= used  # the gate sees the transforms
    outside = [f"{path.relative_to(ROOT)}:{line}: {name}"
               for path in sorted(ROOT.glob("src/cubiclab/**/*.py"))
               if path != grid_py
               for line, name in _stencil_uses(path)]
    assert not outside, ("stencil, transform or SciPy import outside "
                         "blaschke/grid.py:\n" + "\n".join(outside))


# Single-precision NumPy types, which blaschke/grid.py alone uses, for the
# transforms of its preconditioner: the Newton iterates, the residuals and
# the CG recurrences stay in double
SINGLE_PRECISION = {"float32", "complex64", "single", "csingle", "float16",
                    "half"}


def _single_precision(path: Path) -> list[str]:
    """line: name of each single-precision type in the module: an attribute
    or imported name in ``SINGLE_PRECISION``, or a ``dtype=``, ``astype``
    or ``np.dtype`` string naming one."""
    hits = []
    for n in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(n, ast.Attribute) and n.attr in SINGLE_PRECISION:
            hits.append(f"{n.lineno}: .{n.attr}")
        elif isinstance(n, ast.ImportFrom):
            hits += [f"{n.lineno}: {n.module}.{a.name}" for a in n.names
                     if a.name in SINGLE_PRECISION]
        elif isinstance(n, ast.Call):
            args = [k.value for k in n.keywords if k.arg == "dtype"]
            if isinstance(n.func, ast.Attribute) \
                    and n.func.attr in ("astype", "dtype"):
                args += n.args[:1]
            hits += [f"{n.lineno}: dtype {a.value!r}" for a in args
                     if isinstance(a, ast.Constant)
                     and isinstance(a.value, str)
                     and np.dtype(a.value).name in SINGLE_PRECISION]
    return hits


def test_single_precision_lives_in_grid():
    grid_py = ROOT / "src/cubiclab/blaschke/grid.py"
    assert _single_precision(grid_py)  # the gate sees what it looks for
    outside = [f"{path.relative_to(ROOT)}:{hit}"
               for path in sorted(ROOT.glob("src/cubiclab/**/*.py"))
               if path != grid_py for hit in _single_precision(path)]
    assert not outside, ("single precision outside blaschke/grid.py:\n"
                         + "\n".join(outside))


def _scipy_loaded_by(*stages: str) -> list[list[str]]:
    """The SciPy modules one fresh interpreter holds after each of
    ``stages`` (Python source, run in order), by package: ``scipy.sparse``
    for ``scipy.sparse.linalg._isolve`` too."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    report = ("print(*sorted({'.'.join(m.split('.')[:2]) for m in "
              "sys.modules if m.split('.')[0] == 'scipy'}))\n")
    code = "import sys\n" + "".join(stage + "\n" + report
                                    for stage in stages)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return [line.split() for line in done.stdout.splitlines()]


def test_pde_layer_loads_no_sparse_algebra_or_quadrature():
    # the Newton kernel runs its own CG loop, the package's one quadrature
    # is a NumPy Gauss rule, and scipy.fft loads with the first spectral
    # inverse, which only a solve pinning no node of the stencil's block
    # builds: importing the package, the gap solves of a ray with and
    # without a zero and the far-end mass check load no SciPy
    *no_scipy, after_wang = _scipy_loaded_by(
        "import cubiclab.blaschke, cubiclab.cli",
        "cubiclab.blaschke.decay_experiment([1.0], [1.0, 8.0], 0j, "
        "window_side=2.0, n=33)",
        "cubiclab.blaschke.decay_experiment([0.0, 1.0], [1.0, 8.0], 1.0, "
        "window_side=1.6, n=33)",
        "cubiclab.geomlimits.far_end_mass_quadrature(-1.0, 100.0, 3.0)",
        "g = cubiclab.blaschke.Grid2D(-1, 1, -1, 1, 33, 33)\n"
        "cubiclab.blaschke.solve_wang(g, cubiclab.blaschke."
        "CubicDifferentialField.from_polynomial(g, [1.0]), "
        "boundary_psi=0.0)")
    banned = {"scipy.sparse", "scipy.linalg", "scipy.optimize",
              "scipy.integrate"}
    assert no_scipy == [[]] * 4, no_scipy
    assert "scipy.fft" in after_wang
    assert not banned & set(after_wang), sorted(banned & set(after_wang))


def test_flat_layer_loads_no_scipy():
    assert _scipy_loaded_by(
        "import cubiclab.flatsurface, cubiclab.currents") == [[]]


def test_every_preset_key_is_read(tmp_path, monkeypatch):
    # a preset key that its command never reads is a setting that only looks
    # like one: run each preset and record the keys read through the config
    read, seen = _Config.read, set()

    def recording(config, key, *args):
        seen.add(key)
        return read(config, key, *args)

    monkeypatch.setattr(_Config, "read", recording)
    unread = []
    for name, preset in sorted(PRESETS.items()):
        seen.clear()
        assert main([preset["command"], "--preset", name,
                     "--out", str(tmp_path / name)]) == 0
        unread += [f"{name}: {key!r}" for key in sorted(preset.keys() - seen)]
    assert not unread, ("preset keys that their command never reads:\n"
                        + "\n".join(unread))
