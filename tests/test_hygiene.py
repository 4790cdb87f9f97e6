"""Source hygiene: every imported name is used, every definition in the
package is reached from what the package runs, and every call the
benchmark traces exists.

No linter ships with the project, so this walks the syntax trees of the
package, its tests and the benchmark with ``ast``.
"""

import ast
import importlib
from collections import defaultdict
from pathlib import Path

from cubiclab.cli import COMMANDS, main

ROOT = Path(__file__).resolve().parent.parent

# Definitions that only tests reach, each kept for a reason.  They are roots
# of the walk, so what they reach (their errors, helpers and result types)
# needs no entry of its own; an entry that is reached anyway is stale.
ALLOWED = {
    "curvature_field": "estimate suite, criterion 5: the solved metric has "
                       "negative curvature",
    "minimal_surface_metric": "estimate suite, criterion 5: the sandwich "
                              "12 h < g <= 24 h",
    "largest_root": "estimate suite, criterion 9: the comparison root of "
                    "2 t^3 - 2 t^2 - 4 a",
    "check_subsolution": "estimate suite: the margin e^psi - "
                         "2^(1/3) |q|^(2/3) is nonnegative",
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
