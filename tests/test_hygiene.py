"""Source hygiene: every imported name is used.

No linter ships with the project, so this walks the syntax trees of the
package and its tests with ``ast``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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
                    *ROOT.glob("tests/**/*.py")])
    assert files
    unused = [hit for f in files for hit in _unused_imports(f)]
    assert not unused, "unused imports:\n" + "\n".join(unused)
