"""Every imported name is read somewhere in its file.

A stdlib-only stand-in for a linter's unused-import rule (pyflakes F401),
over the package, the tests, the scripts and the benchmark harness. A name
counts as read if it is loaded anywhere in the file, in any scope.
`from __future__` imports and lines marked `# noqa: F401` are skipped.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIRECTORIES = ("src/agroyield", "tests", "scripts", "perfbench")


def unused_imports(path: Path) -> list:
    """`file:line name` for each name that `path` imports and never reads."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text, filename=str(path))
    imported, read = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                # `import a.b` binds `a`
                name = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, name))
    where = path.relative_to(ROOT)
    return [f"{where}:{line} {name}" for line, name in imported
            if name not in read]


def test_every_imported_name_is_read():
    paths = sorted(p for d in DIRECTORIES for p in (ROOT / d).rglob("*.py"))
    assert paths
    unused = [entry for p in paths for entry in unused_imports(p)]
    assert unused == [], "\n".join(unused)
