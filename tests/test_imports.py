"""Every imported name is read somewhere in its file, and only the fork
module forks.

The first is a stdlib-only stand-in for a linter's unused-import rule
(pyflakes F401), over the package, the tests, the scripts and the
benchmark harness. A name counts as read if it is loaded anywhere in the
file, in any scope. `from __future__` imports and lines marked
`# noqa: F401` are skipped. The second keeps one copy of the fork, reap
and exit logic: outside `agroyield/fork.py`, no module of the package
calls or imports `os.fork`, `os.waitpid` or `os._exit`.
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


PROCESS_CALLS = {"fork", "waitpid", "_exit"}


def process_calls(path: Path) -> list:
    """`file:line os.name` for each use of a `PROCESS_CALLS` name of `os`
    in `path`: an `os.<name>` attribute or a `from os import <name>`."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in PROCESS_CALLS
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"):
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name in PROCESS_CALLS]
    where = path.relative_to(ROOT)
    return [f"{where}:{line} os.{name}" for line, name in found]


def test_only_the_fork_module_forks():
    package = ROOT / "src" / "agroyield"
    own = process_calls(package / "fork.py")
    # the check finds each of the fork module's own calls
    assert {entry.split()[-1] for entry in own} \
        == {f"os.{name}" for name in PROCESS_CALLS}
    found = [entry for p in sorted(package.rglob("*.py"))
             if p.name != "fork.py" for entry in process_calls(p)]
    assert found == [], "\n".join(found)
