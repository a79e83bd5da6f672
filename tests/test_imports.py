"""Every imported name is read somewhere in its file, every private
top-level name of the package is read somewhere in the package, every
public one somewhere in the repository, only the fork module forks, and
`nn` and `baselines` convert no input array.

The first is a stdlib-only stand-in for a linter's unused-import rule
(pyflakes F401), over the package, the tests, the scripts and the
benchmark harness. A name counts as read if it is loaded anywhere in the
file, in any scope. `from __future__` imports and lines marked
`# noqa: F401` are skipped. The second catches the helpers, constants and
classes named `_name` that a removal leaves behind: such a name counts as
read if any module of the package loads it, bare or as an attribute. The
third does the same for public names, read from any file under
`DIRECTORIES`, so a function or constant that nothing calls any more is
caught too. The fourth keeps one copy of the fork, reap and exit logic:
outside `agroyield/fork.py`, no module of the package calls or imports
`os.fork`, `os.waitpid` or `os._exit`. The fifth keeps the array
contract of the model layer: `models` hands `nn` and `baselines` float64
arrays, so no function there calls `np.asarray`, `np.atleast_1d` or
`np.atleast_2d` on them again, `nn.gradient_check` (one example) excepted.
The sixth keeps one whole-file writer: outside `agroyield/schema.py`, no
module of the package calls `open` or `os.open` to write, append, create
or update a file.
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


def top_level_names(path: Path) -> list:
    """(line, name) of each name that `path` binds at its top level."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            found += [(t.lineno, t.id) for target in targets
                      for t in ast.walk(target) if isinstance(t, ast.Name)]
    return found


def loaded_names(paths: list) -> set:
    """Every name that a file of `paths` loads, bare or as an attribute."""
    read = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                read.add(node.attr)
    return read


def unread_names(paths: list, readers: list, private: bool) -> list:
    """`file:line name` for each private (`_name`, not a dunder) or public
    name that a module of `paths` binds at its top level and no file of
    `readers` loads."""
    read = loaded_names(readers)
    return [f"{path.name}:{line} {name}" for path in paths
            for line, name in top_level_names(path)
            if name.startswith("_") == private
            and not name.startswith("__") and name not in read]


PACKAGE = sorted((ROOT / "src" / "agroyield").rglob("*.py"))


def test_every_private_name_is_read_in_the_package(tmp_path):
    unread = unread_names(PACKAGE, PACKAGE, private=True)
    assert unread == [], "\n".join(unread)
    # the check finds what nothing reads, and takes a read from any module
    left = tmp_path / "left.py"
    left.write_text("_A, (_B, _C) = 1, (2, 3)\n_D: int = 4\n"
                    "def _e():\n    return _C\nclass _F:\n    pass\n"
                    "_fork = __name__\n", encoding="utf-8")
    assert unread_names(PACKAGE + [left], PACKAGE + [left], private=True) \
        == ["left.py:1 _A", "left.py:1 _B", "left.py:2 _D", "left.py:3 _e",
            "left.py:5 _F"]


def test_every_public_name_is_read_somewhere(tmp_path):
    readers = sorted(p for d in DIRECTORIES for p in (ROOT / d).rglob("*.py"))
    unread = unread_names(PACKAGE, readers, private=False)
    assert unread == [], "\n".join(unread)
    # the check finds a public name nothing loads, whether it is bound in
    # the package or read from outside it
    left = tmp_path / "left.py"
    left.write_text("LEFT_A, _B = 1, 2\ndef left_e():\n    return LEFT_C\n"
                    "LEFT_C = fork.ranges\n", encoding="utf-8")
    assert unread_names(PACKAGE + [left], readers + [left], private=False) \
        == ["left.py:1 LEFT_A", "left.py:2 left_e"]


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


CONVERSIONS = {"asarray", "atleast_1d", "atleast_2d"}


def conversions(path: Path, allowed=("gradient_check",)) -> list:
    """`file:line np.name` for each use of a `CONVERSIONS` name of NumPy in
    `path` outside the functions named in `allowed`: an `np.<name>`
    attribute or a `from numpy import <name>`."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    exempt = {id(inner) for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name in allowed
              for inner in ast.walk(node)}
    found = []
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if (isinstance(node, ast.Attribute) and node.attr in CONVERSIONS
                and isinstance(node.value, ast.Name)
                and node.value.id == "np"):
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name in CONVERSIONS]
    return [f"{path.name}:{line} np.{name}" for line, name in sorted(found)]


def test_nn_and_baselines_convert_no_input(tmp_path):
    package = ROOT / "src" / "agroyield"
    found = [entry for name in ("nn.py", "baselines.py")
             for entry in conversions(package / name)]
    assert found == [], "\n".join(found)
    # gradient_check keeps its one conversion, which the check skips
    assert conversions(package / "nn.py", allowed=()) != []
    # the check finds a conversion anywhere else, however it is reached
    left = tmp_path / "left.py"
    left.write_text("from numpy import atleast_1d\n"
                    "def f(x):\n    return np.asarray(x, dtype=float)\n"
                    "def gradient_check(x):\n    return np.atleast_2d(x)\n"
                    "g = lambda y: np.atleast_2d(y)\n", encoding="utf-8")
    assert conversions(left) == ["left.py:1 np.atleast_1d",
                                 "left.py:3 np.asarray",
                                 "left.py:6 np.atleast_2d"]


WRITE_MODES = set("wax+")
WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_APPEND", "O_TRUNC",
               "O_TMPFILE"}


def _argument(call: ast.Call, position: int, keyword: str):
    """The expression passed to `call` at `position` or as `keyword`."""
    if len(call.args) > position:
        return call.args[position]
    return next((k.value for k in call.keywords if k.arg == keyword), None)


def file_writes(path: Path) -> list:
    """`file:line call` for each call in `path` that may open a file for
    writing: `open` with a mode holding w, a, x or + (or a mode that is not
    a string constant), and `os.open` with a `WRITE_FLAGS` flag (or a
    number among its flags)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            mode = _argument(node, 1, "mode")
            if mode is not None and not (
                    isinstance(mode, ast.Constant) and type(mode.value) is str
                    and not WRITE_MODES & set(mode.value)):
                found.append((node.lineno, "open"))
        elif (isinstance(func, ast.Attribute) and func.attr == "open"
              and isinstance(func.value, ast.Name)
              and func.value.id == "os"):
            flags = list(ast.walk(_argument(node, 1, "flags")))
            named = {n.attr if isinstance(n, ast.Attribute) else n.id
                     for n in flags if isinstance(n, (ast.Attribute,
                                                      ast.Name))}
            if named & WRITE_FLAGS or any(isinstance(n, ast.Constant)
                                          for n in flags):
                found.append((node.lineno, "os.open"))
    return [f"{path.name}:{line} {name}" for line, name in sorted(found)]


def test_only_the_schema_module_writes_files(tmp_path):
    package = ROOT / "src" / "agroyield"
    # the check finds the one writer's own opens
    assert file_writes(package / "schema.py") != []
    found = [entry for p in sorted(package.rglob("*.py"))
             if p.name != "schema.py" for entry in file_writes(p)]
    assert found == [], "\n".join(found)
    # the check finds a write however the mode or flags are given, and
    # passes a read
    left = tmp_path / "left.py"
    left.write_text(
        "open(p)\nopen(p, 'rb')\nopen(p, mode='r', encoding='utf-8')\n"
        "os.open(p, os.O_RDONLY)\n"
        "open(p, 'wb')\nopen(p, mode='a')\nopen(p, 'r+')\nopen(p, 'xt')\n"
        "open(p, m)\nos.open(p, os.O_WRONLY | os.O_CREAT, 0o644)\n"
        "os.open(p, flags=O_RDWR)\nos.open(p, 1)\n", encoding="utf-8")
    assert file_writes(left) == [f"left.py:{line} {name}" for line, name in (
        (5, "open"), (6, "open"), (7, "open"), (8, "open"), (9, "open"),
        (10, "os.open"), (11, "os.open"), (12, "os.open"))]
