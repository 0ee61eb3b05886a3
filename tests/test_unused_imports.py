"""No module under ``src/repro`` imports a name it never reads, or reads a
name it never binds.

The scans use only :mod:`ast`: a module-level import binds names, and each
must be read somewhere in the module — as a name, or inside a string
annotation.  ``__init__.py`` files re-export by design, and a name a module
lists in ``__all__`` is exported rather than read.  Conversely every name a
module reads (annotations included, though no annotation is evaluated) must
be bound somewhere in it — imported, defined, assigned or a parameter — or
be a builtin.
"""

import ast
import builtins
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

def _imported(tree):
    """Every name a module-level import binds, in order."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _string_annotations(tree):
    """Every string inside an annotation, parsed (a quoted forward
    reference reads the names it spells)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        else:
            continue
        for part in ast.walk(annotation) if annotation is not None else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                yield ast.parse(part.value, mode="eval")


def _read(tree):
    read = set()
    for root in [tree, *_string_annotations(tree)]:
        read.update(node.id for node in ast.walk(root) if isinstance(node, ast.Name))
    return read


def _bound(tree):
    """Every name the module binds anywhere, whatever the scope."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            bound.update(node.names)
        elif isinstance(node, (ast.ExceptHandler, ast.MatchAs, ast.MatchStar)):
            bound.add(node.name)
        elif isinstance(node, ast.MatchMapping):
            bound.add(node.rest)
    return bound


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(path):
    """The names ``path`` imports at module level and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    kept = _read(tree) | _exported(tree)
    return [name for name in _imported(tree) if name not in kept]


def undefined_names(path):
    """The names ``path`` reads and binds nowhere, that are no builtin."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return sorted(_read(tree) - _bound(tree) - set(dir(builtins)))


def test_no_module_imports_a_name_it_never_reads():
    unused = [f"{path.relative_to(SRC.parent)}: {name}"
              for path in sorted(SRC.rglob("*.py")) if path.name != "__init__.py"
              for name in unused_imports(path)]
    assert unused == []


def test_the_scan_sees_an_unused_import(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "from typing import List, Optional\n"
        "import os, re\n"
        "from x import Kept\n"
        "__all__ = ['Kept']\n"
        "def f(a: 'Optional[int]') -> None:\n"
        "    return os.sep\n"
    )
    assert unused_imports(module) == ["List", "re"]


def test_no_module_reads_a_name_it_never_binds():
    undefined = [f"{path.relative_to(SRC.parent)}: {name}"
                 for path in sorted(SRC.rglob("*.py"))
                 for name in undefined_names(path)]
    assert undefined == []


def test_the_scan_sees_an_undefined_name(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "from typing import List\n"
        "import os.path\n"
        "def f(a, *rest: 'Set[int]', **options) -> List[int]:\n"
        "    seen: Dict[str, int] = {}\n"
        "    try:\n"
        "        return [len(x) for x in rest if (n := x)]\n"
        "    except ValueError as error:\n"
        "        return os.sep, error, n, options, seen, missing\n"
    )
    assert undefined_names(module) == ["Dict", "Set", "missing"]
