"""Every imported name is used, and every private definition of the library.

No linter runs over the repository, so these scans stand in for one.  The
first parses each module of the library, the tests and the demos, and fails
on any name an import statement binds that the module never references.  A
name listed in ``__all__`` counts as referenced; ``__future__`` imports are
exempt.  The second fails on a ``_``-prefixed function, method or class of
the library that nothing in the library references, by name, attribute or
import; dunder names are exempt.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted(
    p for d in ("src/fellap", "tests", "demos") for p in (ROOT / d).glob("*.py")
)
LIBRARY = sorted((ROOT / "src/fellap").glob("*.py"))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", FILES, ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_flags_an_unused_name():
    source = "import os\nfrom typing import Dict, List\nx: List[int] = []\n"
    assert unused_imports(source) == [(1, "os"), (2, "Dict")]


def unreferenced_private(sources: dict) -> list:
    """(module, line, name) of every private function, method or class
    defined in ``sources`` (module name -> source text) that none of them
    references."""
    defined = []
    used = set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                    defined.append((module, node.lineno, name))
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return sorted(d for d in defined if d[2] not in used)


def test_no_unreferenced_private_definitions():
    sources = {p.name: p.read_text() for p in LIBRARY}
    assert unreferenced_private(sources) == []


def test_private_scan_flags_an_unreferenced_definition():
    sources = {
        "a.py": "def _kept():\n    pass\n\ndef _dropped():\n    pass\n\n"
        "class _Rep:\n    def __init__(self):\n        pass\n"
        "    def _dense(self):\n        pass\n",
        "b.py": "from a import _kept\nx = _Rep()\n",
    }
    assert unreferenced_private(sources) == [("a.py", 4, "_dropped"), ("a.py", 10, "_dense")]
