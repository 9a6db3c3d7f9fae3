"""Every imported name is used.

No linter runs over the repository, so this scan stands in for one: it
parses each module of the library, the tests and the demos, and fails on
any name an import statement binds that the module never references.  A
name listed in ``__all__`` counts as referenced; ``__future__`` imports are
exempt.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted(
    p for d in ("src/fellap", "tests", "demos") for p in (ROOT / d).glob("*.py")
)


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
