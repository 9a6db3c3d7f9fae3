"""Every imported name is used, and every definition of the library.

No linter runs over the repository, so these scans stand in for one.  The
first parses each module of the library, the tests and the demos, and fails
on any name an import statement binds that the module never references.  A
name listed in ``__all__`` counts as referenced; ``__future__`` imports are
exempt.  The second fails on a ``_``-prefixed function, method or class of
the library that nothing in the library references, by name, attribute or
import; dunder names are exempt.  The third fails on a public function,
method or class of the library that only the tests use: nothing in
``src/``, ``demos/`` or ``perfbench/`` references it and README never names
it.  Click commands are exempt, and the names kept on purpose are listed,
each with its reason, in ``KEPT``.
"""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted(
    p for d in ("src/fellap", "tests", "demos") for p in (ROOT / d).glob("*.py")
)
LIBRARY = sorted((ROOT / "src/fellap").glob("*.py"))
USERS = sorted(p for d in ("src", "demos", "perfbench") for p in (ROOT / d).rglob("*.py"))

# Public names of the library that only the tests use, kept on purpose.
KEPT = {
    "ap_defect_partial": "oracle route: the AP defect through the partial action alone",
    "cyl_close": "oracle route: equality of cylinder functions",
    "validate_cantor_action": "oracle route: the boundary action's laws on cylinder functions",
    "diagonal_unit": "the unit of M_F(B), for a Stinespring check of witness multipliers",
    "single": "the kernel with one entry, the basic element of M_F(B)",
    "section_vector": "the vector side of the window representation, for pi of a section",
    "restrict_to_subgroup": "the Fell bundle restricted to a subgroup",
    "full_sub_bundle": "the identity expectation, beside the subgroup, mask and trace ones",
    "trace_sub_bundle": "the trace expectation onto scalars (acceptance criterion 8)",
    "random_unitary": "a fixture of fellap.testing, a random unitary of one block",
}


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


def references(tree: ast.AST) -> set:
    """The names a module references: by name, attribute or import."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def unreferenced_private(sources: dict) -> list:
    """(module, line, name) of every private function, method or class
    defined in ``sources`` (module name -> source text) that none of them
    references."""
    defined = []
    used = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                    defined.append((module, node.lineno, name))
        used |= references(tree)
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


def _is_command(node: ast.AST) -> bool:
    """Decorated as a click command or group (``@main.command()``, ...)."""
    for dec in node.decorator_list:
        fn = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(fn, "attr", getattr(fn, "id", None)) in ("command", "group"):
            return True
    return False


def unreferenced_public(library: dict, users: dict, text: str) -> list:
    """(module, line, name) of every public function or class at the top
    level of a module of ``library`` (module name -> source text), and every
    public method of its top-level classes, that no source of ``users``
    references and ``text`` never names as a word. Click commands are
    exempt."""
    defined = []
    for module, source in library.items():
        for top in ast.parse(source).body:
            for node in [top] + (top.body if isinstance(top, ast.ClassDef) else []):
                if (
                    isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and not _is_command(node)
                ):
                    defined.append((module, node.lineno, node.name))
    used = set(re.findall(r"\w+", text))
    for source in users.values():
        used |= references(ast.parse(source))
    return sorted(d for d in defined if d[2] not in used)


def test_no_public_definitions_used_only_by_tests():
    library = {p.name: p.read_text() for p in LIBRARY}
    users = {str(p.relative_to(ROOT)): p.read_text() for p in USERS}
    found = unreferenced_public(library, users, (ROOT / "README.md").read_text())
    assert [d for d in found if d[2] not in KEPT] == []
    assert sorted({name for *_, name in found}) == sorted(KEPT), "KEPT lists a used name"


def test_public_scan_flags_a_definition_only_tests_use():
    library = {
        "a.py": "def kept():\n    pass\n\ndef dropped():\n    pass\n\n"
        "class Rep:\n    def dense(self):\n        pass\n"
        "    def shown(self):\n        pass\n\n"
        "@main.command()\ndef run():\n    pass\n",
    }
    users = {"demo.py": "from a import kept\nRep()\n", **library}
    text = "Call `Rep.shown` for a picture."
    found = unreferenced_public(library, users, text)
    assert found == [("a.py", 4, "dropped"), ("a.py", 8, "dense")]
