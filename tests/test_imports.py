"""Every imported name is used, and every definition of the library is reached.

No linter runs over the repository, so these checks stand in for one.

The import scan parses each module of the library, the tests and the demos,
and fails on any name an import statement binds that the module never
references.  A name listed in ``__all__`` counts as referenced;
``__future__`` imports are exempt.

The reachability test runs the library's traffic under ``sys.setprofile``
and records the code objects that run from ``src/fellap``.  The traffic is
every demo, in process, with demo 06's ``python -m fellap.cli`` calls
routed through click's runner, and one round of each benchmark workload of
``perfbench/workloads.py``, run inside the benchmark's tracer from
``perfbench/tracing.py`` (so a method the tracer wraps must still exist).
Every item of a round must find no mismatch.  A code object maps to its
definition by file and first line, a decorated definition starting at its
first decorator; the names are qualified as ``module.Class.method``.  The
test judges the top-level functions and the methods of top-level classes:
it fails on one that the traffic never reaches unless ``KEPT`` names it
with its reason, and on a ``KEPT`` entry that is reached or no longer
exists.  It judges the public definitions and the private ones (a name
with a ``_``-prefixed part that is not a dunder) in two tests that share
one run of the traffic.  Unlike a scan of names it cannot be fooled by a
method that shares its name with a used one.
"""

import ast
import contextlib
import importlib.util
import io
import os
import pathlib
import runpy
import subprocess
import sys
import tempfile

import pytest
from click.testing import CliRunner

from fellap import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted(
    p for d in ("src/fellap", "tests", "demos") for p in (ROOT / d).glob("*.py")
)
LIBRARY = sorted((ROOT / "src/fellap").glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)

ORACLE = "oracle route: "
FIXTURE = "a fellap.testing fixture: "
PROTOCOL = "Group protocol default"

# Definitions of the library that the traffic does not reach, kept on purpose.
KEPT = {
    "approx.ap_defect_partial": ORACLE + "the AP defect through the partial action alone",
    "cantor.cyl_close": ORACLE + "equality of cylinder functions",
    "cantor.validate_cantor_action": ORACLE + "the boundary action's laws on cylinder functions",
    "cantor.CuntzWitness.value": ORACLE + "the net one word at a time, as the brute-force defect sums it",
    "kernels.section_vector": ORACLE + "the vector side of the window representation, for pi of a section",
    "kernels._WindowRep.vector": ORACLE + "the coordinates section_vector returns",
    "kernels.Kernel.diagonal_unit": "the unit of M_F(B), for a Stinespring check of witness multipliers",
    "bundles.restrict_to_subgroup": "the Fell bundle restricted to a subgroup",
    "bundles.trace_sub_bundle": "the trace expectation onto scalars (acceptance criterion 8)",
    "testing.random_unitary": FIXTURE + "a random unitary of one block",
    "testing.random_group": FIXTURE + "a random group of one of the three kinds",
    "testing.random_fell_bundle": FIXTURE + "a random bundle, also the config's 'random' bundle kind",
    "groups.Group.identity": PROTOCOL,
    "groups.Group.mul": PROTOCOL,
    "groups.Group.inv": PROTOCOL,
    "groups.Group.ball": PROTOCOL,
    "groups.Group.walk": PROTOCOL + ", for the groups without a lazy walk",
    "groups.Group.word_length": PROTOCOL,
    "groups.Group.format_elem": PROTOCOL,
    "groups.Group.parse_elem": PROTOCOL,
    "groups.FiniteGroup.word_length": "Group protocol: the word length of a table group",
    "groups.LatticeGroup.word_length": "Group protocol: the l1 word length of Z^d",
    "groups.Elem.__repr__": "repr",
    "groups.FiniteGroup.__repr__": "repr",
    "groups.FreeGroup.__repr__": "repr",
    "groups.LatticeGroup.__repr__": "repr",
    "algebra.FdElement.__repr__": "repr",
    "kernels.Window.__repr__": "repr",
    "groups.Group.__reduce__": "dunder protocol: a copied or unpickled group is the live one",
    "algebra.FdElement.__neg__": "dunder protocol: unary minus of the element arithmetic",
    "algebra._Blocks.__getitem__": "dunder protocol: reading block j of x.mats",
    "kernels.Kernel.__init__": "dunder protocol: the constructor from a mapping of entries",
    "cli.ConfigStore.twist": "documented CLI config feature: the twists section of a config",
    "cli.command": "runs at import time only: it registers each subcommand with cli.main",
    "bundles.TwistedBundle.star": "perfbench/tracing.py wraps it for bundles.star.calls",
    "groups.FreeGroup.generator": "called by cli's ap-check: the default builtin:cuntz target",
    "groups.LatticeGroup.parse_elem": "called by cli's ap-check: --targets on a lattice bundle",
    "algebra.PartialAction.domain": "called by ap_defect_partial",
    "algebra.Ideal.contains": "called by ap_defect_partial",
    "cantor._cylinder_meet": "called by validate_cantor_action",
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


def definitions(paths: list) -> dict:
    """(file, first line) -> ``module.name`` or ``module.Class.method`` of
    every top-level function and every method of a top-level class in the
    given files; a decorated definition starts at its first decorator, as
    its code object does."""
    found = {}
    for path in paths:
        module = path.stem
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, DEFS):
                nodes = [(top, top.name)]
            elif isinstance(top, ast.ClassDef):
                nodes = [(n, f"{top.name}.{n.name}") for n in top.body if isinstance(n, DEFS)]
            else:
                nodes = []
            for node, name in nodes:
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                found[(os.path.realpath(path), first)] = f"{module}.{name}"
    return found


def reached(traffic) -> set:
    """(file, first line) of every code object that runs while ``traffic()``
    does."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        traffic()
    finally:
        sys.setprofile(previous)
    return {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in codes}


def audit(defined: dict, hit: set, kept: dict) -> tuple:
    """The unreached definitions that ``kept`` does not list, and the
    entries of ``kept`` that are reached or not defined."""
    unreached = {name for key, name in defined.items() if key not in hit}
    return sorted(unreached - set(kept)), sorted(set(kept) - unreached)


def _cli_in_process(argv, **kwargs):
    """``subprocess.run`` for ``python -m fellap.cli ...``, through click's runner."""
    assert argv[1:3] == ["-m", "fellap.cli"], argv
    res = CliRunner().invoke(cli.main, argv[3:], prog_name="fellap")
    return subprocess.CompletedProcess(argv, res.exit_code, res.stdout, res.stderr)


def _load_perfbench(name: str, monkeypatch):
    """A fresh copy of ``perfbench/<name>.py``; the file is only read."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def is_private(name: str) -> bool:
    """A ``module.name`` or ``module.Class.method`` with a ``_``-prefixed
    part that is not a dunder."""
    return any(
        part.startswith("_") and not part.endswith("__") for part in name.split(".")[1:]
    )


def split_audit(defined: dict, hit: set, kept: dict, private: bool) -> tuple:
    """``audit`` cut to the private definitions and ``KEPT`` entries, or to
    the public ones."""
    defined = {key: name for key, name in defined.items() if is_private(name) == private}
    kept = {name: why for name, why in kept.items() if is_private(name) == private}
    return audit(defined, hit, kept)


@pytest.fixture(scope="module")
def library_hits(tmp_path_factory):
    """(file, first line) of every code object that the demos and one round
    of each workload run, traced once for the module."""
    tmp = tmp_path_factory.mktemp("traffic")
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(tempfile, "tempdir", str(tmp))

        def traffic():
            with monkeypatch.context() as patch:
                patch.setattr(subprocess, "run", _cli_in_process)
                for demo in DEMOS:
                    with contextlib.redirect_stdout(io.StringIO()):
                        runpy.run_path(str(demo), run_name="__main__")
            workloads = _load_perfbench("workloads", monkeypatch)
            tracing = _load_perfbench("tracing", monkeypatch)
            with tracing.Tracer().installed():
                for name in workloads.ROUNDS:
                    for item in workloads.build_round(name, 0, 0, str(tmp)):
                        assert item.run() == [], item.label

        return reached(traffic)


def test_no_public_definitions_used_only_by_tests(library_hits):
    missing, stale = split_audit(definitions(LIBRARY), library_hits, KEPT, private=False)
    assert missing == [], "reached by no demo or workload round: delete, or keep with a reason"
    assert stale == [], "KEPT lists a reached or deleted definition"


def test_no_unreferenced_private_definitions(library_hits):
    missing, stale = split_audit(definitions(LIBRARY), library_hits, KEPT, private=True)
    assert missing == [], "reached by no demo or workload round: delete, or keep with a reason"
    assert stale == [], "KEPT lists a reached or deleted definition"


TOY = (
    "import functools\n\n"
    "def used():\n    _kept()\n    return Rep().dense() + _Rep().size\n\n"
    "def dropped():\n    pass\n\n"
    "def _kept():\n    pass\n\n"
    "def _dropped():\n    pass\n\n"
    "class Rep:\n"
    "    @functools.cached_property\n    def size(self):\n        return 1\n\n"
    "    def dense(self):\n        return self.size\n\n"
    "    def flat(self):\n        pass\n\n"
    "class _Rep:\n"
    "    size = 1\n\n"
    "    def _dense(self):\n        pass\n"
)


def _toy(tmp_path, monkeypatch) -> tuple:
    """The definitions of a toy module and what a call of its ``used`` reaches."""
    path = tmp_path / "toy.py"
    path.write_text(TOY)
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.delitem(sys.modules, "toy", raising=False)
    import toy

    defined = definitions([path])
    assert sorted(defined.values()) == [
        "toy.Rep.dense", "toy.Rep.flat", "toy.Rep.size", "toy._Rep._dense",
        "toy._dropped", "toy._kept", "toy.dropped", "toy.used",
    ]
    return defined, reached(toy.used)


def test_public_scan_flags_a_definition_only_tests_use(tmp_path, monkeypatch):
    defined, hit = _toy(tmp_path, monkeypatch)
    kept = {"toy.dropped": "kept", "toy.used": "stale: reached", "toy.gone": "stale: deleted",
            "toy._kept": "private, reached"}
    assert split_audit(defined, hit, kept, private=False) == (["toy.Rep.flat"], ["toy.gone", "toy.used"])


def test_private_scan_flags_an_unreferenced_definition(tmp_path, monkeypatch):
    defined, hit = _toy(tmp_path, monkeypatch)
    kept = {"toy._dropped": "kept", "toy._kept": "stale: reached", "toy._gone": "stale: deleted",
            "toy.used": "public, reached"}
    assert split_audit(defined, hit, kept, private=True) == (["toy._Rep._dense"], ["toy._gone", "toy._kept"])
