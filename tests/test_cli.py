"""End-to-end command tests through the click runner.

Pinned behaviours: exit codes (0 pass, 1 fail, 2 config, 3 unsupported),
the corrupted-cocycle fixture failing on exactly the cocycle rows, the
trivial one-dimensional action globalizing to the cyclic shift on three
blocks, the Folner defect |t|/N on the integers, the 1/i defect column of
the boundary net, the 16-arrow groupoid table, the norm column of the
kernels report, the byte-exact boundary-net CSVs, and byte-identical
reruns.
"""

import csv
import json
import time
import zlib

import numpy as np
import pytest
from click.testing import CliRunner

import fellap.cli as cli
from fellap.algebra import ActionReport
from fellap.approx import default_targets
from fellap.cantor import spectral_groupoid
from fellap.cli import ARROW_CAP, BALL_CAP, TWIST_CAP, ConfigStore, _arrow_count, _parse_targets, main
from test_acceptance import CLI_CONFIG


BASE_CONFIG = {
    "groups": {
        "z2": {"kind": "cyclic", "order": 2},
        "z3": {"kind": "cyclic", "order": 3},
        "z4": {"kind": "cyclic", "order": 4},
        "s3": {"kind": "symmetric", "n": 3},
        "line": {"kind": "lattice", "dim": 1},
        "f2": {"kind": "free", "rank": 2},
    },
    "algebras": {
        "c1": {"blocks": [1]},
        "m2": {"blocks": [2]},
    },
    "actions": {
        "rand4": {"kind": "random", "group": "z4", "salt": 1},
        "ident": {"kind": "identity", "group": "z4", "algebra": "m2"},
        "trivc": {"kind": "trivial", "group": "z3", "algebra": "c1"},
        "trivline": {"kind": "trivial", "group": "line", "algebra": "m2"},
    },
    "twists": {
        "tw": {"kind": "scalar", "action": "rand4", "salt": 7},
        "bad": {
            "kind": "scalar",
            "action": "ident",
            "salt": 7,
            "perturb": {"s": "1", "t": "2", "scale": 0.001},
        },
    },
    "bundles": {
        "b1": {"kind": "semidirect", "action": "rand4"},
        "b2": {"kind": "twisted", "twist": "tw"},
        "bz": {"kind": "group", "group": "z4", "algebra": "m2"},
        "bline": {"kind": "group", "group": "line", "algebra": "m2"},
        "bf2": {"kind": "group", "group": "f2", "algebra": "m2"},
        "bs3": {"kind": "random", "group": "s3", "flavor": "semidirect", "salt": 5},
    },
    "witness_families": {
        "wu": {"kind": "uniform"},
        "wf8": {"kind": "folner", "n": 8},
        "wc4": {"kind": "cuntz", "i": 4},
    },
}


@pytest.fixture()
def conf(tmp_path):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(BASE_CONFIG))
    return str(path)


def run(*args):
    return CliRunner().invoke(main, list(args))


def read_rows(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    return header, [line for line in lines[1:]]


class TestConfigErrors:
    def test_missing_file(self, tmp_path):
        r = run("--config", str(tmp_path / "nope.json"), "validate", "b1")
        assert r.exit_code == 2

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        r = run("--config", str(p), "validate", "b1")
        assert r.exit_code == 2
        assert "not valid JSON" in r.stderr

    def test_dangling_reference(self, tmp_path):
        doc = {"bundles": {"b": {"kind": "semidirect", "action": "ghost"}}}
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        r = run("--config", str(p), "validate", "b")
        assert r.exit_code == 2
        assert "ghost" in r.stderr

    def test_unknown_target(self, conf):
        r = run("--config", conf, "validate", "nothing")
        assert r.exit_code == 2

    def test_unknown_kind(self, tmp_path):
        doc = {"groups": {"g": {"kind": "dihedral", "n": 4}}}
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        doc2 = dict(doc)
        doc2["bundles"] = {"b": {"kind": "group", "group": "g", "algebra": "a"}}
        p.write_text(json.dumps(doc2))
        r = run("--config", str(p), "validate", "b")
        assert r.exit_code == 2
        assert "dihedral" in r.stderr

    @pytest.mark.parametrize(
        "args",
        [
            ("validate", "bf2", "--samples", "-2"),
            ("validate", "bf2", "--samples", "0"),
            ("validate", "bf2", "--window", "-1"),
            ("kernels", "--bundle", "bf2", "--window", "-1"),
            ("kernels", "--bundle", "b1", "--samples", "0"),
            ("groupoid", "--radius", "-1"),
            ("groupoid", "--depth", "-1"),
            ("cuntz-ap", "--imax", "0"),
            ("cuntz-ap", "--imax", "-3"),
        ],
        ids=" ".join,
    )
    def test_out_of_range_integer_option(self, conf, args):
        """An out-of-range count or radius is a usage error naming the
        option, never a traceback or a vacuous pass."""
        r = run("--config", conf, *args)
        assert r.exit_code == 2
        assert "Invalid value" in r.stderr and args[-2] in r.stderr
        assert isinstance(r.exception, SystemExit)

    @staticmethod
    def explicit_z2(one: dict) -> dict:
        """An explicit action of Z2 on C + C: the identity at 0, and at 1 the
        swap of the two blocks with ``one`` merged into its table."""
        unit = [[[1, 0]]]
        return {
            "groups": {"z2": {"kind": "cyclic", "order": 2}},
            "algebras": {"cc": {"blocks": [1, 1]}},
            "actions": {
                "x": {
                    "kind": "explicit",
                    "group": "z2",
                    "algebra": "cc",
                    "isos": {
                        "0": {"phi": {"0": 0, "1": 1}, "unitaries": {"0": unit, "1": unit}},
                        "1": {"phi": {"0": 1, "1": 0}, "unitaries": {"0": unit, "1": unit}, **one},
                    },
                }
            },
        }

    @pytest.mark.parametrize(
        "one, says",
        [
            ({"unitaries": {"0": [[[float("nan"), 0]]], "1": [[[1, 0]]]}}, "not a finite"),
            ({"unitaries": {"0": [["1e400"]], "1": [[[1, 0]]]}}, "not a finite"),
            ({"unitaries": {"0": [[[1, 0], [0, 0]]], "1": [[[1, 0]]]}}, "unitary shape"),
            ({"phi": {"0": 1, "1": 2}}, "block index out of range"),
            ({"unitaries": {"0": [[[1, 0]]]}}, "no entry 1"),
            # block 5 does not exist; the unitary would be checked as a stray
            (
                {"unitaries": {"0": [[[1, 0]]], "1": [[[1, 0]]], "5": [[[2, 0]]]}},
                "unitaries given outside the source blocks, at [5]",
            ),
        ],
        ids=["nan", "1e400", "shape", "phi-range", "missing-unitary", "stray-unitary"],
    )
    @pytest.mark.parametrize("command", ["validate", "globalize"])
    def test_malformed_explicit_action(self, tmp_path, one, says, command):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(self.explicit_z2(one)))
        r = run("--config", str(p), command, "x")
        assert r.exit_code == 2
        lines = r.stderr.strip().split("\n")
        assert len(lines) == 1 and lines[0].startswith("config error: actions.x.isos.1: ")
        assert says in lines[0]
        assert isinstance(r.exception, SystemExit)  # no uncaught error behind the exit


def one_block_config(tmp_path, section=None, name=None, block=None):
    """A config with a group bundle ``b`` over Z2 and a uniform witness
    family ``w``, with ``section.name`` set to ``block`` when given."""
    doc = {
        "groups": {"g": {"kind": "cyclic", "order": 2}},
        "algebras": {"a": {"blocks": [1]}},
        "bundles": {"b": {"kind": "group", "group": "g", "algebra": "a"}},
        "witness_families": {"w": {"kind": "uniform"}},
    }
    if section is not None:
        doc[section][name] = block
    path = tmp_path / "one.json"
    path.write_text(json.dumps(doc))
    return str(path)


def assert_refused(r, starts: str):
    """Exit 2 with one stderr line, and no uncaught error behind the exit."""
    assert r.exit_code == 2, r.stderr
    lines = r.stderr.strip().split("\n")
    assert len(lines) == 1 and lines[0].startswith(starts), lines
    assert isinstance(r.exception, SystemExit)


class TestRefusedInputs:
    """A value a constructor refuses, an output path that cannot be written,
    a tolerance no residual can be judged against, and a request over a cap
    all exit 2, never 1 with a traceback or a verdict."""

    @pytest.mark.parametrize(
        "section, name, block",
        [
            ("groups", "g", {"kind": "symmetric", "n": 5}),
            ("groups", "g", {"kind": "cyclic", "order": 0}),
            ("groups", "g", {"kind": "cyclic"}),
            ("groups", "g", {"kind": "cyclic", "order": BALL_CAP + 1}),
            ("groups", "g", {"kind": "free", "rank": 0}),
            ("algebras", "a", {"blocks": [0]}),
            ("bundles", "b", {"kind": "semidirect"}),
            ("witness_families", "w", {"kind": "folner"}),
            ("witness_families", "w", {"kind": "folner", "n": "x"}),
            ("bundles", "b", {"kind": "random", "group": "g", "flavor": "semidirectt"}),
        ],
        ids=[
            "symmetric-5", "cyclic-0", "cyclic-no-order", "cyclic-over-cap", "free-0",
            "block-0", "semidirect-no-action", "folner-no-n", "folner-n-x", "flavor-typo",
        ],
    )
    def test_refused_value_names_its_block(self, tmp_path, section, name, block):
        conf = one_block_config(tmp_path, section, name, block)
        r = run("--config", conf, "ap-check", "--bundle", "b", "--witness", "w")
        assert_refused(r, f"config error: {section}.{name}: ")

    @pytest.mark.parametrize("section", ["bundles", "actions"])
    def test_section_that_is_not_an_object(self, tmp_path, section):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"bundles": {"b": {"kind": "semidirect", "action": "a"}}, section: 5}))
        r = run("--config", str(path), "validate", "b")
        assert_refused(r, "config error: config must be an object of sections")

    @pytest.mark.parametrize(
        "args",
        [
            ("--out", "{missing}/v.csv", "validate", "bz"),
            ("globalize", "trivc", "--emit-config", "{missing}/env.json"),
        ],
        ids=["out", "emit-config"],
    )
    def test_unwritable_output(self, conf, tmp_path, args):
        missing = tmp_path / "missing"
        r = run("--config", conf, *(a.format(missing=missing) for a in args))
        assert_refused(r, f"config error: cannot write {missing}/")

    def test_unwritable_out_is_refused_before_the_command_runs(self, conf, tmp_path):
        """The validation below takes seconds; the refusal must not wait for it."""
        missing = tmp_path / "missing" / "x.csv"
        start = time.perf_counter()
        r = run("--config", conf, "--out", str(missing), "validate", "bf2", "--window", "4", "--samples", "6")
        assert time.perf_counter() - start < 1.0
        assert_refused(r, f"config error: cannot write {missing}: No such file or directory")

    def test_out_that_is_a_directory(self, conf, tmp_path):
        r = run("--config", conf, "--out", str(tmp_path), "validate", "bz")
        assert_refused(r, f"config error: cannot write {tmp_path}: Is a directory")

    def test_refused_run_leaves_an_existing_out_unchanged(self, conf, tmp_path):
        out = tmp_path / "v.csv"
        out.write_text("kept\n")
        r = run("--config", conf, "--out", str(out), "validate", "nothing")
        assert r.exit_code == 2
        assert out.read_text() == "kept\n"

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1"])
    @pytest.mark.parametrize(
        "args",
        [("validate", "bad"), ("ap-check", "--bundle", "bs3", "--witness", "builtin:uniform")],
        ids=" ".join,
    )
    def test_tolerance_is_finite_and_not_negative(self, conf, tol, args):
        """At a NaN or infinite tolerance the corrupted cocycle would pass."""
        r = run("--config", conf, "--tol", tol, *args)
        assert r.exit_code == 2
        assert "Invalid value" in r.stderr and "--tol" in r.stderr
        assert isinstance(r.exception, SystemExit)

    # Z4's ball of radius 1 is the whole group: 4 elements times 5 BALL_CAP / 4
    # samples is at the cap of 5 BALL_CAP (element, sample) pairs
    SAMPLES_AT_CAP = str(5 * BALL_CAP // 4)
    SAMPLES_OVER = str(5 * BALL_CAP // 4 + 1)

    @pytest.mark.parametrize(
        "lattice, head, edge, over",
        [
            (False, ("validate", "bz", "--window", "1", "--samples"), SAMPLES_AT_CAP, SAMPLES_OVER),
            (False, ("kernels", "--bundle", "bz", "--window", "1", "--samples"), SAMPLES_AT_CAP, SAMPLES_OVER),
            (
                False,
                ("--tol", "1", "ap-check", "--bundle", "bline", "--targets", "1", "--witness"),
                f"builtin:folner:{BALL_CAP}",
                f"builtin:folner:{BALL_CAP + 1}",
            ),
            # 14^2 = 196 and 15^2 = 225 points in Z^2
            (
                True,
                ("--tol", "1", "ap-check", "--bundle", "b", "--witness"),
                "builtin:folner:14",
                "builtin:folner:15",
            ),
        ],
        ids=["validate-samples", "kernels-samples", "folner-line", "folner-plane"],
    )
    def test_admitted_at_the_cap_refused_past_it(self, conf, tmp_path, lattice, head, edge, over):
        if lattice:
            conf = one_block_config(tmp_path, "groups", "g", {"kind": "lattice", "dim": 2})
        r = run("--config", conf, *head, edge)
        assert r.exit_code == 0, r.stderr
        r = run("--config", conf, *head, over)
        assert_refused(r, "config error: ")
        assert f"over {5 * BALL_CAP if '--samples' in head else BALL_CAP} " in r.stderr

    def test_cyclic_order_at_the_cap(self, tmp_path):
        """A table group is checked over all order^3 triples when it is
        built: the largest admitted order builds in about a second."""
        for order, code in ((BALL_CAP, 0), (BALL_CAP + 1, 2)):
            conf = one_block_config(tmp_path, "groups", "g", {"kind": "cyclic", "order": order})
            r = run("--config", conf, "ap-check", "--bundle", "b", "--witness", "w", "--targets", "1")
            assert r.exit_code == code, r.stderr
        assert r.stderr.startswith(f"config error: groups.g: a cyclic group of order {BALL_CAP + 1} ")

    @pytest.mark.parametrize(
        "order, blocks, admitted",
        [(84, [1], True), (85, [1], False), (42, [2, 2], True), (42, [3], False)],
        ids=["order-at-cap", "order-over", "dimension-at-cap", "dimension-over"],
    )
    def test_twist_check_at_the_cap(self, tmp_path, monkeypatch, order, blocks, admitted):
        """The cocycle law of a twist makes at most |ball|^3 times the
        algebra's dimension terms: 84^3 and 42^3 * 8 are within TWIST_CAP,
        85^3 and 42^3 * 9 past it. The validator is stubbed, so no
        admitted case runs."""
        assert (order**3 * sum(d * d for d in blocks) <= TWIST_CAP) == admitted
        path = tmp_path / "tw.json"
        path.write_text(json.dumps({
            "groups": {"g": {"kind": "cyclic", "order": order}},
            "algebras": {"a": {"blocks": blocks}},
            "actions": {"id": {"kind": "identity", "group": "g", "algebra": "a"}},
            "twists": {"t": {"kind": "scalar", "action": "id", "salt": 1}},
        }))
        monkeypatch.setattr(cli, "validate_twist", lambda *args, **kwargs: ActionReport())
        r = run("--config", str(path), "validate", "t")
        if admitted:
            assert r.exit_code == 0, r.stderr
        else:
            assert_refused(r, f"config error: the cocycle law on a ball of {order} elements ")
            assert f"over {TWIST_CAP} terms" in r.stderr


class TestValidate:
    def test_bundle_passes(self, conf, tmp_path):
        out = tmp_path / "v.csv"
        r = run("--config", conf, "--out", str(out), "validate", "b1")
        assert r.exit_code == 0, r.stderr
        header, rows = read_rows(out)
        assert header == [
            "command", "config", "seed", "target", "target_kind",
            "axiom", "context", "residual",
        ]
        assert rows[-1].split(",")[5] == "max-violation"

    def test_twisted_bundle_and_action_pass(self, conf):
        assert run("--config", conf, "validate", "b2").exit_code == 0
        assert run("--config", conf, "validate", "rand4").exit_code == 0

    def test_corrupted_cocycle_fails_naming_the_condition(self, conf, tmp_path):
        out = tmp_path / "bad.csv"
        r = run("--config", conf, "--out", str(out), "validate", "bad")
        assert r.exit_code == 1
        _, rows = read_rows(out)
        axioms = {row.split(",")[5] for row in rows}
        assert "cocycle" in axioms
        # the phase tweak leaves unitarity and the composition law intact
        assert not axioms & {"unitarity", "composition", "identity-map"}

    def test_seed_appears_in_rows(self, conf, tmp_path):
        out = tmp_path / "v.csv"
        r = run("--config", conf, "--seed", "9", "--out", str(out), "validate", "bz")
        assert r.exit_code == 0
        _, rows = read_rows(out)
        assert all(row.split(",")[2] == "9" for row in rows)


class TestGlobalize:
    def test_trivial_scalar_action_gives_cyclic_shift(self, conf, tmp_path):
        out = tmp_path / "g.csv"
        r = run("--config", conf, "--out", str(out), "globalize", "trivc")
        assert r.exit_code == 0, r.stderr
        body = out.read_text()
        assert "envelope-blocks,1 1 1" in body
        assert "orbit-span,rank 3 of 3" in body
        # the generator must act fixed-point-freely on the three blocks
        gen_row = next(line for line in body.splitlines() if "global-iso,1:" in line)
        moves = gen_row.split("global-iso,1: ")[1].split('"')[0]
        assert "0>0" not in moves and "1>1" not in moves and "2>2" not in moves

    def test_round_trip_on_random_partial_action(self, conf):
        r = run("--config", conf, "globalize", "rand4")
        assert r.exit_code == 0, r.stderr
        assert "pass" in r.stderr

    def test_emitted_config_validates(self, conf, tmp_path):
        env = tmp_path / "env.json"
        r = run("--config", conf, "globalize", "trivc", "--emit-config", str(env))
        assert r.exit_code == 0
        doc = json.loads(env.read_text())
        assert "trivc.global" in doc["actions"]
        assert doc["algebras"]["trivc.envelope"]["blocks"] == [1, 1, 1]
        r2 = run("--config", str(env), "validate", "trivc.global")
        assert r2.exit_code == 0, r2.stderr

    @pytest.mark.parametrize(
        "action, expected",
        [
            (
                "trivc",
                [
                    "envelope-blocks,1 1 1",
                    "image-blocks,2",
                    "orbit-span,rank 3 of 3",
                    "global-iso,0: 0>0 1>1 2>2",
                    "global-iso,1: 0>2 1>0 2>1",
                    "global-iso,2: 0>1 1>2 2>0",
                ],
            ),
            (
                "rand4",
                [
                    "envelope-blocks,2 2 2 2 2 2 2 2",
                    "image-blocks,5 6 7",
                    "orbit-span,rank 32 of 32",
                    "global-iso,0: 0>0 1>1 2>2 3>3 4>4 5>5 6>6 7>7",
                    "global-iso,1: 0>7 1>6 2>0 3>1 4>2 5>3 6>5 7>4",
                    "global-iso,2: 0>4 1>5 2>7 3>6 4>0 5>1 6>3 7>2",
                    "global-iso,3: 0>2 1>3 2>4 3>5 4>7 5>6 6>1 7>0",
                ],
            ),
        ],
    )
    def test_envelope_rows_are_pinned(self, conf, tmp_path, action, expected):
        out = tmp_path / "g.csv"
        r = run("--config", conf, "--out", str(out), "globalize", action)
        assert r.exit_code == 0, r.stderr
        _, rows = read_rows(out)
        pinned = ("envelope-blocks", "image-blocks", "orbit-span", "global-iso")
        got = [
            ",".join(row.split(",")[4:6])
            for row in rows
            if row.split(",")[4] in pinned
        ]
        assert got == expected

    def test_output_does_not_depend_on_seed(self, conf, tmp_path):
        csvs = []
        for seed in ("1", "9"):
            out = tmp_path / f"g{seed}.csv"
            env = tmp_path / f"env{seed}.json"
            r = run("--config", conf, "--seed", seed, "--out", str(out),
                    "globalize", "ident", "--emit-config", str(env))
            assert r.exit_code == 0, r.stderr
            _, rows = read_rows(out)
            kept = []
            for row in rows:
                cols = row.split(",")
                assert cols[2] == seed
                del cols[2]
                if cols[3] == "emitted":
                    del cols[4]
                kept.append(cols)
            csvs.append(kept)
        assert csvs[0] == csvs[1]
        assert (tmp_path / "env1.json").read_bytes() == (tmp_path / "env9.json").read_bytes()

    def test_infinite_group_unsupported(self, conf):
        r = run("--config", conf, "globalize", "trivline")
        assert r.exit_code == 3

    def test_axiom_violating_input_fails(self, tmp_path):
        # alpha_1 = Ad(diag(1, i)) squares to Ad(diag(1, -1)) != id, breaking
        # the composition axiom on the two-element group
        doc = {
            "groups": {"z2": {"kind": "cyclic", "order": 2}},
            "algebras": {"m2": {"blocks": [2]}},
            "actions": {
                "broken": {
                    "kind": "explicit",
                    "group": "z2",
                    "algebra": "m2",
                    "isos": {
                        "0": {
                            "phi": {"0": 0},
                            "unitaries": {"0": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]},
                        },
                        "1": {
                            "phi": {"0": 0},
                            "unitaries": {"0": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]},
                        },
                    },
                }
            },
        }
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        r = run("--config", str(p), "globalize", "broken")
        assert r.exit_code == 1
        assert "fails axioms" in r.stderr


class TestApCheck:
    def test_uniform_on_finite_bundle_all_zero(self, conf, tmp_path):
        out = tmp_path / "ap.csv"
        r = run("--config", conf, "--out", str(out),
                "ap-check", "--bundle", "bs3", "--witness", "builtin:uniform")
        assert r.exit_code == 0, r.stderr
        _, rows = read_rows(out)
        assert rows
        for row in rows:
            assert float(row.split(",")[-1]) <= 1e-12

    def test_folner_defect_matches_closed_form(self, conf, tmp_path):
        out = tmp_path / "ap.csv"
        r = run("--config", conf, "--tol", "0.2", "--out", str(out),
                "ap-check", "--bundle", "bline", "--witness", "builtin:folner:8",
                "--targets", "1")
        assert r.exit_code == 0, r.stderr
        _, rows = read_rows(out)
        for row in rows:
            assert float(row.split(",")[-1]) == pytest.approx(1 / 8, abs=1e-12)

    def test_family_reference(self, conf):
        r = run("--config", conf, "--tol", "0.2",
                "ap-check", "--bundle", "bline", "--witness", "wf8")
        assert r.exit_code == 0, r.stderr

    def test_folner_fails_at_tight_tolerance(self, conf):
        r = run("--config", conf, "--tol", "1e-8",
                "ap-check", "--bundle", "bline", "--witness", "builtin:folner:8")
        assert r.exit_code == 1

    def test_cuntz_trace(self, conf, tmp_path):
        out = tmp_path / "ap.csv"
        r = run("--config", conf, "--tol", "0.2", "--out", str(out),
                "ap-check", "--bundle", "bf2", "--witness", "builtin:cuntz:6",
                "--targets", "1")
        assert r.exit_code == 0, r.stderr
        _, rows = read_rows(out)
        assert len(rows) == 6
        for pos, row in enumerate(rows):
            cells = row.split(",")
            assert float(cells[-2]) == 1.0           # bound
            assert float(cells[-1]) == pytest.approx(1.0 / (pos + 1), rel=1e-11)

    def test_cuntz_index_in_the_hundreds_passes(self, conf, tmp_path):
        out = tmp_path / "ap.csv"
        r = run("--config", conf, "--tol", "0.01", "--out", str(out),
                "ap-check", "--bundle", "bf2", "--witness", "builtin:cuntz:200",
                "--targets", "1,1 2")
        assert r.exit_code == 0, r.stderr
        _, rows = read_rows(out)
        assert len(rows) == 400
        last = [row.split(",") for row in rows[-2:]]
        assert [cells[3] for cells in last] == ["199", "199"]
        assert [float(cells[-1]) for cells in last] == [1 / 200, 2 / 200]

    @pytest.mark.parametrize(
        "text, ts",
        [("1,0;0,-1", ["1,0", "0,-1"]), ("0,2;", ["0,2"]), ("1,0 ; -1,1 ;", ["1,0", "-1,1"])],
    )
    def test_lattice_targets_split_on_semicolons(self, tmp_path, text, ts):
        """Z^2 prints an element as ``x,y``, so a list of them is split on
        ``;``: the side-4 box defect against each is 1 - (4-|x|)(4-|y|)/16."""
        conf = one_block_config(tmp_path, "groups", "g", {"kind": "lattice", "dim": 2})
        out = tmp_path / "ap.csv"
        r = run("--config", conf, "--tol", "0.5", "--out", str(out),
                "ap-check", "--bundle", "b", "--witness", "builtin:folner:4", "--targets", text)
        assert r.exit_code == 0, r.stderr
        with out.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["t"] for row in rows] == ts
        for row in rows:
            x, y = map(int, row["t"].split(","))
            assert float(row["defect"]) == 1 - (4 - abs(x)) * (4 - abs(y)) / 16

    def test_unreadable_lattice_targets_are_refused(self, tmp_path):
        conf = one_block_config(tmp_path, "groups", "g", {"kind": "lattice", "dim": 2})
        for text in ("1,0", "1,0;;0,1", ";"):
            r = run("--config", conf, "ap-check", "--bundle", "b",
                    "--witness", "builtin:folner:4", "--targets", text)
            assert_refused(r, "config error: cannot read ")

    def test_lattice_token_without_comma_gets_a_hint(self, tmp_path):
        """``1,0`` on Z^2 splits into the tokens 1 and 0, which Z^2 cannot
        read; the refusal says how the list splits. A token with a comma,
        and a token of Z^1, get no hint."""
        hint = "(the list splits on ',' unless it contains ';', and '1,0;' names one element)"
        conf = one_block_config(tmp_path, "groups", "g", {"kind": "lattice", "dim": 2})
        for text, token in (("1,0", "1"), ("1,0;2", "2")):
            r = run("--config", conf, "ap-check", "--bundle", "b",
                    "--witness", "builtin:folner:4", "--targets", text)
            assert_refused(
                r, f"config error: cannot read '{token}' in Z^2 {hint}: expected 2 coordinates, got 1"
            )
        r = run("--config", conf, "ap-check", "--bundle", "b",
                "--witness", "builtin:folner:4", "--targets", "1,0,0;")
        assert_refused(r, "config error: cannot read '1,0,0' in Z^2: expected 2 coordinates, got 3")
        line = one_block_config(tmp_path, "groups", "g", {"kind": "lattice", "dim": 1})
        r = run("--config", line, "ap-check", "--bundle", "b",
                "--witness", "builtin:folner:4", "--targets", "1,x")
        assert_refused(r, "config error: cannot read 'x' in Z^1: ")
        assert hint not in r.stderr

    @pytest.mark.parametrize("name", ["bs3", "b1", "b2", "bz", "bline", "bf2"])
    def test_listed_ball_targets_are_the_default_targets(self, name):
        """Basis targets over a listed ball(1), and with no list, carry the
        labels and elements of ``default_targets`` at radius 1."""
        bundle = ConfigStore(raw=BASE_CONFIG, sha="-", seed=7).bundle(name)
        g = bundle.group
        want = default_targets(bundle, radius=1)
        listed = "".join(f"{g.format_elem(t)};" for t in g.ball(1))
        for got in (_parse_targets(bundle, None), _parse_targets(bundle, listed)):
            assert [(x.t, x.label) for x in got] == [(x.t, x.label) for x in want]
            for x, y in zip(got, want):
                assert all(np.array_equal(p, q) for p, q in zip(x.b.packs, y.b.packs))

    def test_unsupported_combinations(self, conf):
        r = run("--config", conf, "ap-check", "--bundle", "bline",
                "--witness", "builtin:uniform")
        assert r.exit_code == 3
        r = run("--config", conf, "ap-check", "--bundle", "bf2",
                "--witness", "builtin:folner:4")
        assert r.exit_code == 3
        r = run("--config", conf, "ap-check", "--bundle", "bz",
                "--witness", "builtin:cuntz:3")
        assert r.exit_code == 3

    @pytest.mark.parametrize(
        "args",
        [
            ("ap-check", "--bundle", "bf2", "--witness", "builtin:cuntz:0"),
            ("ap-check", "--bundle", "bf2", "--witness", "builtin:cuntz:00"),
            # a digit that int() cannot read
            ("ap-check", "--bundle", "bf2", "--witness", "builtin:cuntz:\u00b2"),
            ("ap-check", "--bundle", "bline", "--witness", "builtin:folner:0"),
            ("ap-check", "--bundle", "bz", "--witness", "builtin:uniform", "--targets", ""),
            ("ap-check", "--bundle", "bz", "--witness", "builtin:uniform", "--targets", "9"),
            ("ap-check", "--bundle", "bf2", "--witness", "builtin:cuntz:3", "--targets", "zz"),
        ],
        ids=" ".join,
    )
    def test_bad_witness_index_or_target(self, conf, args):
        """A witness index below 1 or a target the group cannot read is a
        config error, never a traceback or a pass over an empty table."""
        r = run("--config", conf, *args)
        assert r.exit_code == 2, r.stderr
        assert "config error" in r.stderr
        assert isinstance(r.exception, SystemExit)

    @pytest.mark.parametrize(
        "args",
        [
            ("validate", "bf2", "--window", "5"),
            ("validate", "bline", "--window", "100"),
            ("validate", "trivline", "--window", "1000000000"),
            ("kernels", "--bundle", "bf2", "--window", "5"),
            ("groupoid", "--n", "2", "--depth", "0", "--radius", "5"),
            ("groupoid", "--n", "2", "--depth", "16"),
            ("groupoid", "--n", "2", "--depth", "1000000000"),
            ("groupoid", "--n", "1000000", "--depth", "1", "--radius", "0"),
        ],
        ids=" ".join,
    )
    def test_oversized_request(self, conf, args):
        """A ball of over BALL_CAP elements, or a groupoid of over ARROW_CAP
        arrows, is refused before anything is built."""
        r = run("--config", conf, *args)
        assert r.exit_code == 2, r.stderr
        cap = ARROW_CAP if "arrows" in r.stderr else BALL_CAP
        assert f"over {cap} " in r.stderr

    def test_malformed_witness_spec(self, conf):
        r = run("--config", conf, "ap-check", "--bundle", "bz",
                "--witness", "builtin:folner")
        assert r.exit_code == 2
        r = run("--config", conf, "ap-check", "--bundle", "bz",
                "--witness", "builtin:polka")
        assert r.exit_code == 2


class TestKernels:
    def test_dimension_counting_on_group_bundle(self, conf, tmp_path):
        out = tmp_path / "k.csv"
        r = run("--config", conf, "--out", str(out),
                "kernels", "--bundle", "bline", "--window", "2")
        assert r.exit_code == 0, r.stderr
        header, rows = read_rows(out)
        # constant fiber M_2 over the 5-point window: dim = 5^2 * 4
        for row in rows:
            cells = dict(zip(header, row.split(",")))
            assert cells["window_size"] == "5"
            assert cells["mf_dim"] == "100"
            assert float(cells["beta_residual"]) <= 1e-10

    def test_shift_residuals_on_twisted_bundle(self, conf):
        r = run("--config", conf, "kernels", "--bundle", "b2", "--window", "1")
        assert r.exit_code == 0, r.stderr

    # norm column of `kernels --window 2 --seed 7` on the criterion-10 config,
    # recorded from the Gram eigendecomposition representation
    PINNED_NORMS = {
        "bl": [4.465273599599, 3.393448287722, 3.272797653101, 2.876894772411,
               1.818738939503],
        "b1": [3.392848988109, 3.310583672212, 4.852085400649, 4.375148845775,
               3.985754770016],
    }

    @pytest.mark.parametrize("bundle", sorted(PINNED_NORMS))
    def test_norms_are_pinned(self, bundle, tmp_path):
        path = tmp_path / "conf.json"
        path.write_text(json.dumps(CLI_CONFIG))
        out = tmp_path / "k.csv"
        r = run("--config", str(path), "--seed", "7", "--out", str(out),
                "kernels", "--bundle", bundle, "--window", "2")
        assert r.exit_code == 0, r.stderr
        header, rows = read_rows(out)
        norms = [float(dict(zip(header, row.split(",")))["norm"]) for row in rows]
        assert norms == pytest.approx(self.PINNED_NORMS[bundle], rel=1e-11)


class TestCuntzAp:
    def test_generator_defect_column(self, tmp_path):
        out = tmp_path / "c.csv"
        r = run("--out", str(out), "cuntz-ap", "--n", "2", "--imax", "8",
                "--targets", "a")
        assert r.exit_code == 0, r.stderr
        header, rows = read_rows(out)
        assert len(rows) == 8
        for row in rows:
            cells = dict(zip(header, row.split(",")))
            i = int(cells["i"])
            assert float(cells["defect"]) == pytest.approx(1.0 / i, rel=1e-11)
            # measured and predicted agree as floats, so the rendered cells
            # match byte for byte and the residual is an exact zero
            assert cells["defect"] == cells["predicted"]
            assert float(cells["residual"]) == 0.0

    def test_word_grammar_and_lawless_rows(self, tmp_path):
        out = tmp_path / "c.csv"
        r = run("--out", str(out), "cuntz-ap", "--n", "2", "--imax", "3",
                "--targets", "ab,e,ab'")
        assert r.exit_code == 0, r.stderr
        header, rows = read_rows(out)
        assert len(rows) == 9
        mixed = [row for row in rows if row.split(",")[4] == "1 -2"]
        assert mixed and all(
            float(row.split(",")[6]) == -1.0 for row in mixed
        )

    def test_index_in_the_hundreds(self, tmp_path):
        out = tmp_path / "c.csv"
        r = run("--out", str(out), "cuntz-ap", "--n", "3", "--imax", "200",
                "--targets", "a,ab,aab'")
        assert r.exit_code == 0, r.stderr
        header, rows = read_rows(out)
        assert len(rows) == 600
        # |g|/i for the positive words once i >= |g|; for a^2 b^-1 it is
        # (max(|a|, |b|) - 1)/i = 1/i once i >= 2
        for row in rows:
            cells = dict(zip(header, row.split(",")))
            i = int(cells["i"])
            length, reach = {"1": (1, 1), "1 2": (2, 2), "1 1 -2": (1, 2)}[cells["word"]]
            law = 1.0 if i < reach else length / i
            assert float(cells["defect"]) == pytest.approx(law, rel=1e-11)
            assert float(cells["residual"]) == 0.0

    def test_domain_zero_word_rejected(self):
        r = run("cuntz-ap", "--n", "2", "--targets", "a'b")
        assert r.exit_code == 2
        assert "acts nowhere" in r.stderr

    def test_letter_outside_alphabet(self):
        r = run("cuntz-ap", "--n", "2", "--targets", "c")
        assert r.exit_code == 2

    @pytest.mark.parametrize("targets", ["A", "A,a", "bA'"])
    def test_uppercase_letter_refused(self, targets):
        r = run("cuntz-ap", "--n", "2", "--targets", targets)
        assert r.exit_code == 2
        lines = r.stderr.strip().splitlines()
        assert len(lines) == 1
        assert lines[0] == (
            "config error: letter 'A' outside the rank-2 alphabet; write a' for the inverse of a"
        )


class TestGroupoid:
    def test_arrow_count_matches_the_table(self):
        for n, depth, radius in [(2, 0, 0), (2, 2, 1), (2, 4, 2), (3, 2, 3), (4, 3, 2)]:
            want = len(spectral_groupoid(n, depth, radius).arrows)
            assert _arrow_count(n, depth, radius) == want
        assert _arrow_count(2, 14, 1) == ARROW_CAP

    def test_largest_ball_under_the_cap(self):
        r = run("groupoid", "--n", "2", "--depth", "1", "--radius", "4")
        assert r.exit_code == 0, r.stderr

    def test_frozen_table(self, tmp_path):
        out = tmp_path / "g.csv"
        r = run("--out", str(out), "groupoid", "--n", "2", "--depth", "2",
                "--radius", "1")
        assert r.exit_code == 0, r.stderr
        header, rows = read_rows(out)
        assert len(rows) == 16
        units = [row for row in rows if row.split(",")[-1] == "1"]
        assert len(units) == 4

    def test_radius_zero(self, tmp_path):
        out = tmp_path / "g.csv"
        r = run("--out", str(out), "groupoid", "--n", "3", "--depth", "2",
                "--radius", "0")
        assert r.exit_code == 0
        _, rows = read_rows(out)
        assert len(rows) == 9


class TestBoundaryNetPins:
    """Boundary-net CSVs pinned byte for byte (CRC-32 of the whole file at
    seed 7 on the criterion-10 config), recorded from the word-walking
    defect evaluator and the all-pairs groupoid validator, so any faster
    evaluation must reproduce them exactly."""

    PINNED = [
        (("cuntz-ap", "--n", "2", "--imax", "10", "--targets", "a,ab,ab',b'"),
         0, 41, 4227186796),
        (("cuntz-ap", "--n", "3", "--imax", "12", "--targets", "a,ca"),
         0, 25, 1801938715),
        # the final defect 1/10 is above the default tolerance: exit 1
        (("ap-check", "--bundle", "bf", "--witness", "builtin:cuntz:10"),
         1, 11, 891993881),
        (("groupoid", "--n", "2", "--depth", "4", "--radius", "2"),
         0, 161, 2958089000),
        (("groupoid", "--n", "3", "--depth", "2", "--radius", "1"),
         0, 46, 634824949),
    ]

    @pytest.mark.parametrize(
        "args,code,lines,crc", PINNED, ids=[p[0][0] + str(k) for k, p in enumerate(PINNED)]
    )
    def test_csv_bytes_are_pinned(self, tmp_path, args, code, lines, crc):
        path = tmp_path / "conf.json"
        path.write_text(json.dumps(CLI_CONFIG))
        out = tmp_path / "net.csv"
        r = run("--config", str(path), "--seed", "7", "--out", str(out), *args)
        assert r.exit_code == code, r.stderr
        data = out.read_bytes()
        assert len(data.splitlines()) == lines
        assert zlib.crc32(data) == crc


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ("kernels", "--bundle", "b1", "--window", "1"),
            ("ap-check", "--bundle", "bs3", "--witness", "builtin:uniform"),
            ("validate", "b2"),
        ],
    )
    def test_byte_identical_reruns(self, conf, tmp_path, args):
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        r1 = run("--config", conf, "--seed", "5", "--out", str(out1), *args)
        r2 = run("--config", conf, "--seed", "5", "--out", str(out2), *args)
        assert r1.exit_code == r2.exit_code
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_changes_sampled_rows(self, conf, tmp_path):
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        run("--config", conf, "--seed", "5", "--out", str(out1),
            "kernels", "--bundle", "bz", "--window", "1")
        run("--config", conf, "--seed", "6", "--out", str(out2),
            "kernels", "--bundle", "bz", "--window", "1")
        assert out1.read_bytes() != out2.read_bytes()
