"""Driving the batch interface.

Everything the library does is reachable from the `fellap` executable:
named objects live in a JSON config, every run prints a one line summary
on stderr, rows go to a CSV, and a fixed --seed makes reruns reproduce
the output byte for byte. This script writes a config, runs a handful of
commands, and shows the artifacts.
"""

import json
import pathlib
import subprocess
import sys
import tempfile

CONFIG = {
    "groups": {
        "z4": {"kind": "cyclic", "order": 4},
        "line": {"kind": "lattice", "dim": 1},
        "f2": {"kind": "free", "rank": 2},
    },
    "algebras": {"m2": {"blocks": [2]}},
    "actions": {
        "act": {"kind": "random", "group": "z4", "salt": 1},
        "triv": {"kind": "trivial", "group": "z4", "algebra": "m2"},
    },
    "bundles": {
        "b1": {"kind": "semidirect", "action": "act"},
        "bline": {"kind": "group", "group": "line", "algebra": "m2"},
    },
    "witness_families": {"boxes": {"kind": "folner", "n": 16}},
}


def run(*args, expect=0):
    """Run one command, echo its summary line, and return the CSV path."""
    res = subprocess.run(
        [sys.executable, "-m", "fellap.cli", *args],
        capture_output=True,
        text=True,
    )
    print(f"$ fellap {' '.join(args)}")
    print(f"  [exit {res.returncode}] {res.stderr.strip()}")
    assert res.returncode == expect, res.stderr
    return res


# The work directory goes, with everything in it, when the script exits.
work = tempfile.TemporaryDirectory(prefix="fellap-demo-")
tmp = pathlib.Path(work.name)
conf = tmp / "conf.json"
conf.write_text(json.dumps(CONFIG, indent=2))

# Validate a bundle: exit 0 and an empty violation list.
out = tmp / "validate.csv"
run("--config", str(conf), "--out", str(out), "validate", "b1")

# Certify the approximation property with box witnesses on the integers.
out = tmp / "ap.csv"
run(
    "--config", str(conf), "--tol", "0.1", "--out", str(out),
    "ap-check", "--bundle", "bline", "--witness", "builtin:folner:16",
)
print("  first rows of", out.name)
for line in out.read_text().splitlines()[:4]:
    print("   ", line)

# The boundary-net defect table needs no config at all.
out = tmp / "cuntz.csv"
run("--out", str(out), "cuntz-ap", "--n", "2", "--imax", "6", "--targets", "a,ab")

# Globalize a partial action and emit the envelope as a new config that
# the validator accepts.
env = tmp / "envelope.json"
run("--config", str(conf), "globalize", "triv", "--emit-config", str(env))
run("--config", str(env), "validate", "triv.global")

# Reruns with the same seed are byte-identical.
a, b = tmp / "run_a.csv", tmp / "run_b.csv"
for out in (a, b):
    run("--config", str(conf), "--seed", "9", "--out", str(out),
        "kernels", "--bundle", "b1", "--window", "1")
print("byte-identical reruns:", a.read_bytes() == b.read_bytes())

# Impossible requests are refused with a dedicated exit code, not a wrong
# answer: a uniform witness needs a finite group.
run(
    "--config", str(conf),
    "ap-check", "--bundle", "bline", "--witness", "builtin:uniform",
    expect=3,
)
