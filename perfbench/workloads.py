"""The four benchmark workloads: input generation and per-item truth checks.

A workload is an endless sequence of rounds. A round is a fixed list of
shapes (group, base blocks, flavor, window, number of kept blocks, witness
index, depth); the seed and the round index choose only values (unitaries,
samples, homomorphism images, which blocks are kept, which target words).
So the work in a round is comparable across seeds, and a run that measures
whole rounds always measures the same mix.

``build_round`` is set-up: it calls ``fellap.testing`` and the public
constructors and returns items. An item is one certified object; running it
calls the library and returns the list of mismatches against the known
truth (empty when the verdict is right). Items look library functions up
through their modules at call time (``B.validate_bundle``), so the tracer in
``tracing.py`` sees every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List

import numpy as np

from fellap import algebra as A
from fellap import approx as P
from fellap import bundles as B
from fellap import cli
from fellap import groups as G
from fellap import kernels as K
from fellap import testing as T

TOL = 1e-10
EXACT = 1e-12


@dataclass
class Item:
    """One certified object: ``run`` returns its mismatches, empty if right."""

    label: str
    run: Callable[[], List[str]]


def _check(problems: List[str], ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


# ---------------------------------------------------------------------------
# Shared constructors (set-up only)
# ---------------------------------------------------------------------------

Z2, Z3, Z4, Z5, Z6 = (G.cyclic_group(m) for m in range(2, 7))
S3 = G.symmetric_group(3)
F2 = G.FreeGroup(2)
LINE = G.LatticeGroup(1)
PLANE = G.LatticeGroup(2)


def _action(rng, group, base, kept):
    """Global translation action on |G| copies of ``base``, conjugated by a
    random unitary; restricted to ``kept`` blocks unless None.

    The kept blocks cycle through the base blocks, so their dimensions are
    part of the shape; the copies they come from are drawn at random.
    Block j of copy t sits at index t * len(base) + j.
    """
    glob = T.random_global_action(rng, group, base)
    if kept is None:
        return glob
    nb = len(base)
    blocks = [
        int(t) * nb + j
        for j in range(nb)
        for t in rng.choice(group.order, size=len(range(j, kept, nb)), replace=False)
    ]
    return A.restrict_action(glob, A.Ideal(glob.algebra, blocks))


def _bundle(rng, group, flavor, base, kept, image=None):
    """Bundle of one pinned shape. Infinite groups pull the action back from
    the finite ``image`` along a random homomorphism."""
    act = _action(rng, image or group, base, None if flavor == "matrix-twist" else kept)
    if image is not None:
        # The homomorphism decides which fibers vanish, so it is part of
        # the shape: drawn from a fixed stream, not from the seed.
        hom = T.random_hom_to_finite(np.random.default_rng(HOM_SALT), group, image)
        act = A.pullback_action(act, hom, group)
    salt = int(rng.integers(2**31))
    if flavor == "semidirect":
        return B.make_semidirect(act)
    if flavor == "scalar-twist":
        return B.make_twisted(act, T.scalar_coboundary_twist(act, salt))
    family, twist = T.matrix_twist(act, salt)
    return B.make_twisted(family, twist)


FLAVORS = ("semidirect", "scalar-twist", "matrix-twist")
HOM_SALT = 3


# ---------------------------------------------------------------------------
# certify-sweep
# ---------------------------------------------------------------------------

# (group, base blocks, kept blocks, finite image for infinite groups)
SWEEP_SHAPES = [
    (Z2, (2,), 1, None),
    (Z3, (1, 2), 2, None),
    (Z4, (2,), 2, None),
    (Z5, (1,), 3, None),
    (Z6, (1,), 3, None),
    (S3, (1,), 2, None),
    (S3, (2,), 3, None),
    (F2, (1,), 2, Z3),
    (LINE, (2,), 2, Z4),
    (PLANE, (1,), 1, Z2),
]
BOX_SIDES = (2, 4)
BOX_TOL = 0.3


def _box_defect(t, n):
    """Exact defect of the side-n box witness against a unit-norm target
    over t: the share of the box that translation by t moves out of it."""
    overlap = 1
    for c in t.data:
        overlap *= max(n - abs(c), 0)
    return 1.0 - overlap / n ** len(t.data)


def _certify_item(rng, group, flavor, base, kept, image, index):
    bundle = _bundle(rng, group, flavor, base, kept, image)
    vseed = int(rng.integers(2**31))
    if isinstance(group, G.FreeGroup):
        ball1 = group.ball(1)
        nw = 2 + index % 2
        raw = rng.uniform(0.2, 1.0, size=nw)
        witnesses = [
            (
                P.APWitness(bundle, {r: T.random_element(rng, bundle.coeff_algebra, 0.5) for r in ball1}),
                float(lam),
            )
            for lam in raw / raw.sum()
        ]

    def run():
        problems: List[str] = []
        rep = B.validate_bundle(bundle, window=2, samples=1, seed=vseed, tol=TOL)
        _check(problems, rep.passed, f"valid bundle rejected: {rep.render()[:200]}")
        if group.is_finite:
            verdict = P.ap_certify(bundle, [P.uniform_witness(bundle)])
            _check(problems, verdict.passed, "uniform witness rejected")
            worst = max((r.defect for r in verdict.rows), default=0.0)
            _check(problems, worst <= EXACT, f"uniform defect {worst:.3e} is not 0")
        elif isinstance(group, G.LatticeGroup):
            family = [P.folner_witness(bundle, n) for n in BOX_SIDES]
            targets = P.default_targets(bundle, radius=1)
            verdict = P.ap_certify(bundle, family, targets, tolerance=BOX_TOL)
            by_label = {tgt.label: tgt.t for tgt in targets}
            worst_gap = 0.0
            final = 0.0
            for row in verdict.rows:
                want = _box_defect(by_label[row.target_label], BOX_SIDES[row.index])
                worst_gap = max(worst_gap, abs(row.defect - want), abs(row.bound - 1.0))
                if row.index == len(family) - 1:
                    final = max(final, want)
            _check(problems, worst_gap <= EXACT, f"box defect off by {worst_gap:.3e}")
            _check(problems, verdict.passed == (final <= BOX_TOL), "box verdict wrong")
        else:
            targets = P.default_targets(bundle, radius=1, max_per_fiber=2)
            mixed, cert = P.convexify(witnesses, targets, search_radius=6)
            cap = max(P.witness_bound(a) for a, _ in witnesses)
            _check(problems, len(cert.translates) == len(witnesses), "translate count")
            _check(problems, cert.gram_residual <= EXACT, f"gram {cert.gram_residual:.3e}")
            worst = max(cert.defect_residuals, default=0.0)
            _check(problems, worst <= EXACT, f"defect split {worst:.3e}")
            _check(problems, cert.bound <= cap + EXACT, "convex bound above its cap")
            _check(
                problems,
                len(mixed.data) == sum(len(a.data) for a, _ in witnesses),
                "translates overlap",
            )
        return problems

    return Item(f"certify/{flavor}/{group.label}", run)


def _twist_item(rng):
    family, twist = T.matrix_twist(_action(rng, Z3, (2,), None), int(rng.integers(2**31)))

    def run():
        rep = B.validate_twist(family, twist, window=1, tol=TOL)
        return [] if rep.passed else [f"valid twist rejected: {rep.render()[:200]}"]

    return Item("twist/Z3", run)


def _partial_action_item(rng, group):
    pa = _action(rng, group, (1, 1), 4)

    def run():
        rep = A.validate_partial_action(pa, window=2, tol=TOL)
        return [] if rep.passed else [f"valid action rejected: {rep.render()[:200]}"]

    return Item(f"action/{group.label}", run)


def _wrong_product_item(rng):
    """Planted defect: a matrix-twisted family (dim-2 blocks) with the
    trivial twist in place of its own; associativity must fail."""
    family, _ = T.matrix_twist(_action(rng, Z3, (2,), None), int(rng.integers(2**31)))
    bundle = B.make_twisted(family, B.trivial_twist(family))
    vseed = int(rng.integers(2**31))

    def run():
        rep = B.validate_bundle(bundle, window=2, samples=1, seed=vseed, tol=TOL)
        axioms = {axiom for axiom, _, _ in rep.rows}
        return [] if "associativity" in axioms else ["untwisted matrix family accepted"]

    return Item("planted/trivial-twist", run)


def _perturbed_phase_item(rng):
    """Planted defect: a scalar coboundary on a global action with one
    cocycle value turned by a phase. Every corner of a global action is the
    whole algebra, so the perturbed pair is visible to the cocycle law."""
    pa = _action(rng, Z3, (1,), None)
    base = T.scalar_coboundary_twist(pa, int(rng.integers(2**31)))
    s = t = Z3.elem(1)
    phase = np.exp(1j * float(rng.uniform(0.01, 0.1)))

    def fn(a, b):
        om = base.omega(a, b)
        return phase * om if (a, b) == (s, t) else om

    twist = B.Twist(fn)

    def run():
        rep = B.validate_twist(pa, twist, window=1, tol=TOL)
        axioms = {axiom for axiom, _, _ in rep.rows}
        return [] if axioms == {"cocycle"} else [f"perturbed phase gave {sorted(axioms)}"]

    return Item("planted/perturbed-phase", run)


def certify_sweep_round(rng, index, workdir):
    items = []
    for pos, flavor in enumerate(FLAVORS):
        for group, base, kept, image in SWEEP_SHAPES:
            items.append(_certify_item(rng, group, flavor, base, kept, image, index + pos))
    items.append(_twist_item(rng))
    items.append(_partial_action_item(rng, S3))
    items.append(_partial_action_item(rng, Z6))
    items.append(_wrong_product_item(rng))
    items.append(_perturbed_phase_item(rng))
    return items


# ---------------------------------------------------------------------------
# kernel-window
# ---------------------------------------------------------------------------

# (group, base blocks, window radius, finite image for infinite groups)
WINDOW_SHAPES = [
    (Z4, (1,), 1, None),
    (Z4, (1,), 2, None),
    (Z4, (1, 1), 1, None),
    (Z4, (2,), 2, None),
    (Z6, (1,), 1, None),
    (Z6, (1,), 2, None),
    (Z6, (1,), 3, None),
    (S3, (1,), 1, None),
    (S3, (1,), 2, None),
    (S3, (1, 1), 1, None),
    (LINE, (1,), 1, Z4),
    (LINE, (1,), 3, Z4),
    (LINE, (2,), 3, Z4),
    (F2, (1,), 1, Z3),
    (F2, (1,), 2, Z2),
]


def _kernel_item(rng, group, base, radius, image):
    bundle = _bundle(rng, group, "matrix-twist", base, None, image)
    win = K.Window.ball(group, radius)
    small_win = K.Window.ball(group, radius - 1)
    h = T.random_kernel(rng, bundle, win)
    k = T.random_kernel(rng, bundle, win)
    small = T.random_kernel(rng, bundle, small_win)
    elems = win.elements
    s = elems[int(rng.integers(len(elems)))]
    t = elems[int(rng.integers(len(elems)))]
    e = group.identity
    sub = B.subgroup_sub_bundle(bundle, lambda x: x == e)

    def run():
        problems: List[str] = []
        pk = K.pi_matrix(k, win)
        ph = K.pi_matrix(h, win)
        hk = K.k_mul(h, k)
        gap = float(np.abs(K.pi_matrix(hk, win) - pk @ ph).max(initial=0.0))
        _check(problems, gap <= TOL, f"pi(h*k) != pi(k)pi(h) by {gap:.3e}")
        gap = float(np.abs(K.pi_matrix(K.k_star(k), win) - pk.conj().T).max(initial=0.0))
        _check(problems, gap <= TOL, f"pi(k*) != pi(k)^* by {gap:.3e}")
        st = group.mul(s, t)
        laws = {
            "beta-action": K.norm2(K.beta_act(s, K.beta_act(t, k)) - K.beta_act(st, k)),
            "beta-mul": K.norm2(
                K.beta_act(t, hk) - K.k_mul(K.beta_act(t, h), K.beta_act(t, k))
            ),
            "beta-star": K.norm2(K.beta_act(t, K.k_star(k)) - K.k_star(K.beta_act(t, k))),
            "star-antihom": K.norm2(K.k_star(hk) - K.k_mul(K.k_star(k), K.k_star(h))),
        }
        for law, res in laws.items():
            _check(problems, res <= TOL, f"{law} residual {res:.3e}")
        grow = K.mf_embed_norm(small, small_win) - K.mf_embed_norm(small, win)
        _check(problems, grow <= TOL, f"window norm shrank by {grow:.3e}")
        once = K.cond_expectation_pf(sub, k, win)
        twice = K.cond_expectation_pf(sub, once, win, validate=False)
        _check(problems, K.norm2(once - twice) == 0.0, "expectation not idempotent")
        excess = K.mf_embed_norm(once, win) - K.mf_embed_norm(k, win)
        _check(problems, excess <= 1e-8, f"expectation not contractive by {excess:.3e}")
        return problems

    return Item(f"kernel/{group.label}/{base}/ball{radius}", run)


def kernel_window_round(rng, index, workdir):
    return [_kernel_item(rng, *shape) for shape in WINDOW_SHAPES]


# ---------------------------------------------------------------------------
# envelope
# ---------------------------------------------------------------------------

# (group, base blocks, kept blocks)
ENVELOPE_SHAPES = [
    (Z2, (1,), 1),
    (Z2, (2,), 1),
    (Z3, (1,), 2),
    (Z3, (2,), 2),
    (Z4, (1,), 2),
    (Z4, (2,), 2),
    (Z4, (1, 2), 3),
    (Z5, (1,), 2),
    (Z5, (1,), 3),
    (Z6, (1,), 2),
    (Z6, (1,), 3),
    (S3, (1,), 2),
    (S3, (1, 1), 3),
    (Z3, (1, 2), 3),
    (Z3, (1, 2), 4),
]


def _envelope_item(rng, group, base, kept):
    pa = _action(rng, group, base, kept)

    def run():
        problems: List[str] = []
        glob = A.globalize_finite(pa)
        _check(problems, glob.orbit_rank == glob.algebra_rank, "orbit rank below algebra rank")
        image = sorted(glob.image_blocks)
        reindex = {i: p for p, i in enumerate(image)}
        corr = {j: reindex.get(glob.block_of_input_block[j]) for j in range(pa.algebra.nblocks)}
        restricted = A.restrict_action(glob.action, glob.image_ideal())
        worst = 0.0
        for t in group.elements():
            phi_in = pa.iso(t).phi
            moved = {corr[j]: corr[k] for j, k in phi_in.items()}
            _check(problems, moved == dict(restricted.iso(t).phi), "block correspondence")
            for x in pa.iso(t).source.basis():
                lhs = glob.embed(pa.apply(t, x))
                rhs = glob.action.apply(t, glob.embed(x))
                worst = max(worst, A.op_norm(lhs - rhs))
        _check(problems, worst <= TOL, f"intertwining residual {worst:.3e}")
        unit = max(A.unit_identity_residual(pa), A.unit_identity_residual(restricted))
        _check(problems, unit <= TOL, f"unit identity residual {unit:.3e}")
        return problems

    return Item(f"envelope/{group.label}/{base}/{kept}", run)


def envelope_round(rng, index, workdir):
    return [_envelope_item(rng, *shape) for shape in ENVELOPE_SHAPES]


# ---------------------------------------------------------------------------
# boundary-net
# ---------------------------------------------------------------------------

# One CLI invocation each: ("cuntz-ap", n, imax, target word lengths),
# ("ap-check", n, i, target word lengths), ("groupoid", n, depth, radius).
# Word lengths are shape (they set the cost); the letters are values.
NET_SHAPES = [
    ("cuntz-ap", 2, 4, (1,)),
    ("cuntz-ap", 2, 6, (1, 2)),
    ("cuntz-ap", 2, 8, (2, 1)),
    ("cuntz-ap", 2, 10, (2,)),
    ("cuntz-ap", 3, 6, (1, 2)),
    ("cuntz-ap", 3, 8, (2,)),
    ("cuntz-ap", 3, 12, (1,)),
    ("ap-check", 2, 6, (1, 2)),
    ("ap-check", 2, 8, (1,)),
    ("ap-check", 2, 10, (2,)),
    ("ap-check", 3, 6, (1,)),
    ("groupoid", 2, 2, 1),
    ("groupoid", 2, 3, 1),
    ("groupoid", 2, 4, 2),
    ("groupoid", 3, 2, 1),
]
NET_TOL = 0.5  # above every final |g|/i below, so ap-check passes
NET_CONFIG = {
    "groups": {"f2": {"kind": "free", "rank": 2}, "f3": {"kind": "free", "rank": 3}},
    "algebras": {"c": {"blocks": [1]}},
    "bundles": {
        "b2": {"kind": "group", "group": "f2", "algebra": "c"},
        "b3": {"kind": "group", "group": "f3", "algebra": "c"},
    },
}


def _fval(x) -> str:
    """The CSV's number format, applied to an exact rational."""
    return format(float(x), ".12e")


def _positive_word(rng, n, length):
    return [int(rng.integers(1, n + 1)) for _ in range(length)]


def _arrow_count(n, depth, radius):
    """Arrows of the truncated groupoid, counted from reduced words alone:
    g = a b^-1 acts on depth-d cylinders inside X_b when |b| <= d."""
    total = 0
    for g in G.FreeGroup(n).ball(radius):
        letters = g.data
        split = next((p for p, x in enumerate(letters) if x < 0), len(letters))
        if any(x > 0 for x in letters[split:]):
            continue
        b_len = len(letters) - split
        if b_len <= depth:
            total += n ** (depth - b_len)
    return total


def _net_item(rng, seed, shape, workdir, pos, conf_path):
    kind, n, size, extra = shape
    out = os.path.join(workdir, f"net{pos}.csv")
    head = ["--seed", str(seed), "--out", out]
    words = [_positive_word(rng, n, length) for length in extra] if kind != "groupoid" else []
    if kind == "cuntz-ap":
        text = ",".join("".join("abc"[x - 1] for x in w) for w in words)
        args = head + ["cuntz-ap", "--n", str(n), "--imax", str(size), "--targets", text]
    elif kind == "ap-check":
        text = ",".join(" ".join(map(str, w)) for w in words)
        args = ["--config", conf_path, "--tol", str(NET_TOL)] + head + [
            "ap-check", "--bundle", f"b{n}", "--witness", f"builtin:cuntz:{size}", "--targets", text,
        ]
    else:
        args = head + ["groupoid", "--n", str(n), "--depth", str(size), "--radius", str(extra)]

    def expected_rows():
        if kind == "groupoid":
            return None
        rows = []
        for i in range(1, size + 1):
            for w in words:
                lawful = len(w) <= i
                law = Fraction(len(w), i)
                label = " ".join(map(str, w))
                if kind == "cuntz-ap":
                    pred = law if lawful else -1
                    rows.append([str(i), label, _fval(law) if lawful else None, _fval(pred), _fval(0)])
                else:
                    rows.append([str(i - 1), label, f"1_{label}", _fval(1), _fval(law) if lawful else None])
        return rows

    want = expected_rows()

    def run():
        with contextlib.redirect_stderr(io.StringIO()):  # the one-line summary
            code = cli.main.main(args=args, prog_name="fellap", standalone_mode=False)
        problems: List[str] = []
        _check(problems, code == 0, f"{kind} exit code {code}")
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        if kind == "groupoid":
            count = _arrow_count(n, size, extra)
            _check(problems, len(rows) == count, f"{len(rows)} arrows, expected {count}")
            units = sum(row[-1] == "1" for row in rows)
            _check(problems, units == n**size, f"{units} unit arrows, expected {n**size}")
            return problems
        body = [row[3:] for row in rows]
        _check(problems, len(body) == len(want), f"{len(body)} rows, expected {len(want)}")
        for got, exp in zip(body, want):
            cells = [g for g, x in zip(got, exp) if x is not None]
            ref = [x for x in exp if x is not None]
            if cells != ref:
                problems.append(f"row {got} differs from {exp}")
                break
        return problems

    return Item(f"net/{kind}/n{n}/{size}", run)


def boundary_net_round(rng, index, workdir):
    conf_path = os.path.join(workdir, "net-config.json")
    if not os.path.exists(conf_path):
        with open(conf_path, "w") as fh:
            json.dump(NET_CONFIG, fh)
    seed = int(rng.integers(1000))
    return [
        _net_item(rng, seed, shape, workdir, pos, conf_path)
        for pos, shape in enumerate(NET_SHAPES)
    ]


ROUNDS = {
    "certify-sweep": certify_sweep_round,
    "kernel-window": kernel_window_round,
    "envelope": envelope_round,
    "boundary-net": boundary_net_round,
}
WORKLOAD_IDS = {name: pos for pos, name in enumerate(ROUNDS)}


def build_round(workload: str, seed: int, index: int, workdir: str) -> List[Item]:
    """Inputs of round ``index``; the same (seed, index) gives the same inputs."""
    rng = np.random.default_rng([seed, WORKLOAD_IDS[workload], index])
    return ROUNDS[workload](rng, index, workdir)
