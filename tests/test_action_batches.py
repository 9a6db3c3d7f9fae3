"""Batched action checks and the partial-action layer against their
references.

``pair_unit_identity_residual``, ``block_unitarity_residual`` and
``list_embed`` are the per-pair unit law, the per-block unitarity residual
and the list-based envelope embedding that the batched routes of
``fellap.algebra`` replaced, kept here as independent routes. The batched
routes must give the same values bit for bit: ``==`` on every residual,
``np.array_equal`` on every embedded block.

``ref_translation_action``, ``ref_conjugate_action`` and
``ref_restrict_action`` build the fixture chain block by block, with a
fresh identity per block and w's blocks read per iso; ``ref_envelope_isos``
is the envelope's block maps made through group-element arithmetic, and
``ref_plan`` an iso plan filled move by move. The library's isos must be
the same bit for bit: phi in the same order, every unitary with the same
bytes (the envelope's the very object of the input action), and every
plan stack the same bytes.

The chunk tests cut the unit law into several chunks by patching its term
budget and count the batched calls; the large case (Z64 acting on 64 blocks,
4096 pairs) checks that the chunks bound memory and that the batched route
is not slower than the reference.
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np
import pytest

from fellap import algebra, bundles, testing
from fellap.algebra import (
    ActionReport,
    FdAlgebra,
    batch_norms,
    conjugate_action,
    FdElement,
    Ideal,
    IdealIso,
    PartialAction,
    globalize_finite,
    op_norm,
    restrict_action,
    stack_elements,
    translation_action,
    trivial_partial_action,
    unit_identity_residual,
    unitarity_residuals,
    validate_partial_action,
)
from fellap.bundles import TwistedBundle, validate_bundle, validate_twist
from fellap.groups import (
    FreeGroup,
    LatticeGroup,
    UnsupportedGroupError,
    cyclic_group,
    symmetric_group,
)
from fellap.testing import (
    random_block_unitary,
    random_element,
    random_fell_bundle,
    random_global_action,
    random_infinite_partial_action,
    random_partial_action,
)


def pair_unit_identity_residual(pa: PartialAction, elements=None) -> float:
    """The per-pair unit law: one ``op_norm`` per (t, s)."""
    g = pa.group
    if elements is None:
        if not g.is_finite:
            raise UnsupportedGroupError("provide a window for infinite groups")
        elements = g.ball(0)
    res = 0.0
    def unit(t):
        return pa.iso(t).target.unit()

    for t in elements:
        u_tinv = unit(g.inv(t))
        for s in elements:
            lhs = pa.apply(t, u_tinv * unit(s))
            rhs = unit(t) * unit(g.mul(t, s))
            res = max(res, op_norm(lhs - rhs))
    return res


def block_unitarity_residual(iso: IdealIso) -> float:
    """The per-block unitarity residual: one ``np.linalg.norm`` per block."""
    res = 0.0
    for j, u in iso.unitaries.items():
        d = u.shape[0]
        res = max(res, float(np.linalg.norm(u.conj().T @ u - np.eye(d), ord=2)))
    return res


def list_embed(glob, x: FdElement) -> FdElement:
    """The list-based embedding: a block list, then a checked element."""
    n_alg, block_of = glob.algebra, glob.block_of_input_block
    mats = [np.zeros((d, d), dtype=complex) for d in n_alg.blocks]
    for j, m in enumerate(x.mats):
        mats[block_of[j]] = m
    return FdElement(n_alg, mats)


def unitarity_rows(monkeypatch, run) -> list[tuple[str, float]]:
    """The (context, residual) of every unitarity row ``run`` reports."""
    rows = []
    add = ActionReport.add

    def traced(self, axiom, context, residual, tol):
        if axiom == "unitarity":
            rows.append((context, residual))
        add(self, axiom, context, residual, tol)

    with monkeypatch.context() as m:
        m.setattr(ActionReport, "add", traced)
        run()
    return rows


def assert_same_embedding(glob, x: FdElement) -> None:
    got, want = glob.embed(x), list_embed(glob, x)
    assert got.algebra == want.algebra
    assert len(got.packs) == len(want.packs)
    assert all(np.array_equal(p, q) for p, q in zip(got.packs, want.packs))


def assert_same_action_checks(monkeypatch, pa: PartialAction, elements=None, window=2) -> None:
    """Unit law and unitarity rows of ``validate_partial_action`` equal the
    references."""
    assert unit_identity_residual(pa, elements) == pair_unit_identity_residual(pa, elements)
    g = pa.group
    rows = unitarity_rows(monkeypatch, lambda: validate_partial_action(pa, window=window))
    ball = g.ball(window)
    assert rows == [(g.format_elem(t), block_unitarity_residual(pa.iso(t))) for t in ball]


def assert_same_envelope(pa: PartialAction, rng: np.random.Generator) -> None:
    """Structure residual and embedding of ``pa``'s envelope, and the unit law
    of the restricted envelope, equal the references."""
    glob = globalize_finite(pa)
    isos = [glob.action.iso(t) for t in pa.group.elements()]
    assert glob.structure_residual == max(block_unitarity_residual(iso) for iso in isos)
    assert unitarity_residuals(isos) == [block_unitarity_residual(iso) for iso in isos]
    for x in (pa.algebra.gaussian(rng), pa.algebra.one(), pa.algebra.zero()):
        assert_same_embedding(glob, x)
    restricted = restrict_action(glob.action, glob.image_ideal())
    assert unit_identity_residual(restricted) == pair_unit_identity_residual(restricted)


def z4_with_empty_domains() -> PartialAction:
    """Z4 on C acting by the identity at 0 and 2, with zero domains at 1 and 3."""
    z4 = cyclic_group(4)
    alg = FdAlgebra([1])
    ident = IdealIso.identity_on(alg.full_ideal())
    zero = alg.zero_ideal()
    none = IdealIso(zero, zero, {}, {})
    return PartialAction(z4, alg, {z4.elem(k): ident if k % 2 == 0 else none for k in range(4)})


class TestReferenceRoutes:
    def test_criterion_2_fixtures(self, monkeypatch):
        for seed in range(200):
            pa = random_partial_action(np.random.default_rng(seed))
            assert_same_action_checks(monkeypatch, pa)
            assert_same_envelope(pa, np.random.default_rng(1000 + seed))

    @pytest.mark.parametrize("group", [FreeGroup(2), LatticeGroup(1)], ids=["F2", "Z"])
    def test_infinite_pullbacks_on_ball_2(self, monkeypatch, group):
        ball = group.ball(2)
        for seed in range(30):
            pa = random_infinite_partial_action(np.random.default_rng(seed), group)
            assert_same_action_checks(monkeypatch, pa, elements=ball)

    def test_trivial_and_empty_domains(self, monkeypatch):
        rng = np.random.default_rng(5)
        for pa in (
            trivial_partial_action(cyclic_group(3), FdAlgebra([1, 2])),
            trivial_partial_action(cyclic_group(5), FdAlgebra([3])),
            z4_with_empty_domains(),
        ):
            assert_same_action_checks(monkeypatch, pa)
            assert_same_envelope(pa, rng)
        zero = trivial_partial_action(cyclic_group(3), FdAlgebra([]))
        assert_same_action_checks(monkeypatch, zero)
        assert unit_identity_residual(zero) == 0.0

    def test_twist_unitarity_rows(self, monkeypatch):
        for seed, group in enumerate([cyclic_group(3), FreeGroup(2), LatticeGroup(1)] * 2):
            bundle, _ = random_fell_bundle(np.random.default_rng(seed), group, "matrix-twist")
            family = bundle.family
            rows = unitarity_rows(monkeypatch, lambda: validate_twist(family, bundle.twist, 1))
            want = [block_unitarity_residual(family.iso(s)) for s in group.ball(1)]
            assert rows == list(zip(map(group.format_elem, group.ball(1)), want))

    def test_embed_refuses_other_algebras(self):
        pa = random_partial_action(np.random.default_rng(3))
        glob = globalize_finite(pa)
        other = FdAlgebra(pa.algebra.blocks + (1,))
        with pytest.raises(ValueError):
            glob.embed(other.one())
        # an equal algebra made apart is the same algebra
        assert_same_embedding(glob, FdAlgebra(pa.algebra.blocks).one())


class TestBatchNorms:
    def test_zero_blocks_read_as_zero_without_an_svd(self, monkeypatch):
        """``batch_norms`` skips exactly-zero blocks; every norm is still the
        largest ``np.linalg.norm(block, 2)``, and 0.0 for a zero term."""
        rng = np.random.default_rng(8)
        alg = FdAlgebra([1, 2, 2, 3, 1, 3])
        xs = []
        for k in range(12):
            x = random_element(rng, alg)
            for j in range(alg.nblocks):
                if (k + j) % 3 == 0 or k % 4 == 0:
                    x.mats[j] = np.zeros_like(x.mats[j])
            xs.append(x)
        want = [max(float(np.linalg.norm(m, 2)) for m in x.mats) for x in xs]
        assert 0.0 in want
        assert batch_norms(stack_elements(alg, xs), len(xs)).tolist() == want
        svd = counting(monkeypatch, np.linalg, "svd")
        zeros = stack_elements(alg, [alg.zero()] * 3)
        assert batch_norms(zeros, 3).tolist() == [0.0] * 3 and not svd


def counting(monkeypatch, module, name) -> list:
    """Count the calls of ``module.name``; the list grows by one per call."""
    calls = []
    fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: calls.append(1) or fn(*a, **k))
    return calls


class TestChunks:
    @pytest.mark.parametrize("budget", [1, 7])
    def test_chunked_unit_law_equals_one_chunk(self, monkeypatch, budget):
        cases = [(random_partial_action(np.random.default_rng(s)), None) for s in range(6)]
        for seed in range(3):
            group = FreeGroup(2) if seed % 2 == 0 else LatticeGroup(1)
            pa = random_infinite_partial_action(np.random.default_rng(40 + seed), group)
            cases.append((pa, group.ball(2)))
        for pa, elements in cases:
            n = len(elements if elements is not None else pa.group.elements())
            with monkeypatch.context() as m:
                norms = counting(m, algebra, "batch_norms")
                whole = unit_identity_residual(pa, elements)
            assert len(norms) == 1
            with monkeypatch.context() as m:
                m.setattr(algebra, "_TERM_BUDGET", budget)
                norms = counting(m, algebra, "batch_norms")
                cut = unit_identity_residual(pa, elements)
            # one row per chunk once a row reaches the budget
            assert len(norms) == (n if n >= budget else -(-n // (budget // n)))
            assert cut == whole

    def test_bundle_budget_still_splits_validate_bundle(self, monkeypatch):
        bundle = random_fell_bundle(np.random.default_rng(3), FreeGroup(2), "matrix-twist")[0]
        with monkeypatch.context() as m:
            muls = counting(m, TwistedBundle, "mul_many")
            whole = validate_bundle(bundle, window=1, samples=2, seed=4)
        assert len(muls) == 3  # two per chunk, one for the last pass
        with monkeypatch.context() as m:
            m.setattr(bundles, "_TERM_BUDGET", 20)
            muls = counting(m, TwistedBundle, "mul_many")
            cut = validate_bundle(bundle, window=1, samples=2, seed=4)
        assert len(muls) == 2 * 3 + 1  # five passes of 10 terms, two to a chunk
        assert (cut.checked, cut.rows, cut.worst) == (whole.checked, whole.rows, whole.worst)

    def test_large_translation_action(self):
        """4096 pairs: eight chunks of 512, the reference's value, no slower
        than the reference, and a bounded allocation peak."""
        pa = translation_action(cyclic_group(64), FdAlgebra((2,)))
        for t in pa.group.elements():  # build every iso and plan up front
            pa.iso(t)._plan
        start = time.perf_counter()
        want = pair_unit_identity_residual(pa)
        reference_s = time.perf_counter() - start
        start = time.perf_counter()
        got = unit_identity_residual(pa)
        batched_s = time.perf_counter() - start
        assert got == want == 0.0
        assert batched_s <= reference_s
        tracemalloc.start()
        try:
            unit_identity_residual(pa)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20


def ref_translation_action(group, base: FdAlgebra) -> PartialAction:
    """``translation_action`` block by block, a fresh identity per block."""
    n, nb = group.order, base.nblocks
    alg = FdAlgebra(base.blocks * n)
    full = alg.full_ideal()

    def fn(s):
        phi, unis = {}, {}
        for t in range(n):
            shifted = group.table[s.data][t]
            for j in range(nb):
                phi[t * nb + j] = shifted * nb + j
                unis[t * nb + j] = np.eye(base.blocks[j], dtype=complex)
        return IdealIso(full, full, phi, unis)

    return PartialAction(group, alg, fn)


def ref_conjugate_action(pa: PartialAction, w: FdElement) -> PartialAction:
    """``conjugate_action`` reading w's blocks anew for every block."""

    def conjugated(iso):
        unis = {
            j: w.mats[iso.phi[j]] @ iso.unitaries[j] @ w.mats[j].conj().T for j in iso.phi
        }
        return IdealIso(iso.source, iso.target, dict(iso.phi), unis)

    return PartialAction.batched(
        pa.group, pa.algebra, lambda ts: [conjugated(iso) for iso in pa.isos(ts)]
    )


def ref_restrict_action(pa: PartialAction, J: Ideal) -> PartialAction:
    """``restrict_action`` listing the kept blocks first."""
    old_blocks = sorted(J.block_set)
    new_index = {j: i for i, j in enumerate(old_blocks)}
    sub = FdAlgebra([pa.algebra.blocks[j] for j in old_blocks])

    def restricted(iso):
        kept = [j for j in iso.phi if j in J.block_set and iso.phi[j] in J.block_set]
        phi = {new_index[j]: new_index[iso.phi[j]] for j in kept}
        unis = {new_index[j]: iso.unitaries[j] for j in kept}
        return IdealIso(Ideal(sub, phi.keys()), Ideal(sub, phi.values()), phi, unis)

    return PartialAction.batched(
        pa.group, sub, lambda ts: [restricted(iso) for iso in pa.isos(ts)]
    )


def ref_envelope_isos(pa: PartialAction) -> dict:
    """(phi, unitaries) of every envelope iso, by the construction of
    ``globalize_finite`` run on group elements (``mul``, ``inv`` and
    ``pa.iso``) instead of table positions."""
    g, A = pa.group, pa.algebra
    els, nb, e = g.elements(), A.nblocks, g.identity
    pos = {t: i for i, t in enumerate(els)}
    K = [[] for _ in range(nb)]
    for t in els:
        for j, k in pa.iso(t).phi.items():
            K[j].append((pos[g.inv(t)], k))
    class_of, reps, lowest = {}, [], []
    for r in [e] + [t for t in els if t != e]:
        for j in range(nb):
            if (pos[r], j) in class_of:
                continue
            members = [(pos[g.mul(r, els[p])], k) for p, k in K[j]]
            for m in members:
                class_of[m] = len(reps)
            reps.append((r, j))
            lowest.append(min(p * nb + k for p, k in members))
    order = sorted(range(len(reps)), key=lambda c: (A.blocks[reps[c][1]], -lowest[c]))
    index = {c: i for i, c in enumerate(order)}
    out = {}
    for s in els:
        phi, unis = {}, {}
        for i, c in enumerate(order):
            r, j = reps[c]
            sr = g.mul(s, r)
            target = class_of[(pos[sr], j)]
            phi[i] = index[target]
            unis[i] = pa.iso(g.mul(g.inv(reps[target][0]), sr)).unitaries[j]
        out[s] = (phi, unis)
    return out


def ref_plan(iso: IdealIso) -> tuple:
    """``IdealIso._plan`` filled move by move into preallocated stacks; the
    Kronecker matrices of Ad(U) come from the same ``np.einsum``."""
    alg = iso.algebra
    plan = []
    for d, mem in zip(alg.sizes, alg.members):
        moves = [(alg.where[iso.phi[j]][1], p, j) for p, j in enumerate(mem) if j in iso.phi]
        if not moves:
            plan.append(None)
            continue
        n = len(mem)
        gather = np.full(n, n)
        u = np.zeros((n, d, d), dtype=complex)
        for q, p, j in moves:
            gather[q] = p
            u[q] = iso.unitaries[j]
        if d <= algebra._KRON_MAX:
            u = np.einsum("nik,njl->nijkl", u, u.conj()).reshape(n, d * d, d * d)
        plan.append((gather, u, len(moves) < n))
    return tuple(plan)


def same_bits(a: IdealIso, b: IdealIso) -> bool:
    """Equal ideals, phi in the same order, and unitaries of equal bytes."""
    return (
        a.source == b.source
        and a.target == b.target
        and list(a.phi.items()) == list(b.phi.items())
        and list(a.unitaries) == list(b.unitaries)
        and all(
            a.unitaries[j].dtype == b.unitaries[j].dtype
            and a.unitaries[j].tobytes() == b.unitaries[j].tobytes()
            for j in a.phi
        )
    )


def same_plan(got: tuple, want: tuple) -> bool:
    """Equal plans: the same gathers, pads and conjugation stack bytes."""
    return len(got) == len(want) and all(
        (x is None and y is None)
        or (
            x is not None
            and y is not None
            and x[0].dtype == y[0].dtype
            and np.array_equal(x[0], y[0])
            and x[1].shape == y[1].shape
            and x[1].tobytes() == y[1].tobytes()
            and x[2] == y[2]
        )
        for x, y in zip(got, want)
    )


def through_references(monkeypatch, make):
    """``make()`` with ``fellap.testing`` building its chains by the
    reference constructors."""
    with monkeypatch.context() as m:
        m.setattr(testing, "translation_action", ref_translation_action)
        m.setattr(testing, "conjugate_action", ref_conjugate_action)
        m.setattr(testing, "restrict_action", ref_restrict_action)
        return make()


def assert_chain_matches(monkeypatch, make) -> None:
    """The isos of ``make()``'s action, its envelope and the restricted
    envelope, and the plans of them all, equal the reference routes'."""
    pa, want = make(), through_references(monkeypatch, make)
    els = pa.group.elements()
    isos = pa.isos(els)
    assert all(same_bits(a, b) for a, b in zip(isos, want.isos(els)))
    glob = globalize_finite(pa)
    envelope = glob.action.isos(els)
    ref_envelope = ref_envelope_isos(pa)
    for s, iso in zip(els, envelope):
        phi, unis = ref_envelope[s]
        assert list(iso.phi.items()) == list(phi.items())
        assert list(iso.unitaries) == list(unis)
        assert all(iso.unitaries[i] is unis[i] for i in unis)
    image = glob.image_ideal()
    restricted = restrict_action(glob.action, image).isos(els)
    want = ref_restrict_action(glob.action, image).isos(els)
    assert all(same_bits(a, b) for a, b in zip(restricted, want))
    assert all(same_plan(iso._plan, ref_plan(iso)) for iso in isos + envelope + restricted)


# The shapes of the benchmark's envelope workload: (group, base blocks,
# most blocks kept).
ENVELOPE_SHAPES = [
    (cyclic_group(m), base, kept)
    for m, base, kept in [
        (2, (1,), 1), (2, (2,), 1), (3, (1,), 2), (3, (2,), 2), (4, (1,), 2),
        (4, (2,), 2), (4, (1, 2), 3), (5, (1,), 2), (5, (1,), 3), (6, (1,), 2),
        (6, (1,), 3), (3, (1, 2), 3), (3, (1, 2), 4),
    ]
] + [(symmetric_group(3), (1,), 2), (symmetric_group(3), (1, 1), 3)]


class TestChainReferences:
    def test_criterion_2_fixtures(self, monkeypatch):
        for seed in range(200):
            for fixture in (random_global_action, random_partial_action):
                assert_chain_matches(monkeypatch, lambda: fixture(np.random.default_rng(seed)))

    @pytest.mark.parametrize(
        "group, base, kept",
        ENVELOPE_SHAPES,
        ids=[f"{g.label}-{'+'.join(map(str, b))}-{k}" for g, b, k in ENVELOPE_SHAPES],
    )
    def test_envelope_shapes(self, monkeypatch, group, base, kept):
        for seed in range(4):
            rng = lambda: np.random.default_rng(100 + seed)
            assert_chain_matches(
                monkeypatch, lambda: random_partial_action(rng(), group, base, kept)
            )

    def test_conjugating_a_partial_action(self):
        """Unitaries other than the identity, so the order of the two
        products in a conjugated unitary shows."""
        for seed in range(20):
            rng = np.random.default_rng(seed)
            pa = random_partial_action(rng)
            w = random_block_unitary(rng, pa.algebra)
            els = pa.group.elements()
            got = conjugate_action(pa, w).isos(els)
            want = ref_conjugate_action(pa, w).isos(els)
            assert all(same_bits(a, b) for a, b in zip(got, want))

    def test_translation_shares_one_identity_per_base_block(self):
        base = FdAlgebra([1, 2])
        pa = translation_action(cyclic_group(3), base)
        unis = [u for t in pa.group.elements() for u in pa.iso(t).unitaries.values()]
        assert len({id(u) for u in unis}) == base.nblocks
        assert all(np.array_equal(u, np.eye(len(u))) for u in unis)


class TestPlanPins:
    """Iso plans equal the einsum formula bit for bit (the fixtures' plans
    in ``TestChainReferences``). A Kronecker matrix made by a broadcast
    multiply instead differs in the last bit on most stacks, and would move
    residuals the criteria print."""

    def test_mixed_sizes_partial_and_empty(self):
        """Classes of sizes 1, 2, 3 (Kronecker) and 5 (two products), isos
        defined on some blocks of a class, none, or all."""
        rng = np.random.default_rng(64)
        alg = FdAlgebra([2, 1, 5, 2, 1, 3])
        w = random_block_unitary(rng, alg)
        for phi in ({0: 3, 2: 2, 4: 1}, {0: 3, 3: 0, 1: 4, 4: 1, 2: 2, 5: 5}, {1: 4}, {}):
            unis = {j: w.mats[j] for j in phi}
            iso = IdealIso(Ideal(alg, phi), Ideal(alg, phi.values()), phi, unis)
            assert same_plan(iso._plan, ref_plan(iso))
