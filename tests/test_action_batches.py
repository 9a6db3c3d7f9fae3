"""Batched action checks against their references.

``pair_unit_identity_residual``, ``block_unitarity_residual`` and
``list_embed`` are the per-pair unit law, the per-block unitarity residual
and the list-based envelope embedding that the batched routes of
``fellap.algebra`` replaced, kept here as independent routes. The batched
routes must give the same values bit for bit: ``==`` on every residual,
``np.array_equal`` on every embedded block.

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

from fellap import algebra, bundles
from fellap.algebra import (
    ActionReport,
    FdAlgebra,
    batch_norms,
    FdElement,
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
from fellap.groups import FreeGroup, LatticeGroup, UnsupportedGroupError, cyclic_group
from fellap.testing import (
    random_element,
    random_fell_bundle,
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
    for t in elements:
        u_tinv = pa.unit(g.inv(t))
        for s in elements:
            lhs = pa.apply(t, u_tinv * pa.unit(s))
            rhs = pa.unit(t) * pa.unit(g.mul(t, s))
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
