"""Block algebras, ideal isomorphisms, partial actions, globalization.

Frozen oracle facts used below, computed by hand before the implementation:

* Restricting the translation action of Z3 on C+C+C to the coordinate at the
  identity yields domains J_e = J and J_t = 0 otherwise (the orbit of block 0
  under translation leaves {0} immediately).
* Globalizing the trivial partial action of Z3 on C gives N = C^3 with the
  cyclic translation action, and the image sits in a single block.
* The partial action of Z4 on C with domains C at {0, 2} and 0 at {1, 3}
  (alpha_2 = id) globalizes to N = C^2, where the generator swaps the two
  blocks and 2 acts identically; the image is one block.
* A global Z2 action swapping the two blocks of C+C is its own envelope:
  N = C^2 with the swap, image everything, orbit rank 2.
"""

from __future__ import annotations

import time
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fellap.algebra import (
    ActionReport,
    FdAlgebra,
    FdElement,
    Ideal,
    IdealIso,
    PartialAction,
    _inside_masks,
    _masks,
    _units,
    apply_many,
    batch_norms,
    center_basis,
    globalize_finite,
    op_norm,
    op_norms,
    restrict_action,
    split_batch,
    stack_elements,
    translation_action,
    trivial_partial_action,
    unit_identity_residual,
    validate_partial_action,
)
from fellap.groups import FreeGroup, LatticeGroup, cyclic_group, symmetric_group
from fellap.testing import (
    random_block_unitary,
    random_element,
    random_global_action,
    random_infinite_partial_action,
    random_partial_action,
    random_unitary,
)

TOL = 1e-10


def rng_for(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


class TestElementArithmetic:
    def test_norm_matches_numpy(self):
        rng = rng_for(0)
        alg = FdAlgebra([2, 3, 1])
        x = random_element(rng, alg)
        expect = max(np.linalg.norm(m, 2) for m in x.mats)
        assert op_norm(x) == pytest.approx(expect, abs=0)

    def test_zero_algebra_norm(self):
        assert op_norm(FdAlgebra([]).zero()) == 0.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_cstar_identity(self, seed):
        rng = rng_for(seed)
        alg = FdAlgebra([2, 1])
        x = random_element(rng, alg)
        assert op_norm(x.star() * x) == pytest.approx(op_norm(x) ** 2, rel=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_star_antimultiplicative(self, seed):
        rng = rng_for(seed)
        alg = FdAlgebra([3])
        x, y = random_element(rng, alg), random_element(rng, alg)
        assert op_norm((x * y).star() - y.star() * x.star()) <= 1e-12

    def test_center_basis(self):
        alg = FdAlgebra([2, 3])
        ps = center_basis(alg)
        one = alg.zero()
        for p in ps:
            one = one + p
        assert op_norm(one - alg.one()) == 0.0
        x = random_element(rng_for(3), alg)
        for p in ps:
            assert op_norm(p * x - x * p) <= 1e-14


class TestIdealsAndIsos:
    def test_unit_and_projection(self):
        alg = FdAlgebra([2, 2, 1])
        J = Ideal(alg, [0, 2])
        x = random_element(rng_for(1), alg)
        px = J.project(x)
        assert J.contains(px)
        assert not J.contains(x, tol=1e-6)
        assert op_norm(J.unit() * x - px) <= 1e-14

    def test_iso_roundtrip_and_composition(self):
        rng = rng_for(2)
        alg = FdAlgebra([2, 2])
        full = alg.full_ideal()
        u0, u1 = random_unitary(rng, 2), random_unitary(rng, 2)
        iso = IdealIso(full, full, {0: 1, 1: 0}, {0: u0, 1: u1})
        x = random_element(rng, alg)
        back = iso.inverse().apply(iso.apply(x))
        assert op_norm(back - x) <= 1e-12
        there = iso.apply(iso.inverse().apply(x))
        assert op_norm(there - x) <= 1e-12

    def test_map_distance_ignores_phase(self):
        rng = rng_for(4)
        alg = FdAlgebra([3])
        full = alg.full_ideal()
        u = random_unitary(rng, 3)
        a = IdealIso(full, full, {0: 0}, {0: u})
        b = IdealIso(full, full, {0: 0}, {0: np.exp(1.7j) * u})
        assert a.map_distance(b) <= 1e-12
        c = IdealIso(full, full, {0: 0}, {0: random_unitary(rng, 3)})
        assert a.map_distance(c) > 0.1

    def test_dimension_mismatch_rejected(self):
        alg = FdAlgebra([1, 2])
        with pytest.raises(ValueError):
            IdealIso(
                Ideal(alg, [0]),
                Ideal(alg, [1]),
                {0: 1},
                {0: np.eye(1, dtype=complex)},
            )

    def test_unitaries_must_sit_on_the_source_blocks(self):
        """A unitary for a block outside phi, even one the algebra does not
        have, is refused, and a missing one is a ValueError, not a KeyError."""
        alg = FdAlgebra([1, 1])
        full, one = alg.full_ideal(), np.eye(1, dtype=complex)
        phi = {0: 1, 1: 0}
        for unis, says in (
            ({0: one, 1: one, 5: 2 * one}, r"outside the source blocks, at \[5\]"),
            ({0: one}, "no entry 1"),
        ):
            with pytest.raises(ValueError, match=says):
                IdealIso(full, full, phi, unis)
        first = Ideal(alg, [0])
        with pytest.raises(ValueError, match="outside the source blocks"):
            IdealIso(first, first, {0: 0}, {0: one, 1: one})

    def test_ideal_blocks_must_exist(self):
        alg = FdAlgebra([1, 2, 1])
        for blocks in ([-1], [0, 3], [2, 7, 1]):
            with pytest.raises(ValueError, match="block index out of range"):
                Ideal(alg, blocks)
        assert Ideal(alg, []).block_set == frozenset()
        assert Ideal(alg, (np.int64(j) for j in (2, 0))).block_set == frozenset({0, 2})


# Blocks of sizes 1, 2, 3 and 5: several size classes, and both ways
# IdealIso.apply conjugates a class (through the Kronecker matrix, and by
# two matrix products).
MIXED = FdAlgebra([2, 1, 5, 2, 1, 3])


def unit_by_blocks(alg: FdAlgebra, blocks) -> FdElement:
    """The unit of the ideal on ``blocks``, written block by block into zero."""
    x = alg.zero()
    for j in blocks:
        x.mats[j][...] = np.eye(alg.blocks[j])
    return x


def batch_bytes(batch) -> list:
    return [(p.shape, p.tobytes()) for p in batch]


class TestUnits:
    """``_units``, the one place where units are made, against units
    written block by block and against stacked ``Ideal.unit()``; every unit
    is an exact 0/1 matrix, so the bytes agree."""

    @pytest.mark.parametrize("blocks", [MIXED.blocks, (2, 2, 1), (3,), ()])
    def test_units_of_ideals(self, blocks):
        alg = FdAlgebra(blocks)
        rng = rng_for(81)
        ideals = [alg.zero_ideal(), alg.full_ideal(), alg.zero_ideal()]
        ideals += [Ideal(alg, np.flatnonzero(rng.random(alg.nblocks) < 0.5)) for _ in range(8)]
        for some in (ideals, ideals[:1], ideals[2:3], []):
            got = batch_bytes(_units(alg, _masks(alg, some)))
            assert got == batch_bytes(stack_elements(alg, [ideal.unit() for ideal in some]))
            written = [unit_by_blocks(alg, ideal.block_set) for ideal in some]
            assert got == batch_bytes(stack_elements(alg, written))

    @pytest.mark.parametrize("blocks", [MIXED.blocks, (1,), ()])
    def test_one_and_center_basis(self, blocks):
        alg = FdAlgebra(blocks)
        whole = unit_by_blocks(alg, range(alg.nblocks))
        assert batch_bytes(alg.one().packs) == batch_bytes(whole.packs)
        basis = center_basis(alg)
        assert len(basis) == alg.nblocks
        for j, p in enumerate(basis):
            assert batch_bytes(p.packs) == batch_bytes(unit_by_blocks(alg, [j]).packs)

    def test_random_element_draws_block_by_block(self):
        """``random_element`` is ``scale * algebra.gaussian(rng)``: the
        draws and values, sign bits included, of the former loop over the
        blocks."""

        def loop(rng, algebra, scale):
            mats = []
            for d in algebra.blocks:
                mats.append(scale * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))))
            return FdElement(algebra, mats)

        for alg in (MIXED, FdAlgebra([1]), FdAlgebra([3, 3]), FdAlgebra([])):
            for scale in (1.0, 0.5, -2.0):
                for seed in range(20):
                    rng, ref = rng_for(seed), rng_for(seed)
                    got, want = random_element(rng, alg, scale), loop(ref, alg, scale)
                    assert batch_bytes(got.packs) == batch_bytes(want.packs)
                    assert rng.bit_generator.state == ref.bit_generator.state


class TestPackedArithmetic:
    """Blocks stored packed by size class, against block-by-block numpy."""

    def test_products_and_adjoints_match_blockwise(self):
        rng = rng_for(60)
        x, y = random_element(rng, MIXED), random_element(rng, MIXED)
        for got, want in (
            (x * y, [a @ b for a, b in zip(x.mats, y.mats)]),
            (x - 2.0 * y, [a - 2.0 * b for a, b in zip(x.mats, y.mats)]),
            (x.star(), [a.conj().T for a in x.mats]),
        ):
            for g, w in zip(got.mats, want):
                np.testing.assert_allclose(g, w, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("blocks", [[2], [1, 2, 1, 3, 2, 1]], ids=["one-class", "multi-class"])
    def test_inside_masks_are_the_stacked_ideal_masks(self, blocks):
        alg = FdAlgebra(blocks)
        rng = rng_for(62)
        zero, whole = Ideal(alg, []), Ideal(alg, range(alg.nblocks))
        mixed = [Ideal(alg, np.flatnonzero(rng.random(alg.nblocks) < 0.5)) for _ in range(6)]
        for ideals in ([], [zero], [zero, zero], [whole, zero] + mixed):
            for c, mem in enumerate(alg.members):
                got = _inside_masks(ideals, c, len(mem))
                stacked = np.array([i._by_class[c][0] for i in ideals], dtype=bool)
                by_set = [[j in i.block_set for j in mem] for i in ideals]
                for want in (stacked, np.array(by_set, dtype=bool)):
                    want = want.reshape(-1, len(mem), 1, 1)
                    assert got.dtype == want.dtype and got.shape == want.shape
                    assert got.tobytes() == want.tobytes()

    def test_iso_apply_matches_blockwise_conjugation(self):
        rng = rng_for(61)
        partial = {0: 3, 2: 2, 4: 1}
        swap = {0: 3, 3: 0, 1: 4, 4: 1, 2: 2, 5: 5}
        for phi in (partial, swap):
            unis = {j: random_unitary(rng, MIXED.blocks[j]) for j in phi}
            iso = IdealIso(Ideal(MIXED, phi), Ideal(MIXED, phi.values()), phi, unis)
            x = random_element(rng, MIXED)
            got = iso.apply(x)
            for k, d in enumerate(MIXED.blocks):
                want = np.zeros((d, d), dtype=complex)
                for j in phi:
                    if phi[j] == k:
                        want = unis[j] @ x.mats[j] @ unis[j].conj().T
                np.testing.assert_allclose(got.mats[k], want, rtol=0, atol=1e-13)
            assert iso.inverse() is iso.inverse()
            assert iso.inverse().inverse() is iso
            assert op_norm(iso.inverse().apply(got) - iso.source.project(x)) <= 1e-13

    def test_batched_norms_match_blockwise(self):
        rng = rng_for(62)
        xs = [random_element(rng, MIXED) for _ in range(5)]
        assert op_norms(xs) == [max(np.linalg.norm(m, 2) for m in x.mats) for x in xs]
        assert op_norms([]) == []

    def test_batched_norms_match_the_scatter_reference(self):
        """Laying the live-block norms out densely and taking the row
        maximum gives what ``np.maximum.at`` over the live blocks gave, bit
        for bit: whole zero terms, classes with some blocks zero, and a NaN
        block, which stays NaN."""

        def reference(batch, m):
            out = np.zeros(m)
            for p in batch:
                if p.shape[-1] == 1:
                    np.maximum(out, np.abs(p).max(axis=(1, 2, 3), initial=0.0), out=out)
                    continue
                live = p.any(axis=(-2, -1))
                if live.all():
                    np.maximum(out, np.linalg.svd(p, compute_uv=False).max(axis=(1, 2)), out=out)
                elif live.any():
                    s = np.linalg.svd(p[live], compute_uv=False)
                    with np.errstate(invalid="ignore"):  # a NaN already in out
                        np.maximum.at(out, np.nonzero(live)[0], s.max(axis=1))
            return out

        rng = rng_for(67)
        xs = [random_element(rng, MIXED) for _ in range(9)]
        xs[1] = MIXED.zero()
        for k, x in enumerate(xs[2:7], 2):
            for j in range(MIXED.nblocks):
                if (j + k) % 3:
                    x.mats[j][...] = np.zeros_like(x.mats[j])
        xs[7].mats[1][0, 0] = np.nan  # a 1 x 1 block: an SVD refuses NaN
        batch = stack_elements(MIXED, xs)
        live = [p.any(axis=(-2, -1)) for p in batch]
        assert any(not v.all() and v.any() for v, p in zip(live, batch) if p.shape[-1] > 1)
        got = batch_norms(batch, len(xs))
        np.testing.assert_array_equal(got, reference(batch, len(xs)))
        assert got[1] == 0.0 and np.isnan(got[7])

    def test_block_writes_change_the_element(self):
        x = MIXED.zero()
        x.mats[2][1, 3] = 1.0
        x.mats[5][...] = 2.0 * np.eye(3)
        assert x.mats[2][1, 3] == 1.0
        assert np.array_equal(x.mats[5], 2.0 * np.eye(3))
        assert op_norm(x) == 2.0
        assert all(not m.any() for j, m in enumerate(x.mats) if j not in (2, 5))

    def test_draws_match_blockwise_loop(self):
        a, b = rng_for(63), rng_for(63)
        x = MIXED.gaussian(a)
        want = [b.normal(size=(d, d)) + 1j * b.normal(size=(d, d)) for d in MIXED.blocks]
        assert all(np.array_equal(g, w) for g, w in zip(x.mats, want))
        u = random_block_unitary(a, MIXED)
        want = [random_unitary(b, d) for d in MIXED.blocks]
        assert all(np.array_equal(g, w) for g, w in zip(u.mats, want))
        assert a.normal() == b.normal()

    @pytest.mark.parametrize("blocks", [MIXED.blocks, ()])
    def test_gaussian_many_draws_what_successive_calls_draw(self, blocks):
        alg = FdAlgebra(blocks)
        a, b = rng_for(64), rng_for(64)
        got = split_batch(alg, alg.gaussian_many(a, 7), 7)
        want = [alg.gaussian(b) for _ in range(7)]
        for g, w in zip(got, want):
            assert all(np.array_equal(p, q) for p, q in zip(g.packs, w.packs))
        assert a.normal() == b.normal()

    def test_batches_round_trip(self):
        rng = rng_for(65)
        xs = [random_element(rng, MIXED) for _ in range(4)]
        batch = stack_elements(MIXED, xs)
        assert [p.shape for p in batch] == [(4, 2, 1, 1), (4, 2, 2, 2), (4, 1, 3, 3), (4, 1, 5, 5)]
        for x, y in zip(xs, split_batch(MIXED, batch, 4)):
            assert all(np.array_equal(p, q) for p, q in zip(x.packs, y.packs))
        assert [p.shape[0] for p in stack_elements(MIXED, [])] == [0, 0, 0, 0]
        assert split_batch(FdAlgebra([]), stack_elements(FdAlgebra([]), []), 2)[1].packs == ()

    def test_apply_many_matches_apply_term_by_term(self):
        rng = rng_for(66)
        maps = ({0: 3, 2: 2, 4: 1}, {0: 3, 3: 0, 1: 4, 4: 1, 2: 2, 5: 5}, {}, {5: 5})
        isos = []
        for phi in maps:
            unis = {j: random_unitary(rng, MIXED.blocks[j]) for j in phi}
            isos.append(IdealIso(Ideal(MIXED, phi), Ideal(MIXED, phi.values()), phi, unis))
        xs = [random_element(rng, MIXED) for _ in range(9)]
        slot = [1, 0, 3, 2, 0, 0, 1, 3, 2]
        batch = stack_elements(MIXED, xs)
        for got in (
            apply_many(isos, batch, slot),
            apply_many([isos[k] for k in slot], batch),
        ):
            for k, x, y in zip(slot, xs, split_batch(MIXED, got, len(xs))):
                assert op_norm(y - isos[k].apply(x)) <= 1e-13
        for iso in isos:
            one = split_batch(MIXED, apply_many([iso], batch, [0] * len(xs)), len(xs))
            assert max(op_norm(y - iso.apply(x)) for x, y in zip(xs, one)) <= 1e-13


class TestValidation:
    def test_random_fixtures_pass(self):
        for seed in range(6):
            pa = random_partial_action(rng_for(seed))
            rep = validate_partial_action(pa)
            assert rep.passed, rep.render()
            assert unit_identity_residual(pa) <= TOL

    def test_trivial_action_passes(self):
        pa = trivial_partial_action(cyclic_group(5), FdAlgebra([2, 1]))
        assert validate_partial_action(pa).passed

    def test_broken_composition_flagged(self):
        z2 = cyclic_group(2)
        alg = FdAlgebra([2, 2])
        full = alg.full_ideal()
        x_mat = np.array([[0, 1], [1, 0]], dtype=complex)
        eye = np.eye(2, dtype=complex)
        bad = IdealIso(full, full, {0: 1, 1: 0}, {0: x_mat, 1: eye})
        pa = PartialAction(
            z2, alg, {z2.identity: IdealIso.identity_on(full), z2.elem(1): bad}
        )
        rep = validate_partial_action(pa)
        assert not rep.passed
        axioms = {a for a, _, _ in rep.rows}
        assert "composition-map" in axioms
        assert "inverse-map" in axioms

    def test_nonunitary_flagged(self):
        rng = rng_for(7)
        glob = random_global_action(rng, cyclic_group(3), [2])
        t0 = glob.group.elem(1)
        iso = glob.iso(t0)
        bad = IdealIso(
            iso.source,
            iso.target,
            dict(iso.phi),
            {j: 1.1 * u for j, u in iso.unitaries.items()},
        )
        pa = PartialAction(
            glob.group, glob.algebra, lambda t: bad if t == t0 else glob.iso(t)
        )
        rep = validate_partial_action(pa)
        assert not rep.passed
        assert "unitarity" in {a for a, _, _ in rep.rows}

    def test_report_keeps_its_worst_check(self):
        rep = ActionReport()
        assert rep.worst is None
        rep.add("a", "x", 1e-14, 1e-10)
        rep.add("b", "y", 3e-12, 1e-10)
        rep.add("c", "z", 2e-12, 1e-10)
        assert rep.passed and rep.max_residual == 0.0
        assert rep.worst == ("b", "y", 3e-12)
        assert rep.render() == "pass (3 checks)"
        rep.add("d", "w", 0.5, 1e-10)
        assert rep.worst == ("d", "w", 0.5) and rep.max_residual == 0.5
        rep.add("e", "v", float("nan"), 1e-10)
        rep.add("f", "u", 7.0, 1e-10)
        assert rep.worst[:2] == ("e", "v") and rep.checked == 6

    def test_passing_validation_reports_its_margin(self):
        rep = validate_partial_action(random_partial_action(rng_for(3)))
        axiom, context, residual = rep.worst
        assert rep.passed and 0.0 < residual <= TOL
        assert (axiom, context) != ("", "")

    def test_infinite_group_pullbacks_validate(self):
        f2 = FreeGroup(2)
        z2lat = LatticeGroup(2)
        for seed, grp in [(11, f2), (12, z2lat), (13, f2)]:
            pa = random_infinite_partial_action(rng_for(seed), grp)
            rep = validate_partial_action(pa, window=2)
            assert rep.passed, rep.render()


class TestRestriction:
    def test_z3_coordinate_restriction_is_trivial(self):
        z3 = cyclic_group(3)
        pa = translation_action(z3, FdAlgebra([1]))
        res = restrict_action(pa, Ideal(pa.algebra, [0]))
        assert res.algebra.blocks == (1,)
        assert dict(res.iso(z3.identity).phi) == {0: 0}
        for k in (1, 2):
            assert dict(res.iso(z3.elem(k)).phi) == {}
        assert validate_partial_action(res).passed

    def test_restriction_to_full_ideal_is_identity(self):
        pa = random_partial_action(rng_for(21))
        res = restrict_action(pa, pa.algebra.full_ideal())
        for t in pa.group.elements():
            assert res.iso(t).map_distance(pa.iso(t)) <= 1e-13

    def test_iterated_restriction(self):
        glob = random_global_action(rng_for(22), cyclic_group(4), [1, 1])
        amb = glob.algebra
        y_blocks = [1, 2, 5, 6]
        once = restrict_action(glob, Ideal(amb, y_blocks))
        # blocks 1 and 5 of the ambient are positions 0 and 2 after sorting Y
        twice = restrict_action(once, Ideal(once.algebra, [0, 2]))
        direct = restrict_action(glob, Ideal(amb, [1, 5]))
        for t in glob.group.elements():
            assert twice.iso(t).map_distance(direct.iso(t)) <= 1e-13

    def test_restricted_actions_keep_unit_identity(self):
        for seed in range(23, 27):
            pa = random_partial_action(rng_for(seed))
            assert unit_identity_residual(pa) <= TOL


def assert_round_trip(pa: PartialAction, glob, tol: float = TOL) -> None:
    """The envelope restricted to the embedded image reproduces the input.

    Block indices must transport exactly through the embedding; the maps
    themselves must intertwine within ``tol``.
    """
    g = pa.group
    sorted_img = sorted(glob.image_blocks)
    reindex = {i: p for p, i in enumerate(sorted_img)}
    corr = {
        j: reindex[glob.block_of_input_block[j]] for j in range(pa.algebra.nblocks)
    }
    restricted = restrict_action(glob.action, glob.image_ideal())
    for t in g.elements():
        phi_in = pa.iso(t).phi
        transported = {corr[j]: corr[k] for j, k in phi_in.items()}
        assert transported == dict(restricted.iso(t).phi)
        for x in pa.iso(t).source.basis():
            lhs = glob.embed(pa.apply(t, x))
            rhs = glob.action.apply(t, glob.embed(x))
            assert op_norm(lhs - rhs) <= tol


class TestGlobalization:
    def test_trivial_z3_envelope_is_c3(self):
        z3 = cyclic_group(3)
        pa = trivial_partial_action(z3, FdAlgebra([1]))
        glob = globalize_finite(pa)
        assert glob.algebra.blocks == (1, 1, 1)
        assert len(glob.image_blocks) == 1
        assert glob.orbit_spans_all
        gen_phi = glob.action.iso(z3.elem(1)).phi
        assert all(gen_phi[i] != i for i in gen_phi)  # fixed-point-free 3-cycle
        assert_round_trip(pa, glob)

    def test_subgroup_z2_in_z4(self):
        z4 = cyclic_group(4)
        alg = FdAlgebra([1])
        full = alg.full_ideal()
        zero = alg.zero_ideal()
        ident = IdealIso.identity_on(full)
        znone = IdealIso(zero, zero, {}, {})
        pa = PartialAction(
            z4,
            alg,
            {
                z4.elem(0): ident,
                z4.elem(1): znone,
                z4.elem(2): ident,
                z4.elem(3): znone,
            },
        )
        assert validate_partial_action(pa).passed
        glob = globalize_finite(pa)
        assert glob.algebra.blocks == (1, 1)
        assert len(glob.image_blocks) == 1
        assert dict(glob.action.iso(z4.elem(1)).phi) == {0: 1, 1: 0}
        assert dict(glob.action.iso(z4.elem(2)).phi) == {0: 0, 1: 1}
        assert glob.orbit_spans_all
        assert_round_trip(pa, glob)

    def test_global_swap_is_its_own_envelope(self):
        z2 = cyclic_group(2)
        pa = translation_action(z2, FdAlgebra([1]))
        glob = globalize_finite(pa)
        assert glob.algebra.blocks == (1, 1)
        assert glob.image_blocks == frozenset({0, 1})
        assert dict(glob.action.iso(z2.elem(1)).phi) == {0: 1, 1: 0}
        assert glob.orbit_rank == 2
        assert_round_trip(pa, glob)

    def test_random_round_trips(self):
        for seed in range(40, 50):
            pa = random_partial_action(rng_for(seed))
            glob = globalize_finite(pa)
            assert glob.orbit_spans_all
            assert glob.structure_residual <= 1e-8
            assert validate_partial_action(glob.action).passed
            assert_round_trip(pa, glob)
            # minimality: the translates of the image cover every block
            reached = {
                glob.action.iso(s).phi[i]
                for s in pa.group.elements()
                for i in glob.image_blocks
            }
            assert reached == set(range(glob.algebra.nblocks))

    def assert_large_envelope(self, pa: PartialAction) -> None:
        start = time.perf_counter()
        glob = globalize_finite(pa)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        assert glob.orbit_spans_all
        assert validate_partial_action(glob.action).passed
        assert_round_trip(pa, glob)

    def test_z12_with_24_input_blocks(self):
        full = random_global_action(rng_for(0), cyclic_group(12), (1, 1, 1, 1))
        pa = restrict_action(full, Ideal(full.algebra, range(0, 48, 2)))
        assert pa.algebra.nblocks == 24
        self.assert_large_envelope(pa)

    def test_s4_with_base_1_2(self):
        pa = random_partial_action(
            rng_for(0), symmetric_group(4), (1, 2), max_kept_blocks=None
        )
        self.assert_large_envelope(pa)

    def test_envelope_action_is_global(self):
        pa = random_partial_action(rng_for(51))
        glob = globalize_finite(pa)
        full = frozenset(range(glob.algebra.nblocks))
        for t in pa.group.elements():
            assert frozenset(glob.action.iso(t).phi) == full


def envelope_signature(pa: PartialAction, glob) -> tuple:
    """The combinatorial shape of an envelope, as plain ints: block sizes,
    image blocks, the input-block correspondence and every block map."""
    phis = tuple(
        tuple(sorted((int(j), int(k)) for j, k in glob.action.iso(t).phi.items()))
        for t in pa.group.elements()
    )
    return (
        tuple(glob.algebra.blocks),
        tuple(sorted(int(i) for i in glob.image_blocks)),
        tuple(sorted((int(j), int(k)) for j, k in glob.block_of_input_block.items())),
        phis,
    )


class TestGlobalizationCharacterization:
    """Envelope block indices and permutations, pinned from the numerical
    block-recovery construction over criterion 2's 200 fixtures, so any
    construction of the envelope must reproduce them exactly."""

    def test_envelope_signatures_over_200_fixtures(self):
        sigs = []
        for seed in range(200):
            pa = random_partial_action(rng_for(seed))
            sigs.append(envelope_signature(pa, globalize_finite(pa)))
        assert sum(len(s[0]) for s in sigs) == 1118
        assert sigs[2] == (
            (1, 1, 1, 1, 1, 1),
            (4, 5),
            ((0, 5), (1, 4)),
            (
                ((0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (5, 5)),
                ((0, 2), (1, 3), (2, 0), (3, 1), (4, 5), (5, 4)),
                ((0, 1), (1, 0), (2, 4), (3, 5), (4, 2), (5, 3)),
                ((0, 4), (1, 5), (2, 1), (3, 0), (4, 3), (5, 2)),
                ((0, 3), (1, 2), (2, 5), (3, 4), (4, 0), (5, 1)),
                ((0, 5), (1, 4), (2, 3), (3, 2), (4, 1), (5, 0)),
            ),
        )
        assert zlib.crc32(repr(sigs).encode()) == 2021197800
