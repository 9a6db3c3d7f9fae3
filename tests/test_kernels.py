"""Kernel algebra tests.

Frozen oracles, fixed by hand expansion of the defining sums before the
implementation existed:

* Star law.  With (h * k)(r, s) = sum_t k(r, t) h(t, s) and
  k*(r, s) = k(s, r)*, expanding termwise gives

      (h * k)*(r, s) = sum_t h(t, r)* k(s, t)* = (k* * h*)(r, s),

  so the pinned identity is k_star(k_mul(h, k)) == k_mul(k_star(k), k_star(h)),
  and the opposite order k_mul(k_star(h), k_star(k)) must fail generically.

* Representation reversal.  (pi(k) f)(s) = sum_t k(s, t) f(t) yields
  pi(h * k) = pi(k) pi(h) (product reversing) and pi(k*) = pi(k) adjoint.

* Scalar fixture over the rank one lattice, window [0, -1, 1]:
  entries k(0,0) = 1, k(0,-1) = 2, k(1,1) = 3i represent as the matrix
  [[1, 2, 0], [0, 0, 0], [0, 0, 3i]] whose operator norm is exactly 3.

* Rank one composition.  k_mul(k_{mu,nu}, k_{xi,eta}) = rank_one(xi.<eta,mu>, nu):
  the middle sum collapses to <eta, mu> = sum_t eta(t)* mu(t).

* Single entry b in the fiber over t, placed at position (t, e): the
  windowed norm equals the fiber norm of b exactly, because the unit of
  the e-fiber realizes the supremum.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fellap.algebra import FdAlgebra
from fellap.bundles import (
    Section,
    fiber_norm,
    full_sub_bundle,
    group_bundle,
    make_semidirect,
    mask_sub_bundle,
    subgroup_sub_bundle,
    trace_sub_bundle,
)
from fellap.groups import LatticeGroup, cyclic_group
from fellap.kernels import (
    Kernel,
    Window,
    beta_act,
    cond_expectation_pf,
    k_mul,
    k_star,
    mf_dim,
    mf_embed_norm,
    norm2,
    pi_matrix,
    rank_one,
    section_vector,
    to_mf,
    window_rep,
)
from fellap.testing import (
    matrix_twist,
    random_fell_bundle,
    random_global_action,
    random_kernel,
    random_section,
)

from test_bundles import _ScaledBundle, _WrongInverseBundle

TOL = 1e-10
# bundles per window radius compared with the dense route
SEEDS = {1: 40, 2: 20}


def kdist(a: Kernel, b: Kernel) -> float:
    return norm2(a - b)


def scalar(alg: FdAlgebra, v: complex):
    return alg.element([np.array([[v]])])


def lattice_line_bundle():
    return group_bundle(LatticeGroup(1), FdAlgebra([1]))


def bundle_with_window(seed: int, radius: int = 1):
    rng = np.random.default_rng(seed)
    bundle, _ = random_fell_bundle(rng)
    return rng, bundle, Window.ball(bundle.group, radius)


class DenseWindowRep:
    """Reference route to the windowed representation: a Gram matrix and eigh.

    For each slot t it forms the Gram matrix of the tensors b (x) e_i, over
    the matrix units b of the fiber at t and the standard basis of C^V,
    under <x (x) v, y (x) w> = <v, (x* y) w>.  An orthonormal basis of the
    range (eigenvalues above a relative cutoff) gives the slot its
    coordinates, and kernels and sections are expressed in them.  Nothing
    here uses the unit sections of ``window_rep``, so the two routes check
    each other: they agree on every basis-free quantity.
    """

    def __init__(self, bundle, window):
        self.bundle = bundle
        self.window = window
        g = bundle.group
        alg = bundle.coeff_algebra
        self.vdim = sum(alg.blocks)
        self.fiber_basis = {}
        self.onb_maps = {}
        self.gram_onb = {}
        self.qdims = {}
        for t in window:
            basis = bundle.fiber_ideal(t).basis()
            n = len(basis)
            self.fiber_basis[t] = basis
            gram = np.zeros((n * self.vdim, n * self.vdim), dtype=complex)
            for a_idx, ba in enumerate(basis):
                ba_star = bundle.star(t, ba)
                for b_idx, bb in enumerate(basis):
                    inner = bundle.mul(g.inv(t), ba_star, t, bb)
                    gram[
                        a_idx * self.vdim : (a_idx + 1) * self.vdim,
                        b_idx * self.vdim : (b_idx + 1) * self.vdim,
                    ] = self.block_rep(inner)
            gram = 0.5 * (gram + gram.conj().T)
            vals, vecs = np.linalg.eigh(gram)
            keep = vals > max(float(vals.max(initial=0.0)) * 1e-12, 1e-14)
            w = vecs[:, keep] / np.sqrt(vals[keep])
            self.onb_maps[t] = w
            self.gram_onb[t] = gram @ w
            self.qdims[t] = int(keep.sum())
        self.offsets = {}
        at = 0
        for t in window:
            self.offsets[t] = at
            at += self.qdims[t]
        self.dim = at

    def block_rep(self, x):
        out = np.zeros((self.vdim, self.vdim), dtype=complex)
        at = 0
        for m in x.mats:
            d = m.shape[0]
            out[at : at + d, at : at + d] = m
            at += d
        return out

    def fiber_coords(self, t, x):
        """Coordinates of a fiber element in the matrix unit basis order."""
        blocks = sorted(self.bundle.fiber_ideal(t).block_set)
        return np.concatenate([np.zeros(0, dtype=complex)] + [x.mats[j].ravel() for j in blocks])

    def matrix(self, k):
        g = self.bundle.group
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for (s, t), a in k.data.items():
            ns, nt = len(self.fiber_basis[s]), len(self.fiber_basis[t])
            if self.qdims[s] == 0 or self.qdims[t] == 0:
                continue
            st = g.mul(s, g.inv(t))
            tmat = np.zeros((ns, nt), dtype=complex)
            for col, bt in enumerate(self.fiber_basis[t]):
                tmat[:, col] = self.fiber_coords(s, self.bundle.mul(st, a, t, bt))
            w_t = self.onb_maps[t].reshape(nt, self.vdim, self.qdims[t])
            moved = np.einsum("ab,bvq->avq", tmat, w_t).reshape(ns * self.vdim, self.qdims[t])
            r0, c0 = self.offsets[s], self.offsets[t]
            out[r0 : r0 + self.qdims[s], c0 : c0 + self.qdims[t]] += (
                self.gram_onb[s].conj().T @ moved
            )
        return out

    def section_vector(self, f, v):
        out = np.zeros(self.dim, dtype=complex)
        for t, a in f.data.items():
            if self.qdims[t] == 0:
                continue
            raw = np.kron(self.fiber_coords(t, a), v)
            r0 = self.offsets[t]
            out[r0 : r0 + self.qdims[t]] = self.gram_onb[t].conj().T @ raw
        return out


class TestWindows:
    def test_ball_order_is_deterministic(self):
        g = LatticeGroup(1)
        w = Window.ball(g, 1)
        assert [x.data for x in w] == [(0,), (-1,), (1,)]
        assert w.index(g.vector([1])) == 2
        assert g.vector([2]) not in w

    def test_repeats_rejected(self):
        g = cyclic_group(3)
        with pytest.raises(ValueError):
            Window(g, [g.elem(0), g.elem(1), g.elem(0)])

    def test_covers(self):
        g = LatticeGroup(1)
        assert Window.ball(g, 2).covers(Window.ball(g, 1))
        assert not Window.ball(g, 1).covers(Window.ball(g, 2))


class TestWindowRepCache:
    def test_rep_is_reused_for_the_same_window(self):
        bundle = group_bundle(cyclic_group(3), FdAlgebra([1]))
        w = Window.ball(bundle.group, 1)
        assert window_rep(bundle, w) is window_rep(bundle, Window.ball(bundle.group, 1))

    def test_bundle_is_freed_after_its_rep_was_built(self):
        bundle = group_bundle(cyclic_group(3), FdAlgebra([1]))
        window_rep(bundle, Window.ball(bundle.group, 1))
        ref = weakref.ref(bundle)
        del bundle
        gc.collect()
        assert ref() is None


class TestExactWindowRep:
    """The unit-section representation agrees with the dense Gram route."""

    @pytest.mark.parametrize("radius", [1, 2])
    def test_agrees_with_dense_gram_route(self, radius):
        for seed in range(SEEDS[radius]):
            rng, bundle, w = bundle_with_window(seed, radius)
            dense = DenseWindowRep(bundle, w)
            rep = window_rep(bundle, w)
            assert {t: len(rep.coords[t]) for t in w} == dense.qdims
            k = random_kernel(rng, bundle, w)
            f = random_section(rng, bundle, w.elements)
            h = random_section(rng, bundle, w.elements)
            v = rng.standard_normal(rep.vdim) + 1j * rng.standard_normal(rep.vdim)
            u = rng.standard_normal(rep.vdim) + 1j * rng.standard_normal(rep.vdim)
            fv, hu = section_vector(f, w, v), section_vector(h, w, u)
            dfv, dhu = dense.section_vector(f, v), dense.section_vector(h, u)
            dk = dense.matrix(k)
            assert abs(np.vdot(fv, pi_matrix(k, w) @ hu) - np.vdot(dfv, dk @ dhu)) <= TOL
            assert abs(np.vdot(fv, hu) - np.vdot(dfv, dhu)) <= TOL
            assert abs(mf_embed_norm(k, w) - np.linalg.norm(dk, 2)) <= TOL


class TestStarProductLaw:
    """The pinned composition law for the involution."""

    @given(st.integers(0, 40))
    @settings(max_examples=15, deadline=None)
    def test_star_of_product(self, seed):
        rng, bundle, w = bundle_with_window(seed)
        h = random_kernel(rng, bundle, w)
        k = random_kernel(rng, bundle, w)
        lhs = k_star(k_mul(h, k))
        rhs = k_mul(k_star(k), k_star(h))
        assert kdist(lhs, rhs) <= TOL

    def test_opposite_order_fails(self):
        rng = np.random.default_rng(3)
        bundle = group_bundle(cyclic_group(2), FdAlgebra([2]))
        w = Window.ball(bundle.group, 1)
        h = random_kernel(rng, bundle, w, max_entries=4)
        k = random_kernel(rng, bundle, w, max_entries=4)
        lhs = k_star(k_mul(h, k))
        wrong = k_mul(k_star(h), k_star(k))
        assert kdist(lhs, wrong) > 1e-3

    def test_broken_products_break_the_laws(self):
        """Bundles whose ``mul`` is deliberately wrong keep it in batched
        kernel products, so the kernel laws fail for them."""
        glob = random_global_action(np.random.default_rng(11), cyclic_group(3), [2])
        family, twist = matrix_twist(glob, salt=11)
        pa = random_global_action(np.random.default_rng(12), cyclic_group(3))
        wrong = _WrongInverseBundle(family, twist)
        for bad in (wrong, _ScaledBundle(pa, make_semidirect(pa).twist)):
            rng = np.random.default_rng(5)
            w = Window.ball(bad.group, 1)
            a, b, c = (random_kernel(rng, bad, w, max_entries=6) for _ in range(3))
            assert kdist(k_mul(k_mul(a, b), c), k_mul(a, k_mul(b, c))) > 1e-3
            assert kdist(k_star(k_mul(a, b)), k_mul(k_star(b), k_star(a))) > 1e-3

    def test_star_involutive_and_antilinear(self):
        rng, bundle, w = bundle_with_window(11)
        k = random_kernel(rng, bundle, w)
        assert kdist(k_star(k_star(k)), k) <= TOL
        assert kdist(k_star(2j * k), np.conj(2j) * k_star(k)) <= TOL

    def test_product_associative(self):
        rng, bundle, w = bundle_with_window(12)
        a = random_kernel(rng, bundle, w)
        b = random_kernel(rng, bundle, w)
        c = random_kernel(rng, bundle, w)
        assert kdist(k_mul(k_mul(a, b), c), k_mul(a, k_mul(b, c))) <= TOL

    def test_diagonal_unit_is_two_sided_unit(self):
        rng, bundle, w = bundle_with_window(13)
        one = Kernel.diagonal_unit(bundle, w)
        k = random_kernel(rng, bundle, w)
        assert kdist(k_mul(one, k), k) <= TOL
        assert kdist(k_mul(k, one), k) <= TOL


class TestRepresentation:
    """pi reverses products, preserves stars, and is linear."""

    @given(st.integers(0, 40))
    @settings(max_examples=12, deadline=None)
    def test_product_reversal(self, seed):
        rng, bundle, w = bundle_with_window(seed)
        h = random_kernel(rng, bundle, w)
        k = random_kernel(rng, bundle, w)
        lhs = pi_matrix(k_mul(h, k), w)
        rhs = pi_matrix(k, w) @ pi_matrix(h, w)
        assert np.abs(lhs - rhs).max(initial=0.0) <= TOL

    def test_reversal_direction_is_sharp(self):
        rng = np.random.default_rng(5)
        bundle = group_bundle(cyclic_group(3), FdAlgebra([2]))
        w = Window.ball(bundle.group, 1)
        h = random_kernel(rng, bundle, w, max_entries=5)
        k = random_kernel(rng, bundle, w, max_entries=5)
        lhs = pi_matrix(k_mul(h, k), w)
        wrong = pi_matrix(h, w) @ pi_matrix(k, w)
        assert np.abs(lhs - wrong).max(initial=0.0) > 1e-3

    @given(st.integers(0, 40))
    @settings(max_examples=12, deadline=None)
    def test_adjoint(self, seed):
        rng, bundle, w = bundle_with_window(seed)
        k = random_kernel(rng, bundle, w)
        lhs = pi_matrix(k_star(k), w)
        rhs = pi_matrix(k, w).conj().T
        assert np.abs(lhs - rhs).max(initial=0.0) <= TOL

    def test_linear(self):
        rng, bundle, w = bundle_with_window(21)
        h = random_kernel(rng, bundle, w)
        k = random_kernel(rng, bundle, w)
        lhs = pi_matrix(h + (1 - 2j) * k, w)
        rhs = pi_matrix(h, w) + (1 - 2j) * pi_matrix(k, w)
        assert np.abs(lhs - rhs).max(initial=0.0) <= TOL

    def test_section_action_matches(self):
        rng, bundle, w = bundle_with_window(22)
        k = random_kernel(rng, bundle, w)
        f = random_section(rng, bundle, w.elements)
        v = rng.standard_normal(sum(bundle.coeff_algebra.blocks)) + 0j
        g = bundle.group
        applied = Section(
            bundle,
            {
                s: sum(
                    (
                        bundle.mul(g.mul(s, g.inv(t)), k.value(s, t), t, f.value(t))
                        for t in w
                    ),
                    bundle.coeff_algebra.zero(),
                )
                for s in w
            },
        )
        lhs = pi_matrix(k, w) @ section_vector(f, w, v)
        rhs = section_vector(applied, w, v)
        assert np.abs(lhs - rhs).max(initial=0.0) <= TOL


class TestScalarLatticeFixture:
    """Frozen numeric values over the rank one lattice with scalar fibers."""

    def fixture(self):
        bundle = lattice_line_bundle()
        g = bundle.group
        alg = bundle.coeff_algebra
        w = Window.ball(g, 1)
        z, m, p = g.vector([0]), g.vector([-1]), g.vector([1])
        k = Kernel(
            bundle,
            {
                (z, z): scalar(alg, 1.0),
                (z, m): scalar(alg, 2.0),
                (p, p): scalar(alg, 3j),
            },
        )
        return bundle, w, k

    def test_matrix_entries(self):
        _, w, k = self.fixture()
        mat = pi_matrix(k, w)
        expected = np.array([[1, 2, 0], [0, 0, 0], [0, 0, 3j]], dtype=complex)
        assert np.abs(mat - expected).max() <= 1e-12

    def test_norm_is_three(self):
        _, w, k = self.fixture()
        assert abs(mf_embed_norm(k, w) - 3.0) <= 1e-12

    def test_norm2_value(self):
        _, _, k = self.fixture()
        assert abs(norm2(k) - np.sqrt(1 + 4 + 9)) <= 1e-12


class TestNorm2AndBeta:
    def test_zero_and_single_entry(self):
        rng, bundle, w = bundle_with_window(31)
        assert norm2(Kernel.zero(bundle)) == 0.0
        k = random_kernel(rng, bundle, w, max_entries=1)
        ((s, t),) = k.support()
        g = bundle.group
        a = k.value(s, t)
        assert abs(norm2(k) - fiber_norm(bundle, g.mul(s, g.inv(t)), a)) <= TOL

    @given(st.integers(0, 30))
    @settings(max_examples=10, deadline=None)
    def test_triangle(self, seed):
        rng, bundle, w = bundle_with_window(seed)
        h = random_kernel(rng, bundle, w)
        k = random_kernel(rng, bundle, w)
        assert norm2(h + k) <= norm2(h) + norm2(k) + TOL

    def test_beta_identity(self):
        rng, bundle, w = bundle_with_window(32)
        k = random_kernel(rng, bundle, w)
        moved = beta_act(bundle.group.identity, k)
        assert moved.support() == k.support()
        assert kdist(moved, k) == 0.0

    @given(st.integers(0, 40))
    @settings(max_examples=12, deadline=None)
    def test_beta_compose_exactly(self, seed):
        rng, bundle, w = bundle_with_window(seed)
        g = bundle.group
        elems = list(w.elements)
        s = elems[int(rng.integers(len(elems)))]
        t = elems[int(rng.integers(len(elems)))]
        k = random_kernel(rng, bundle, w)
        two_step = beta_act(s, beta_act(t, k))
        one_step = beta_act(g.mul(s, t), k)
        assert two_step.support() == one_step.support()
        assert kdist(two_step, one_step) == 0.0

    def test_beta_preserves_norm2_exactly(self):
        rng, bundle, w = bundle_with_window(33)
        k = random_kernel(rng, bundle, w)
        t = w.elements[-1]
        assert norm2(beta_act(t, k)) == norm2(k)

    @given(st.integers(0, 40))
    @settings(max_examples=10, deadline=None)
    def test_beta_star_automorphism(self, seed):
        rng, bundle, w = bundle_with_window(seed)
        t = w.elements[int(rng.integers(len(w)))]
        h = random_kernel(rng, bundle, w)
        k = random_kernel(rng, bundle, w)
        assert kdist(beta_act(t, k_mul(h, k)), k_mul(beta_act(t, h), beta_act(t, k))) <= TOL
        assert kdist(beta_act(t, k_star(k)), k_star(beta_act(t, k))) <= TOL

    def test_beta_norm_on_group_bundle(self):
        # Constant fibers keep the translated representation unitarily
        # equivalent, so the windowed norm matches across translation.
        rng = np.random.default_rng(7)
        bundle = group_bundle(cyclic_group(4), FdAlgebra([2]))
        w = Window.ball(bundle.group, 1)
        k = random_kernel(rng, bundle, w, max_entries=5)
        t = bundle.group.elem(3)
        assert abs(mf_embed_norm(beta_act(t, k), w) - mf_embed_norm(k, w)) <= TOL


class TestRankOne:
    def test_self_adjoint(self):
        rng, bundle, w = bundle_with_window(41)
        xi = random_section(rng, bundle, w.elements)
        k = rank_one(xi, xi)
        assert kdist(k_star(k), k) <= TOL

    @given(st.integers(0, 40))
    @settings(max_examples=10, deadline=None)
    def test_composition_law(self, seed):
        rng, bundle, w = bundle_with_window(seed)
        xi = random_section(rng, bundle, w.elements)
        eta = random_section(rng, bundle, w.elements)
        mu = random_section(rng, bundle, w.elements)
        nu = random_section(rng, bundle, w.elements)
        product = k_mul(rank_one(mu, nu), rank_one(xi, eta))
        collapsed = rank_one(xi.right_mul(eta.inner(mu)), nu)
        assert kdist(product, collapsed) <= TOL
        lhs = pi_matrix(rank_one(xi, eta), w) @ pi_matrix(rank_one(mu, nu), w)
        rhs = pi_matrix(collapsed, w)
        assert np.abs(lhs - rhs).max(initial=0.0) <= TOL

    def test_pi_action_is_inner_product(self):
        rng, bundle, w = bundle_with_window(42)
        xi = random_section(rng, bundle, w.elements)
        eta = random_section(rng, bundle, w.elements)
        f = random_section(rng, bundle, w.elements)
        v = rng.standard_normal(sum(bundle.coeff_algebra.blocks)) + 0j
        lhs = pi_matrix(rank_one(xi, eta), w) @ section_vector(f, w, v)
        rhs = section_vector(xi.right_mul(eta.inner(f)), w, v)
        assert np.abs(lhs - rhs).max(initial=0.0) <= TOL


class TestMatrixWindow:
    def test_diagonal_unit_norm_one(self):
        for seed in (51, 52, 53):
            _, bundle, w = bundle_with_window(seed)
            one = Kernel.diagonal_unit(bundle, w)
            assert abs(mf_embed_norm(one, w) - 1.0) <= TOL

    def test_single_entry_corner_norm(self):
        for seed in (54, 55, 56, 57):
            rng, bundle, w = bundle_with_window(seed)
            g = bundle.group
            e = g.identity
            t = w.elements[-1]
            fib = bundle.fiber_ideal(t)
            if fib.dim() == 0:
                continue
            from fellap.testing import random_element

            b = fib.project(random_element(rng, bundle.coeff_algebra))
            k = Kernel.single(bundle, t, e, b)
            assert abs(mf_embed_norm(k, w) - fiber_norm(bundle, t, b)) <= TOL

    def test_single_entry_general_position_bounded(self):
        for seed in (58, 59, 60):
            rng, bundle, w = bundle_with_window(seed)
            k = random_kernel(rng, bundle, w, max_entries=1)
            if not k.support():
                continue
            ((s, t),) = k.support()
            g = bundle.group
            b = k.value(s, t)
            assert mf_embed_norm(k, w) <= fiber_norm(bundle, g.mul(s, g.inv(t)), b) + TOL
            return
        raise AssertionError("no nonempty single-entry kernel found")

    def test_block_dual_route(self):
        # Constant matrix fibers: the windowed algebra is a plain block
        # matrix algebra, so numpy gives an independent norm.
        rng = np.random.default_rng(9)
        bundle = group_bundle(cyclic_group(2), FdAlgebra([2]))
        w = Window.ball(bundle.group, 1)
        k = random_kernel(rng, bundle, w, max_entries=4)
        big = np.block([[k.value(s, t).mats[0] for t in w] for s in w])
        assert abs(mf_embed_norm(k, w) - np.linalg.norm(big, 2)) <= TOL

    def test_monotone_under_nesting(self):
        for seed in (61, 62, 63, 64, 65):
            rng, bundle, w1 = bundle_with_window(seed, radius=1)
            w2 = Window.ball(bundle.group, 2)
            k = random_kernel(rng, bundle, w1)
            assert mf_embed_norm(k, w1) <= mf_embed_norm(k, w2) + TOL

    def test_to_mf_shape_and_error(self):
        rng, bundle, w = bundle_with_window(66)
        k = random_kernel(rng, bundle, w)
        mat = to_mf(k, w)
        assert len(mat) == len(w) and all(len(row) == len(w) for row in mat)
        g = bundle.group
        outside = Window(g, [g.identity])
        if any(pair != (g.identity, g.identity) for pair in k.support()):
            with pytest.raises(ValueError):
                to_mf(k, outside)

    def test_product_support_closure(self):
        rng, bundle, w = bundle_with_window(67)
        h = random_kernel(rng, bundle, w)
        k = random_kernel(rng, bundle, w)
        rows = {r for (r, _) in k.support()}
        cols = {c for (_, c) in h.support()}
        assert all(r in rows and c in cols for (r, c) in k_mul(h, k).support())

    def test_mf_dim_group_bundle(self):
        bundle = group_bundle(cyclic_group(2), FdAlgebra([1]))
        w = Window.ball(bundle.group, 1)
        assert mf_dim(bundle, w) == 4

    def test_entry_outside_fiber_rejected(self):
        bundle, _ = random_fell_bundle(np.random.default_rng(68), flavor="semidirect")
        g = bundle.group
        alg = bundle.coeff_algebra
        w = Window.ball(g, 1)
        for t in w:
            fib = bundle.fiber_ideal(t)
            if fib.dim() < alg.dim:
                with pytest.raises(ValueError):
                    Kernel.single(bundle, t, g.identity, alg.one())
                return

    def test_nan_entry_is_kept(self):
        """An entry is dropped only when it is exactly zero; a NaN entry
        is not zero and must stay visible."""
        bundle = group_bundle(cyclic_group(3), FdAlgebra([1, 2]))
        e = bundle.group.identity
        x = bundle.coeff_algebra.zero()
        x.mats[1][0, 1] = np.nan
        k = Kernel.single(bundle, e, e, x)
        assert k.support() == {(e, e)}
        assert np.isnan(k.value(e, e).mats[1][0, 1])
        assert Kernel.single(bundle, e, e, bundle.coeff_algebra.zero()).support() == set()


class TestCondExpectation:
    def test_identity_expectation(self):
        rng, bundle, w = bundle_with_window(71)
        k = random_kernel(rng, bundle, w)
        out = cond_expectation_pf(full_sub_bundle(bundle), k, w)
        assert kdist(out, k) <= TOL

    def test_unit_fiber_expectation_kills_off_diagonal(self):
        bundle = group_bundle(cyclic_group(2), FdAlgebra([1]))
        g = bundle.group
        alg = bundle.coeff_algebra
        w = Window.ball(g, 1)
        e, u = g.elem(0), g.elem(1)
        k = Kernel(
            bundle,
            {
                (e, e): scalar(alg, 1.0),
                (e, u): scalar(alg, 2.0),
                (u, e): scalar(alg, 3.0),
                (u, u): scalar(alg, 4.0),
            },
        )
        sub = subgroup_sub_bundle(bundle, lambda t: t.data == 0)
        out = cond_expectation_pf(sub, k, w)
        assert out.support() == {(e, e), (u, u)}
        assert abs(mf_embed_norm(out, w) - 4.0) <= 1e-12
        assert mf_embed_norm(out, w) <= mf_embed_norm(k, w) + 1e-8

    def test_idempotent_and_contractive(self):
        rng = np.random.default_rng(72)
        bundle = group_bundle(cyclic_group(2), FdAlgebra([2]))
        w = Window.ball(bundle.group, 1)
        mask = [np.eye(2)]
        fixtures = [
            full_sub_bundle(bundle),
            subgroup_sub_bundle(bundle, lambda t: t.data == 0),
            mask_sub_bundle(bundle, mask),
            trace_sub_bundle(bundle, lambda t: t.data == 0),
        ]
        for sub in fixtures:
            for _ in range(5):
                k = random_kernel(rng, bundle, w, max_entries=4)
                once = cond_expectation_pf(sub, k, w)
                twice = cond_expectation_pf(sub, once, w, validate=False)
                assert kdist(once, twice) <= TOL
                assert mf_embed_norm(once, w) <= mf_embed_norm(k, w) + 1e-8

    def test_compression_drops_outside_entries(self):
        bundle = lattice_line_bundle()
        g = bundle.group
        alg = bundle.coeff_algebra
        w = Window.ball(g, 1)
        far = g.vector([2])
        k = Kernel(bundle, {(far, far): scalar(alg, 5.0), (g.identity, g.identity): scalar(alg, 1.0)})
        out = cond_expectation_pf(full_sub_bundle(bundle), k, w)
        assert out.support() == {(g.identity, g.identity)}

    def test_bimodule_violation_raises(self):
        bundle = group_bundle(cyclic_group(2), FdAlgebra([2]))
        w = Window.ball(bundle.group, 1)
        # Upper triangular masks are closed under products but the masked
        # map is not a bimodule projection, so validation must trip.
        bad = mask_sub_bundle(bundle, [np.array([[1.0, 1.0], [0.0, 1.0]])])
        rng = np.random.default_rng(73)
        k = random_kernel(rng, bundle, w, max_entries=3)
        with pytest.raises(ValueError):
            cond_expectation_pf(bad, k, w, samples=16, seed=5)
