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
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fellap import kernels
from fellap.algebra import (
    FdAlgebra,
    FdElement,
    batch_norms,
    outside_mass,
    project_batch,
    split_batch,
    stack_elements,
)
from fellap.bundles import (
    Section,
    SubBundle,
    TwistedBundle,
    fiber_norm,
    group_bundle,
    make_semidirect,
    mask_sub_bundle,
    restrict_to_subgroup,
    subgroup_sub_bundle,
    trace_sub_bundle,
)
from fellap.groups import FreeGroup, LatticeGroup, cyclic_group, symmetric_group
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
    validate_sub_expectation,
    window_rep,
)
from fellap.testing import (
    matrix_twist,
    random_element,
    random_fell_bundle,
    random_global_action,
    random_kernel,
    random_partial_action,
    random_section,
)

from test_acceptance import kernel_pools
from test_bundles import _ScaledBundle, _WrongInverseBundle, expect, ref_mul, ref_star

TOL = 1e-10
# bundles per window radius compared with the dense route
SEEDS = {1: 40, 2: 20}


def kdist(a: Kernel, b: Kernel) -> float:
    return norm2(a - b)


def scalar(alg: FdAlgebra, v: complex):
    return FdElement(alg, [np.array([[v]])])


def entries(k) -> dict:
    """The entries of a kernel as a dict from key to element, in key order:
    views into a packed kernel's batch, or a ``DictKernel``'s own dict."""
    if isinstance(k, DictKernel):
        return k.data
    return dict(zip(k.keys, split_batch(k.bundle.coeff_algebra, k.batch, len(k.keys))))


def entry(k, s, t):
    return entries(k).get((s, t), k.bundle.coeff_algebra.zero())


def scaled(lam, k):
    """lam k: every class array of the batch times lam."""
    return Kernel._of(k.bundle, k.keys, k.elems, tuple(lam * p for p in k.batch))


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
    here uses the unit sections of ``window_rep`` or the batched products
    (every product is the per-term ``ref_mul``), so the two routes check
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
                ba_star = ref_star(bundle, t, ba)
                for b_idx, bb in enumerate(basis):
                    inner = ref_mul(bundle, g.inv(t), ba_star, t, bb)
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
        for (s, t), a in entries(k).items():
            ns, nt = len(self.fiber_basis[s]), len(self.fiber_basis[t])
            if self.qdims[s] == 0 or self.qdims[t] == 0:
                continue
            st = g.mul(s, g.inv(t))
            tmat = np.zeros((ns, nt), dtype=complex)
            for col, bt in enumerate(self.fiber_basis[t]):
                tmat[:, col] = self.fiber_coords(s, ref_mul(self.bundle, st, a, t, bt))
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


class EntryWindowRep:
    """Reference route to ``pi_matrix`` and ``section_vector``, entry by entry.

    The same unit-section coordinates as ``window_rep``, assembled one
    support entry (or section entry) at a time: each <u_s, k(s, t) u_t> is
    written out as a dense block-diagonal matrix on C^V, cut down to the
    coordinates of slot s and slot t, and added into its place.  The
    block-structured route must give the same matrices and vectors bit for
    bit.
    """

    def __init__(self, bundle, window):
        self.bundle = bundle
        self.window = window
        g = bundle.group
        self.starts = np.cumsum((0,) + bundle.coeff_algebra.blocks)
        self.vdim = int(self.starts[-1])
        alg = bundle.coeff_algebra
        self.units = {t: bundle.fiber_ideal(t).unit() for t in window}
        slots = list(self.units)
        stars = bundle.star_many(slots, stack_elements(alg, list(self.units.values())))
        self.unit_stars = dict(zip(slots, split_batch(alg, stars, len(slots))))
        self.coords = {}
        self.offsets = {}
        at = 0
        for t in window:
            held = sorted(bundle.fiber_ideal(g.inv(t)).block_set)
            self.coords[t] = np.array(
                [i for j in held for i in range(self.starts[j], self.starts[j + 1])], dtype=int
            )
            self.offsets[t] = at
            at += len(self.coords[t])
        self.dim = at

    def inner(self, t, x):
        """Block representation of <u_t, x> for x in the fiber over t."""
        g = self.bundle.group
        return self._dense(ref_mul(self.bundle, g.inv(t), self.unit_stars[t], t, x))

    def _dense(self, y):
        """The block-diagonal matrix of y acting on C^V."""
        out = np.zeros((self.vdim, self.vdim), dtype=complex)
        for lo, hi, m in zip(self.starts, self.starts[1:], y.mats):
            out[lo:hi, lo:hi] = m
        return out

    def matrix(self, k):
        g = self.bundle.group
        alg = self.bundle.coeff_algebra
        values = entries(k)
        keys = []
        for s, t in values:
            if s not in self.window.elements or t not in self.window.elements:
                raise ValueError("kernel support leaves the window")
            if len(self.coords[s]) and len(self.coords[t]):
                keys.append((s, t))
        # <u_s, k(s, t) u_t> for every entry, in two batched product steps
        moved = self.bundle.mul_many(
            [g.mul(s, g.inv(t)) for s, t in keys],
            stack_elements(alg, [values[key] for key in keys]),
            [t for _, t in keys],
            stack_elements(alg, [self.units[t] for _, t in keys]),
        )
        inner = self.bundle.mul_many(
            [g.inv(s) for s, _ in keys],
            stack_elements(alg, [self.unit_stars[s] for s, _ in keys]),
            [s for s, _ in keys],
            moved,
        )
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for (s, t), y in zip(keys, split_batch(alg, inner, len(keys))):
            rows, cols = self.coords[s], self.coords[t]
            r0, c0 = self.offsets[s], self.offsets[t]
            out[r0 : r0 + len(rows), c0 : c0 + len(cols)] += self._dense(y)[np.ix_(rows, cols)]
        return out

    def section_vector(self, f, v):
        vv = np.asarray(v, dtype=complex).reshape(self.vdim)
        out = np.zeros(self.dim, dtype=complex)
        for t, a in f.data.items():
            if t not in self.window.elements:
                raise ValueError("section support leaves the window")
            coords = self.coords[t]
            r0 = self.offsets[t]
            out[r0 : r0 + len(coords)] = (self.inner(t, a) @ vv)[coords]
        return out


def per_block_sub_expectation(sub, window, samples=8, seed=0):
    """Reference route to ``validate_sub_expectation``: the same laws on
    fiber elements drawn block by block, two ``standard_normal`` calls per
    block.  The one-draw route must give the same residual bit for bit."""
    bundle = sub.bundle
    g = bundle.group
    rng = np.random.default_rng(seed)
    elems = list(window.elements)

    def rand_fiber(t):
        fib = bundle.fiber_ideal(t)
        x = bundle.coeff_algebra.zero()
        for j in fib.block_set:
            d = bundle.coeff_algebra.blocks[j]
            x.mats[j][...] = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return x

    drawn = []
    for _ in range(samples):
        gg = elems[rng.integers(len(elems))]
        hh = elems[rng.integers(len(elems))]
        b = rand_fiber(gg)
        drawn.append((gg, hh, b, rand_fiber(hh)))
    gs = [gg for gg, _, _, _ in drawn]
    hs = [hh for _, hh, _, _ in drawn]
    alg = bundle.coeff_algebra
    n = len(drawn)
    bs = [b for _, _, b, _ in drawn]
    pbs = [expect(sub, gg, b) for gg, b in zip(gs, bs)]
    As = [expect(sub, hh, raw) for _, hh, _, raw in drawn]
    stars = split_batch(alg, bundle.star_many(gs + gs, stack_elements(alg, bs + pbs)), 2 * n)
    prods = split_batch(
        alg,
        bundle.mul_many(
            gs + gs + hs + hs,
            stack_elements(alg, bs + pbs + As + As),
            hs + hs + gs + gs,
            stack_elements(alg, As + As + bs + pbs),
        ),
        4 * n,
    )
    # per sample: idempotence, star compatibility, the two module laws
    fibers, lhs, rhs = [], [], []
    for i, (gg, hh) in enumerate(zip(gs, hs)):
        ginv, gh, hg = g.inv(gg), g.mul(gg, hh), g.mul(hh, gg)
        fibers += [gg, ginv, gh, hg]
        lhs += [
            expect(sub, gg, pbs[i]),
            expect(sub, ginv, stars[i]),
            expect(sub, gh, prods[i]),
            expect(sub, hg, prods[2 * n + i]),
        ]
        rhs += [pbs[i], stars[n + i], prods[n + i], prods[3 * n + i]]
    gaps = tuple(p - q for p, q in zip(stack_elements(alg, lhs), stack_elements(alg, rhs)))
    ideals = [bundle.fiber_ideal(t) for t in fibers]
    worst = 0.0
    for v in batch_norms(project_batch(ideals, gaps), len(ideals)).tolist():
        worst = max(worst, v)
    return worst


class DictKernel:
    """Reference route to ``Kernel``: a dict holding one element per entry.

    Every operation below (``ref_k_mul`` and the rest) stacks the entries it
    reads into a batch for the bundle's batched products and splits the
    result back into elements, and recomputes s t^-1 for every entry.  The
    packed kernel must agree with it key for key and bit for bit.
    """

    def __init__(self, bundle, entries, project=False):
        g = bundle.group
        alg = bundle.coeff_algebra
        keys = list(entries)
        for s, t in keys:
            g.check(s)
            g.check(t)
        fibers = [bundle.fiber_ideal(g.mul(s, g.inv(t))) for s, t in keys]
        values = list(entries.values())
        batch = stack_elements(alg, values)
        if project:
            batch = project_batch(fibers, batch)
            values = split_batch(alg, batch, len(keys))
        else:
            for (s, t), mass in zip(keys, outside_mass(fibers, batch)):
                if not mass <= 1e-9:
                    raise ValueError("entry lies outside its fiber")
        nonzero = np.zeros(len(keys), dtype=bool)
        for p in batch:
            nonzero |= p.any(axis=(1, 2, 3))
        self.bundle = bundle
        self.data = {key: a for key, a, keep in zip(keys, values, nonzero.tolist()) if keep}

    def __add__(self, other):
        data = dict(self.data)
        for key, a in other.data.items():
            data[key] = data[key] + a if key in data else a
        return DictKernel(self.bundle, data)

    def __sub__(self, other):
        data = dict(self.data)
        for key, a in other.data.items():
            data[key] = data[key] - a if key in data else -a
        return DictKernel(self.bundle, data)

    def __rmul__(self, scalar):
        lam = complex(scalar)
        return DictKernel(self.bundle, {key: lam * a for key, a in self.data.items()})


def ref_k_mul(h, k):
    bundle = h.bundle
    g = bundle.group
    by_col, by_row = {}, {}
    for (r, t), a in k.data.items():
        by_col.setdefault(t, []).append((r, a))
    for (t, s), b in h.data.items():
        by_row.setdefault(t, []).append((s, b))
    keys = {}
    slot, ss, xs, ts, ys = [], [], [], [], []
    for t, lefts in by_col.items():
        rights = by_row.get(t)
        if rights is None:
            continue
        tinv = g.inv(t)
        for r, a in lefts:
            rt = g.mul(r, tinv)
            for s, b in rights:
                slot.append(keys.setdefault((r, s), len(keys)))
                ss.append(rt)
                xs.append(a)
                ts.append(g.mul(t, g.inv(s)))
                ys.append(b)
    alg = bundle.coeff_algebra
    terms = bundle.mul_many(ss, stack_elements(alg, xs), ts, stack_elements(alg, ys))
    sums = tuple(np.zeros((len(keys),) + p.shape[1:], dtype=complex) for p in terms)
    for total, p in zip(sums, terms):
        np.add.at(total, slot, p)
    return DictKernel(bundle, dict(zip(keys, split_batch(alg, sums, len(keys)))))


def ref_k_star(k):
    g = k.bundle.group
    alg = k.bundle.coeff_algebra
    stars = k.bundle.star_many(
        [g.mul(s, g.inv(r)) for s, r in k.data], stack_elements(alg, list(k.data.values()))
    )
    keys = [(r, s) for s, r in k.data]
    return DictKernel(k.bundle, dict(zip(keys, split_batch(alg, stars, len(keys)))))


def ref_norm2(k):
    g = k.bundle.group
    fibers = [k.bundle.fiber_ideal(g.mul(s, g.inv(t))) for s, t in k.data]
    batch = project_batch(fibers, stack_elements(k.bundle.coeff_algebra, list(k.data.values())))
    total = 0.0
    for n in batch_norms(batch, len(fibers)).tolist():
        total += n**2
    return float(np.sqrt(total))


def ref_beta_act(t, k):
    g = k.bundle.group
    tinv = g.inv(t)
    return DictKernel(
        k.bundle, {(g.mul(r, tinv), g.mul(s, tinv)): a for (r, s), a in k.data.items()}
    )


def ref_rank_one(xi, eta):
    bundle = xi.bundle
    g = bundle.group
    alg = bundle.coeff_algebra
    cols = list(eta.data)
    stars = bundle.star_many(cols, stack_elements(alg, list(eta.data.values())))
    keys = [(s, t) for s in xi.data for t in cols]
    col = np.tile(np.arange(len(cols)), len(xi.data))
    terms = bundle.mul_many(
        [s for s, _ in keys],
        stack_elements(alg, [a for a in xi.data.values() for _ in cols]),
        [g.inv(t) for _, t in keys],
        tuple(p[col] for p in stars),
    )
    return DictKernel(bundle, dict(zip(keys, split_batch(alg, terms, len(keys)))))


def ref_cond_expectation(sub, k, window):
    g = sub.bundle.group
    out = {}
    for (s, t), a in k.data.items():
        if s in window and t in window:
            out[(s, t)] = expect(sub, g.mul(s, g.inv(t)), a)
    return DictKernel(sub.bundle, out)


def ref_random_kernel(rng, bundle, window, max_entries=6, scale=1.0):
    """``random_kernel`` entry by entry: each entry projected into its fiber
    as it is drawn."""
    g = bundle.group
    elems = list(window.elements)
    entries = {}
    n = int(rng.integers(1, max_entries + 1))
    for _ in range(n):
        s = elems[int(rng.integers(len(elems)))]
        t = elems[int(rng.integers(len(elems)))]
        fib = bundle.fiber_ideal(g.mul(s, g.inv(t)))
        entries[(s, t)] = fib.project(random_element(rng, bundle.coeff_algebra, scale))
    return DictKernel(bundle, entries)


def assert_same_kernel(packed, ref):
    """Same keys in the same order, bit-equal entries, the fiber coordinate
    s t^-1 at every key, and the same norm2."""
    g = packed.bundle.group
    assert list(packed.keys) == list(ref.data)
    assert len(packed.elems) == len(packed.keys)
    for i, (s, t) in enumerate(packed.keys):
        assert packed.elems[i] == g.mul(s, g.inv(t))
        for p, q in zip(packed.batch, ref.data[(s, t)].packs):
            assert np.array_equal(p[i], q)
    assert norm2(packed) == ref_norm2(ref)


class TestWindows:
    def test_ball_order_is_deterministic(self):
        g = LatticeGroup(1)
        w = Window.ball(g, 1)
        assert [x.data for x in w] == [(0,), (-1,), (1,)]
        assert w.elements.index(g.vector([1])) == 2

    def test_repeats_rejected(self):
        g = cyclic_group(3)
        with pytest.raises(ValueError):
            Window(g, [g.elem(0), g.elem(1), g.elem(0)])


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


FLAVORS = ("semidirect", "scalar-twist", "matrix-twist")
BLOCK_GROUPS = (cyclic_group(4), symmetric_group(3), FreeGroup(2), LatticeGroup(1))


def block_cases():
    """(rng, bundle, window): every flavor over Z4, S3, F2 and Z at radius 1
    and 2; partial actions restricted to a few blocks of (1, 2)-block
    envelopes, whose slots hold different blocks; and a bundle cut down to
    the even elements of Z4, whose odd slots hold nothing."""
    for seed, group in enumerate(BLOCK_GROUPS):
        for flavor in FLAVORS:
            for radius in (1, 2):
                rng = np.random.default_rng(100 + 10 * seed + radius)
                bundle, _ = random_fell_bundle(rng, group, flavor=flavor)
                yield rng, bundle, Window.ball(group, radius)
    for seed, group in enumerate((cyclic_group(4), symmetric_group(3))):
        rng = np.random.default_rng(140 + seed)
        pa = random_partial_action(rng, group, (1, 2), max_kept_blocks=3)
        yield rng, make_semidirect(pa), Window.ball(group, 2)
    rng = np.random.default_rng(150)
    whole, _ = random_fell_bundle(rng, cyclic_group(4), flavor="matrix-twist")
    yield rng, restrict_to_subgroup(whole, lambda t: t.data % 2 == 0), Window.ball(whole.group, 2)


class TestBlockWindowRep:
    """The block-structured window representation against its references:
    the entry-by-entry assembly (bit for bit) and the dense SVD norm."""

    def test_matches_entry_oracle_and_dense_norm(self):
        held_sets = set()
        empty_slots = 0
        for rng, bundle, w in block_cases():
            oracle = EntryWindowRep(bundle, w)
            rep = window_rep(bundle, w)
            assert rep.dim == oracle.dim
            for t in w:
                held_sets.add(tuple(oracle.coords[t]))
                empty_slots += len(oracle.coords[t]) == 0
            for _ in range(4):
                k = random_kernel(rng, bundle, w)
                mat = pi_matrix(k, w)
                assert np.array_equal(mat, oracle.matrix(k))
                dense = np.linalg.norm(mat, 2)
                assert abs(mf_embed_norm(k, w) - dense) <= 1e-12 * dense
                f = random_section(rng, bundle, w.elements)
                v = rng.standard_normal(rep.vdim) + 1j * rng.standard_normal(rep.vdim)
                assert np.array_equal(section_vector(f, w, v), oracle.section_vector(f, v))
        # the cases include slots holding different blocks, and empty slots
        assert len(held_sets) > 3 and empty_slots > 0

    def test_zero_dimensional_window(self):
        rng = np.random.default_rng(151)
        whole, _ = random_fell_bundle(rng, cyclic_group(4), flavor="semidirect")
        bundle = restrict_to_subgroup(whole, lambda t: t.data % 2 == 0)
        t = bundle.group.elem(1)
        w = Window(bundle.group, [t])
        assert window_rep(bundle, w).dim == 0
        k = Kernel(bundle, {(t, t): random_element(rng, bundle.coeff_algebra)})
        assert k.support() == {(t, t)}
        assert pi_matrix(k, w).shape == (0, 0)
        assert np.array_equal(pi_matrix(k, w), EntryWindowRep(bundle, w).matrix(k))
        assert mf_embed_norm(k, w) == 0.0
        f = random_section(rng, bundle, [t])
        v = np.ones(window_rep(bundle, w).vdim)
        assert section_vector(f, w, v).shape == (0,)

    def test_support_outside_window_rejected(self):
        bundle = lattice_line_bundle()
        g = bundle.group
        w = Window.ball(g, 1)
        far = g.vector([2])
        k = Kernel(bundle, {(far, g.identity): scalar(bundle.coeff_algebra, 1.0)})
        f = Section(bundle, {far: scalar(bundle.coeff_algebra, 1.0)})
        for call in (lambda: pi_matrix(k, w), lambda: mf_embed_norm(k, w)):
            with pytest.raises(ValueError):
                call()
        with pytest.raises(ValueError):
            section_vector(f, w, np.ones(1))

    def test_sub_expectation_matches_per_block_draws(self):
        for seed, group in enumerate(BLOCK_GROUPS):
            for flavor in FLAVORS:
                rng = np.random.default_rng(160 + seed)
                bundle, _ = random_fell_bundle(rng, group, flavor=flavor)
                w = Window.ball(group, 1)
                e = group.identity
                masks = [np.eye(d) for d in bundle.coeff_algebra.blocks]
                for sub in (
                    subgroup_sub_bundle(bundle, lambda t: t == e),
                    mask_sub_bundle(bundle, masks),
                    trace_sub_bundle(bundle, lambda t: t == e),
                ):
                    got = validate_sub_expectation(sub, w, samples=6, seed=seed)
                    assert got == per_block_sub_expectation(sub, w, samples=6, seed=seed)


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
        """Bundles that override ``mul_many`` with a deliberately wrong
        product keep it in kernel products, so the kernel laws fail for
        them."""
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
        assert kdist(k_star(scaled(2j, k)), scaled(np.conj(2j), k_star(k))) <= TOL

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
        lhs = pi_matrix(h - scaled(1 - 2j, k), w)
        rhs = pi_matrix(h, w) - (1 - 2j) * pi_matrix(k, w)
        assert np.abs(lhs - rhs).max(initial=0.0) <= TOL

    def test_section_action_matches(self):
        rng, bundle, w = bundle_with_window(22)
        k = random_kernel(rng, bundle, w)
        f = random_section(rng, bundle, w.elements)
        v = rng.standard_normal(sum(bundle.coeff_algebra.blocks)) + 0j
        g = bundle.group
        zero = bundle.coeff_algebra.zero()
        applied = Section(
            bundle,
            {
                s: sum(
                    (
                        bundle.mul(g.mul(s, g.inv(t)), entry(k, s, t), t, f.data.get(t, zero))
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
        assert norm2(Kernel(bundle, {})) == 0.0
        k = random_kernel(rng, bundle, w, max_entries=1)
        ((s, t),) = k.support()
        g = bundle.group
        a = entry(k, s, t)
        assert abs(norm2(k) - fiber_norm(bundle, g.mul(s, g.inv(t)), a)) <= TOL

    @given(st.integers(0, 30))
    @settings(max_examples=10, deadline=None)
    def test_triangle(self, seed):
        rng, bundle, w = bundle_with_window(seed)
        h = random_kernel(rng, bundle, w)
        k = random_kernel(rng, bundle, w)
        assert norm2(h - k) <= norm2(h) + norm2(k) + TOL

    def test_difference_is_sum_with_negative(self):
        """k - h takes one pass; on finite entries it equals the reference
        route's k + (-1) h exactly, key by key and in the same order."""
        for seed in (34, 35, 36):
            rng, bundle, w = bundle_with_window(seed)
            h = random_kernel(rng, bundle, w)
            k = random_kernel(rng, bundle, w)
            rh, rk = DictKernel(bundle, entries(h)), DictKernel(bundle, entries(k))
            for diff, ref in ((k - h, rk + (-1.0) * rh), (k - k, rk + (-1.0) * rk)):
                assert_same_kernel(diff, ref)
        assert (k - k).support() == set()

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
            k = Kernel(bundle, {(t, e): b})
            assert abs(mf_embed_norm(k, w) - fiber_norm(bundle, t, b)) <= TOL

    def test_single_entry_general_position_bounded(self):
        for seed in (58, 59, 60):
            rng, bundle, w = bundle_with_window(seed)
            k = random_kernel(rng, bundle, w, max_entries=1)
            if not k.support():
                continue
            ((s, t),) = k.support()
            g = bundle.group
            b = entry(k, s, t)
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
        big = np.block([[entry(k, s, t).mats[0] for t in w] for s in w])
        assert abs(mf_embed_norm(k, w) - np.linalg.norm(big, 2)) <= TOL

    def test_monotone_under_nesting(self):
        for seed in (61, 62, 63, 64, 65):
            rng, bundle, w1 = bundle_with_window(seed, radius=1)
            w2 = Window.ball(bundle.group, 2)
            k = random_kernel(rng, bundle, w1)
            assert mf_embed_norm(k, w1) <= mf_embed_norm(k, w2) + TOL

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
                    Kernel(bundle, {(t, g.identity): alg.one()})
                return

    def test_nan_entry_is_kept(self):
        """An entry is dropped only when it is exactly zero; a NaN entry
        is not zero and must stay visible."""
        bundle = group_bundle(cyclic_group(3), FdAlgebra([1, 2]))
        e = bundle.group.identity
        x = bundle.coeff_algebra.zero()
        x.mats[1][0, 1] = np.nan
        k = Kernel(bundle, {(e, e): x})
        assert k.support() == {(e, e)}
        assert np.isnan(entry(k, e, e).mats[1][0, 1])
        assert Kernel(bundle, {(e, e): bundle.coeff_algebra.zero()}).support() == set()


class TestCondExpectation:
    def test_identity_expectation(self):
        rng, bundle, w = bundle_with_window(71)
        k = random_kernel(rng, bundle, w)
        out = cond_expectation_pf(subgroup_sub_bundle(bundle, lambda x: True), k, w)
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
            subgroup_sub_bundle(bundle, lambda x: True),
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
        out = cond_expectation_pf(subgroup_sub_bundle(bundle, lambda x: True), k, w)
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


PACKED_GROUPS = (cyclic_group(4), symmetric_group(3), LatticeGroup(1), FreeGroup(2))


def packed_cases():
    """(seed, rng, bundle, ball(1)): two bundles of every flavor over Z4,
    S3, Z and F2."""
    for gi, group in enumerate(PACKED_GROUPS):
        for fi, flavor in enumerate(FLAVORS):
            for rep in range(2):
                seed = 300 + 10 * gi + 3 * fi + rep
                rng = np.random.default_rng(seed)
                bundle, _ = random_fell_bundle(rng, group, flavor=flavor)
                yield seed, rng, bundle, Window.ball(group, 1)


def twin_kernels(rng, bundle, window, count, **kw):
    """``count`` packed random kernels, and the same kernels drawn again
    from the same stream by the per-entry route; the two routes must leave
    the generator in the same state."""
    state = rng.bit_generator.state
    packed = [random_kernel(rng, bundle, window, **kw) for _ in range(count)]
    after = rng.bit_generator.state
    rng.bit_generator.state = state
    refs = [ref_random_kernel(rng, bundle, window, **kw) for _ in range(count)]
    assert rng.bit_generator.state == after
    return packed, refs


class TestPackedKernels:
    """The packed kernel against the dict route, bit for bit."""

    def test_random_kernel_matches_per_entry_route(self):
        """Over every flavor, and a bundle whose odd fibers are zero (their
        entries are dropped); a one-point window repeats its pair on every
        draw, which keeps the last draw."""
        whole, _ = random_fell_bundle(
            np.random.default_rng(150), cyclic_group(4), flavor="matrix-twist"
        )
        even = restrict_to_subgroup(whole, lambda t: t.data % 2 == 0)
        cases = list(packed_cases())
        cases.append((150, np.random.default_rng(151), even, Window.ball(even.group, 1)))
        for _, rng, bundle, w in cases:
            lone = Window(bundle.group, [bundle.group.identity])
            shapes = ((w, 6, 1.0), (w, 12, 0.5), (w, 1, 2.0), (lone, 4, 1.0))
            for window, max_entries, scale in shapes:
                (packed,), (ref,) = twin_kernels(
                    rng, bundle, window, 1, max_entries=max_entries, scale=scale
                )
                assert_same_kernel(packed, ref)

    def test_operations_match_dict_route(self):
        for seed, rng, bundle, w in packed_cases():
            g = bundle.group
            e = g.identity
            big = Window.ball(g, 2)
            oracle = EntryWindowRep(bundle, big)
            (h, k), (rh, rk) = twin_kernels(rng, bundle, w, 2)
            t = w.elements[seed % len(w)]
            part = Window(g, w.elements[:-1])
            masks = [np.eye(d) for d in bundle.coeff_algebra.blocks]
            one = bundle.coeff_algebra.one()
            xi = random_section(rng, bundle, w.elements)
            eta = random_section(rng, bundle, w.elements[::-1])
            pairs = [
                (h, rh),
                (k_mul(h, k), ref_k_mul(rh, rk)),
                (k_mul(k, k), ref_k_mul(rk, rk)),
                (k_star(k), ref_k_star(rk)),
                (beta_act(t, k), ref_beta_act(t, rk)),
                (
                    k_mul(beta_act(t, h), k_star(k)),
                    ref_k_mul(ref_beta_act(t, rh), ref_k_star(rk)),
                ),
                (h - k, rh - rk),
                (k - k, rk - rk),
                (k - k_star(k), rk - ref_k_star(rk)),
                (Kernel.diagonal_unit(bundle, w), DictKernel(bundle, {(x, x): one for x in w})),
                (rank_one(xi, eta), ref_rank_one(xi, eta)),
            ]
            for sub in (
                subgroup_sub_bundle(bundle, lambda x: True),
                subgroup_sub_bundle(bundle, lambda x: x == e),
                mask_sub_bundle(bundle, masks),
                trace_sub_bundle(bundle, lambda x: x == e),
            ):
                got = cond_expectation_pf(sub, k, part, validate=False)
                pairs.append((got, ref_cond_expectation(sub, rk, part)))
            for packed, ref in pairs:
                assert_same_kernel(packed, ref)
                assert np.array_equal(pi_matrix(packed, big), oracle.matrix(ref))
                assert mf_embed_norm(packed, big) == mf_embed_norm(Kernel(bundle, ref.data), big)

    def test_overridden_products_match_dict_route(self):
        """Packed products go through ``mul_many`` and ``star_many``, so a
        bundle that overrides ``mul_many`` gets its own product."""
        glob = random_global_action(np.random.default_rng(11), cyclic_group(3), [2])
        family, twist = matrix_twist(glob, salt=11)
        pa = random_global_action(np.random.default_rng(12), cyclic_group(3))
        wrong = _WrongInverseBundle(family, twist)
        for bad in (wrong, _ScaledBundle(pa, make_semidirect(pa).twist)):
            rng = np.random.default_rng(5)
            w = Window.ball(bad.group, 1)
            (a, b), (ra, rb) = twin_kernels(rng, bad, w, 2, max_entries=6)
            assert_same_kernel(k_mul(a, b), ref_k_mul(ra, rb))
            assert_same_kernel(k_star(a), ref_k_star(ra))
            assert_same_kernel(k_mul(k_star(b), a), ref_k_mul(ref_k_star(rb), ra))

    def test_operations_neither_stack_nor_split(self, monkeypatch):
        for seed in (81, 82, 83):
            rng, bundle, w = bundle_with_window(seed)
            e = bundle.group.identity
            h = random_kernel(rng, bundle, w)
            k = random_kernel(rng, bundle, w)
            t = w.elements[-1]
            sub = trace_sub_bundle(bundle, lambda x: x == e)
            calls = []
            real = kernels.stack_elements

            def counting(*args):
                calls.append("stack_elements")
                return real(*args)

            monkeypatch.setattr(kernels, "stack_elements", counting)
            assert not hasattr(kernels, "split_batch")
            hk = k_mul(h, k)
            moved = beta_act(t, k_star(hk))
            norm2(moved - h - scaled(2.0, k))
            pi_matrix(hk, w)
            mf_embed_norm(k_star(k), w)
            cond_expectation_pf(sub, k, w)
            assert calls == []
            monkeypatch.undo()

    def test_packed_constructor_checks_fibers_and_drops_zeros(self):
        bundle, _ = random_fell_bundle(np.random.default_rng(68), flavor="semidirect")
        g = bundle.group
        alg = bundle.coeff_algebra
        e = g.identity
        unit = tuple(p[None] for p in alg.one().packs)
        (t,) = [x for x in Window.ball(g, 1) if bundle.fiber_ideal(x).dim() < alg.dim][:1]
        with pytest.raises(ValueError):
            Kernel._of(bundle, [(t, e)], [t], unit)
        cut = Kernel._of(bundle, [(t, e)], [t], unit, project=True)
        want = bundle.fiber_ideal(t).unit()
        assert all(np.array_equal(p, q) for p, q in zip(entry(cut, t, e).packs, want.packs))
        zero = tuple(np.zeros_like(p) for p in unit)
        assert Kernel._of(bundle, [(e, e)], [e], zero).support() == set()

    def test_batch_and_data_are_read_only(self):
        bundle = group_bundle(cyclic_group(3), FdAlgebra([1, 2]))
        k = random_kernel(np.random.default_rng(84), bundle, Window.ball(bundle.group, 1))
        with pytest.raises(ValueError):
            k.batch[0][0] = 0
        with pytest.raises(ValueError):
            entry(k, *k.keys[0]).packs[0][...] = 0


def same_kernel(a: Kernel, b: Kernel) -> bool:
    """The two kernels have the same fields, bit for bit."""
    return (
        a.bundle is b.bundle
        and a.keys == b.keys
        and a.elems == b.elems
        and len(a.batch) == len(b.batch)
        and all(np.array_equal(p, q) for p, q in zip(a.batch, b.batch))
    )


def unkept(k: Kernel) -> Kernel:
    """A checked copy of k that keeps nothing yet."""
    return Kernel._of(k.bundle, k.keys, k.elems, k.batch)


def reuse_cases():
    """(rng, window, a larger window, kernels): the ``twin_kernels``
    families of ``packed_cases``, and the first two rounds of criterion 4's
    pools."""
    for _, rng, bundle, w in packed_cases():
        (h, k), _ = twin_kernels(rng, bundle, w, 2)
        yield rng, w, Window.ball(bundle.group, 2), (h, k, k_mul(h, k))
    pools = kernel_pools()
    rng = np.random.default_rng(404)
    for i in range(2 * len(pools)):
        grp, w, _, big = pools[i % len(pools)]
        bundle, _ = random_fell_bundle(rng, group=grp)
        h, k = random_kernel(rng, bundle, w), random_kernel(rng, bundle, w)
        yield rng, w, big, (h, k, k_mul(h, k))


class _LeakyBundle(TwistedBundle):
    """Deliberately wrong products that leave their fibers: every product
    and involution gets the unit of the coefficient algebra added."""

    def _leak(self, batch):
        return tuple(p + q for p, q in zip(batch, self.coeff_algebra.one().packs))

    def mul_many(self, ss, xs, ts, ys):
        return self._leak(super().mul_many(ss, xs, ts, ys))

    def star_many(self, ts, xs):
        return self._leak(super().star_many(ts, xs))


class TestKernelReuse:
    """A kernel keeps its involution and its window products, and a
    translate shares its parent's checked batch; nothing changes a bit."""

    def test_kept_values_match_a_fresh_kernel(self):
        for rng, w, big, ks in reuse_cases():
            t = w.elements[int(rng.integers(len(w)))]
            for k in ks:
                for win in (w, big):
                    norm, mat = mf_embed_norm(k, win), pi_matrix(k, win)
                    assert np.array_equal(pi_matrix(k, win), mat)
                    assert mf_embed_norm(k, win) == norm
                    assert np.array_equal(pi_matrix(unkept(k), win), mat)
                    assert mf_embed_norm(unkept(k), win) == norm
                star = k_star(k)
                assert k_star(k) is star and star._star is None
                assert same_kernel(star, k_star(unkept(k)))
                k._star = None
                k._products.clear()
                assert same_kernel(k_star(k), star)
                assert np.array_equal(pi_matrix(k, w), pi_matrix(unkept(k), w))
                moved = beta_act(t, k)
                assert moved.batch is k.batch and moved.elems is k.elems
                assert same_kernel(moved, Kernel._of(k.bundle, moved.keys, k.elems, k.batch))

    def test_products_are_taken_once_per_kernel_and_window(self, monkeypatch):
        rng, bundle, w = bundle_with_window(85)
        big = Window.ball(bundle.group, 2)
        reps = window_rep(bundle, w), window_rep(bundle, big)
        k = random_kernel(rng, bundle, w)
        calls = []
        for name in ("mul_many", "star_many"):
            real = getattr(bundle, name)
            monkeypatch.setattr(
                bundle, name, lambda *a, real=real, name=name: calls.append(name) or real(*a)
            )
        star = k_star(k)
        assert k_star(k) is star and k_star(k) is star
        assert calls == ["star_many"]
        pi_matrix(k, w)
        mf_embed_norm(k, w)
        assert calls.count("mul_many") == 2
        mf_embed_norm(k, w)
        pi_matrix(k, w)
        assert calls.count("mul_many") == 2
        mf_embed_norm(k, big)
        pi_matrix(k, big)
        assert calls.count("mul_many") == 4
        assert list(k._products) == list(reps) and None not in k._products.values()
        with pytest.raises(ValueError):
            k._products[reps[0]][0][0][...] = 0

    def test_kept_values_go_with_the_kernel(self):
        rng, bundle, w = bundle_with_window(86)
        k = random_kernel(rng, bundle, w)
        held = sys.getrefcount(k)
        k_star(k)
        pi_matrix(k, w)
        mf_embed_norm(k, w)
        beta_act(w.elements[-1], k)
        # neither the bundle, its window reps, the involution nor the
        # translate holds the kernel
        assert sys.getrefcount(k) == held
        rep = window_rep(bundle, w)
        assert all(k not in gc.get_referents(x) for x in (bundle, rep, vars(rep), k._star))
        inner = weakref.ref(k._products[rep][0][0])
        starred = weakref.ref(k._star.batch[0])
        del k
        assert inner() is None and starred() is None

    def test_only_translates_skip_the_fiber_check(self, monkeypatch):
        pa = random_partial_action(np.random.default_rng(86), cyclic_group(4), (1, 2), max_kept_blocks=3)
        bad = _LeakyBundle(pa, make_semidirect(pa).twist)
        g, alg = bad.group, bad.coeff_algebra
        e = g.identity
        w = Window.ball(g, 1)
        t = next(x for x in w if 0 < bad.fiber_ideal(x).dim() < alg.dim)
        unit = bad.fiber_ideal(t).unit()
        off = alg.one() - unit  # outside the fiber over t
        k = Kernel(bad, {(t, e): unit})
        one = Kernel.diagonal_unit(bad, w)
        # each just inside the fiber check's tolerance, their difference not
        near = Kernel(bad, {(t, e): unit + 0.75e-9 * off})
        far = Kernel(bad, {(t, e): unit - 0.75e-9 * off})
        leaky = SubBundle(bad, lambda x: True, bad._leak)
        for call in (
            lambda: k_mul(one, k),
            lambda: k_star(k),
            lambda: near - far,
            lambda: cond_expectation_pf(leaky, k, w, validate=False),
        ):
            with pytest.raises(ValueError, match="outside its fiber"):
                call()
        assert same_kernel(beta_act(t, k), Kernel._of(bad, [(e, g.inv(t))], k.elems, k.batch))

        # with every entry reported outside its fiber, every constructor
        # but the translate refuses
        rng, bundle, w = bundle_with_window(88)
        sub = trace_sub_bundle(bundle, lambda x: x == bundle.group.identity)
        h, k = random_kernel(rng, bundle, w), random_kernel(rng, bundle, w)
        xi, eta = (random_section(rng, bundle, w.elements) for _ in range(2))
        values = dict(zip(k.keys, split_batch(bundle.coeff_algebra, k.batch, len(k.keys))))
        made = []
        real = Kernel._trusted.__func__

        def traced(cls, *args):
            made.append(sys._getframe(1).f_code.co_name)
            return real(cls, *args)

        monkeypatch.setattr(Kernel, "_trusted", classmethod(traced))
        monkeypatch.setattr(kernels, "outside_mass", lambda fibers, batch: np.ones(len(fibers)))
        for call in (
            lambda: Kernel(bundle, values),
            lambda: Kernel.diagonal_unit(bundle, w),
            lambda: k_mul(h, k),
            lambda: k_star(k),
            lambda: h - k,
            lambda: cond_expectation_pf(sub, k, w, validate=False),
            lambda: rank_one(xi, eta),
        ):
            with pytest.raises(ValueError, match="outside its fiber"):
                call()
        random_kernel(rng, bundle, w)  # projected, not checked
        for x in w:
            assert same_kernel(beta_act(x, beta_act(bundle.group.inv(x), k)), k)
        assert made == ["beta_act"] * (2 * len(w))
