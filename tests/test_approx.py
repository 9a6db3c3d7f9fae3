"""Witness and convexification tests.

Frozen oracles, fixed ahead of the implementation:

* Folner closed form.  Over the d-dimensional lattice with the box witness
  of side N, every target b in the fiber over t has defect

      (1 - overlap / N^d) * |b|,   overlap = prod_i max(0, N - |t_i|),

  because each of the overlap surviving summands contributes b / N^d and
  nothing else survives.  Frozen instances: d=1, N=10, t=1 -> 0.1 |b|;
  d=2, N=4, t=(1,0) -> 0.25 |b| (overlap 12 of 16).

* Uniform witness on a finite group: bound exactly 1 and every defect
  exactly 0 (the |G| summands each contribute b/|G|).

* Zero witness: every defect equals |b|.

* Convexification identities.  With pairwise disjoint translated supports,
  <a~, a~> = sum_k lam_k <a_k, a_k> and the defect sums split the same way;
  both residuals are pinned at 1e-12 because they are exact algebra, not
  analysis.

* Partial-action route.  |b - sum_s a(ts)* alpha_t(alpha_{t^-1}(b) a(s))|
  computed from the partial action must agree with the bundle-route defect
  over the semidirect bundle to 1e-10.

* Central route.  For a witness with central values, the defects
  ``ap_certify`` reads from one unit-target sum per t agree with the
  per-target sums of ``ap_defects`` to 1e-13.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fellap.approx as approx
from fellap.algebra import (
    FdAlgebra,
    FdElement,
    Ideal,
    IdealIso,
    PartialAction,
    op_norm,
    pullback_action,
    restrict_action,
    stack_elements,
)
from fellap.approx import (
    APWitness,
    Target,
    TranslateSearchError,
    _central_defects,
    _defect_sums,
    ad_function,
    ap_certify,
    ap_defect,
    ap_defect_partial,
    ap_defects,
    convexify,
    default_targets,
    folner_witness,
    uniform_witness,
    witness_bound,
    witness_gram,
)
from fellap.bundles import (
    Twist,
    TwistedBundle,
    fiber_norm,
    group_bundle,
    make_semidirect,
    make_twisted,
)
from fellap.cli import ConfigStore
from fellap.groups import (
    FreeGroup,
    LatticeGroup,
    UnsupportedGroupError,
    cyclic_group,
    symmetric_group,
)
from fellap.testing import (
    matrix_twist,
    random_block_unitary,
    random_element,
    random_fell_bundle,
    random_finite_group,
    random_global_action,
    random_hom_to_finite,
    random_infinite_partial_action,
    random_partial_action,
    scalar_coboundary_twist,
)

from test_bundles import ref_mul
from test_cli import BASE_CONFIG

TOL = 1e-10
EXACT = 1e-12


def ref_defect_sum(a, t, b):
    """sum_r a(tr)* b a(r), summand by summand through the per-term
    reference product ``ref_mul``."""
    bundle = a.bundle
    g = bundle.group
    e = g.identity
    total = bundle.coeff_algebra.zero()
    for r, v in a.data.items():
        left = a.data.get(g.mul(t, r))
        if left is not None:
            total = total + ref_mul(bundle, t, ref_mul(bundle, e, left.star(), t, b), e, v)
    return total


def random_fiber_element(rng, bundle, t, scale=1.0):
    return bundle.fiber_ideal(t).project(random_element(rng, bundle.coeff_algebra, scale))


def box_overlap(t, n, d):
    out = 1
    for i in range(d):
        out *= max(0, n - abs(t[i]))
    return out


class TestBoundsAndBasics:
    def test_zero_witness(self):
        rng = np.random.default_rng(0)
        bundle, _ = random_fell_bundle(rng)
        a = APWitness.zero(bundle)
        assert witness_bound(a) == 0.0
        t = bundle.group.ball(1)[-1]
        b = random_fiber_element(rng, bundle, t)
        assert abs(ap_defect(a, t, b) - fiber_norm(bundle, t, b)) <= EXACT

    def test_uniform_witness_bound_one(self):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            bundle, _ = random_fell_bundle(rng, group=random_finite_group(rng))
            a = uniform_witness(bundle)
            assert abs(witness_bound(a) - 1.0) <= EXACT

    def test_uniform_witness_zero_defects(self):
        for seed in range(4):
            rng = np.random.default_rng(100 + seed)
            bundle, _ = random_fell_bundle(rng, group=random_finite_group(rng))
            a = uniform_witness(bundle)
            for t in bundle.group.elements():
                b = random_fiber_element(rng, bundle, t)
                assert ap_defect(a, t, b) <= EXACT

    def test_delta_unit_witness_at_identity(self):
        rng = np.random.default_rng(7)
        bundle, _ = random_fell_bundle(rng)
        e = bundle.group.identity
        a = APWitness(bundle, {e: bundle.coeff_algebra.one()})
        b = random_fiber_element(rng, bundle, e)
        assert ap_defect(a, e, b) <= EXACT

    def test_target_outside_fiber_rejected(self):
        for seed in range(12):
            rng = np.random.default_rng(200 + seed)
            bundle, _ = random_fell_bundle(rng, flavor="semidirect")
            alg = bundle.coeff_algebra
            a = APWitness.zero(bundle)
            for t in bundle.group.ball(1):
                if bundle.fiber_ideal(t).dim() < alg.dim:
                    with pytest.raises(ValueError):
                        ap_defect(a, t, alg.one())
                    return
        raise AssertionError("no proper fiber sampled")

    def test_foreign_algebra_rejected(self):
        rng = np.random.default_rng(1)
        bundle, _ = random_fell_bundle(rng)
        other = FdAlgebra([5])
        with pytest.raises(ValueError):
            APWitness(bundle, {bundle.group.identity: other.one()})

    def test_nan_value_is_kept(self):
        """A value is dropped only when it is exactly zero; a NaN value is
        not zero and must stay visible."""
        bundle = group_bundle(cyclic_group(3), FdAlgebra([1, 2]))
        e = bundle.group.identity
        x = bundle.coeff_algebra.zero()
        x.mats[0][0, 0] = np.nan
        a = APWitness(bundle, {e: x, bundle.group.elem(1): bundle.coeff_algebra.zero()})
        assert list(a.data) == [e]
        assert np.isnan(witness_gram(a).mats[0][0, 0])


class TestFolner:
    def test_line_frozen_value(self):
        rng = np.random.default_rng(5)
        g = LatticeGroup(1)
        bundle, _ = random_fell_bundle(rng, group=g)
        a = folner_witness(bundle, 10)
        t = g.vector([1])
        b = random_fiber_element(rng, bundle, t)
        want = 0.1 * fiber_norm(bundle, t, b)
        assert abs(ap_defect(a, t, b) - want) <= EXACT

    def test_plane_frozen_value(self):
        rng = np.random.default_rng(6)
        g = LatticeGroup(2)
        bundle, _ = random_fell_bundle(rng, group=g)
        a = folner_witness(bundle, 4)
        t = g.vector([1, 0])
        b = random_fiber_element(rng, bundle, t)
        want = 0.25 * fiber_norm(bundle, t, b)
        assert abs(ap_defect(a, t, b) - want) <= EXACT

    @given(st.integers(0, 60))
    @settings(max_examples=15, deadline=None)
    def test_closed_form_matches_generic_route(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 3))
        g = LatticeGroup(d)
        bundle, _ = random_fell_bundle(rng, group=g)
        n = int(rng.integers(2, 6))
        a = folner_witness(bundle, n)
        t = g.ball(2)[int(rng.integers(len(g.ball(2))))]
        b = random_fiber_element(rng, bundle, t)
        want = (1.0 - box_overlap(t.data, n, d) / n**d) * fiber_norm(bundle, t, b)
        assert abs(ap_defect(a, t, b) - want) <= EXACT

    def test_bound_is_one(self):
        rng = np.random.default_rng(8)
        bundle, _ = random_fell_bundle(rng, group=LatticeGroup(1))
        assert abs(witness_bound(folner_witness(bundle, 7)) - 1.0) <= EXACT

    def test_free_group_unsupported(self):
        bundle = group_bundle(FreeGroup(2), FdAlgebra([1]))
        with pytest.raises(UnsupportedGroupError):
            folner_witness(bundle, 3)
        with pytest.raises(UnsupportedGroupError):
            uniform_witness(bundle)


class TestPartialRoute:
    @given(st.integers(0, 200))
    @settings(max_examples=25, deadline=None)
    def test_partial_equals_bundle_route(self, seed):
        rng = np.random.default_rng(seed)
        kind = seed % 3
        if kind == 0:
            pa = random_partial_action(rng, random_finite_group(rng))
        elif kind == 1:
            pa = random_infinite_partial_action(rng, FreeGroup(2))
        else:
            pa = random_infinite_partial_action(rng, LatticeGroup(2))
        bundle = make_semidirect(pa)
        g = pa.group
        ball = g.ball(1)
        amap = {
            r: random_element(rng, pa.algebra, 0.7)
            for r in ball
            if rng.uniform() < 0.8
        }
        witness = APWitness(bundle, amap)
        t = ball[int(rng.integers(len(ball)))]
        b = pa.domain(t).project(random_element(rng, pa.algebra))
        lhs = ap_defect_partial(pa, amap, t, b)
        rhs = ap_defect(witness, t, b)
        assert abs(lhs - rhs) <= TOL

    def test_partial_route_rejects_outside_domain(self):
        rng = np.random.default_rng(77)
        for _ in range(12):
            pa = random_partial_action(rng, random_finite_group(rng))
            for t in pa.group.elements():
                if pa.domain(t).dim() < pa.algebra.dim:
                    with pytest.raises(ValueError):
                        ap_defect_partial(pa, {}, t, pa.algebra.one())
                    return
        raise AssertionError("no proper domain sampled")


class TestConvexify:
    def free_fixture(self, seed=3):
        rng = np.random.default_rng(seed)
        g = FreeGroup(2)
        bundle = group_bundle(g, FdAlgebra([2]))
        ball1 = g.ball(1)
        mk = lambda: APWitness(
            bundle, {r: random_element(rng, bundle.coeff_algebra, 0.5) for r in ball1}
        )
        gen = g.generator(1)
        targets = [Target(gen, random_fiber_element(rng, bundle, gen), "gen")]
        return rng, g, bundle, [mk(), mk()], targets

    def test_two_witnesses_on_free_group(self):
        _, g, _, pair, targets = self.free_fixture()
        mixed, cert = convexify(
            [(pair[0], 0.5), (pair[1], 0.5)], targets, search_radius=3
        )
        assert len(cert.translates) == 2
        assert all(g.word_length(r) <= 3 for r in cert.translates)
        assert cert.gram_residual <= EXACT
        assert all(res <= EXACT for res in cert.defect_residuals)
        cap = max(witness_bound(a) for a in pair)
        assert cert.bound <= cap + EXACT
        assert abs(witness_bound(mixed) - cert.bound) <= EXACT

    def test_identities_recomputed_independently(self):
        _, _, bundle, pair, targets = self.free_fixture(seed=9)
        weights = [(pair[0], 0.3), (pair[1], 0.6)]
        mixed, cert = convexify(weights, targets, search_radius=3)
        want = bundle.coeff_algebra.zero()
        for a, lam in weights:
            want = want + lam * witness_gram(a)
        assert op_norm(witness_gram(mixed) - want) <= EXACT
        tgt = targets[0]
        want_d = bundle.coeff_algebra.zero()
        for a, lam in weights:
            want_d = want_d + lam * ref_defect_sum(a, tgt.t, tgt.b)
        got = ref_defect_sum(mixed, tgt.t, tgt.b)
        assert fiber_norm(bundle, tgt.t, got - want_d) <= EXACT
        assert abs(ap_defect(mixed, tgt.t, tgt.b) - fiber_norm(bundle, tgt.t, tgt.b - got)) <= EXACT

    def test_single_witness_translate_keeps_defects(self):
        rng = np.random.default_rng(21)
        g = LatticeGroup(1)
        bundle, _ = random_fell_bundle(rng, group=g)
        a = APWitness(
            bundle,
            {r: random_element(rng, bundle.coeff_algebra, 0.6) for r in g.ball(1)},
        )
        t = g.vector([1])
        b = random_fiber_element(rng, bundle, t)
        targets = [Target(t, b, "shift")]
        mixed, cert = convexify([(a, 1.0)], targets, search_radius=2)
        assert len(cert.translates) == 1
        assert abs(ap_defect(mixed, t, b) - ap_defect(a, t, b)) <= EXACT

    def test_partial_bundle_identities(self):
        rng = np.random.default_rng(22)
        pa = random_infinite_partial_action(rng, FreeGroup(2))
        bundle = make_semidirect(pa)
        g = bundle.group
        mk = lambda: APWitness(
            bundle,
            {r: random_element(rng, bundle.coeff_algebra, 0.5) for r in g.ball(1)},
        )
        targets = default_targets(bundle, radius=1, max_per_fiber=2)
        mixed, cert = convexify([(mk(), 0.5), (mk(), 0.25)], targets, search_radius=4)
        assert cert.gram_residual <= EXACT
        assert all(res <= EXACT for res in cert.defect_residuals)

    def test_finite_group_rejected(self):
        rng = np.random.default_rng(23)
        bundle, _ = random_fell_bundle(rng, group=cyclic_group(4))
        a = uniform_witness(bundle)
        with pytest.raises(UnsupportedGroupError):
            convexify([(a, 1.0)], [], search_radius=2)

    def test_bad_weights_rejected(self):
        _, _, _, pair, targets = self.free_fixture(seed=10)
        with pytest.raises(ValueError):
            convexify([(pair[0], -0.1), (pair[1], 0.5)], targets)
        with pytest.raises(ValueError):
            convexify([(pair[0], 0.8), (pair[1], 0.8)], targets)

    def test_search_exhaustion(self):
        _, _, _, pair, targets = self.free_fixture(seed=11)
        with pytest.raises(TranslateSearchError):
            convexify([(pair[0], 0.5), (pair[1], 0.5)], targets, search_radius=0)


def reference_translates(g, witnesses, targets, search_radius):
    """The greedy translate scan ``convexify`` used to run: walk the ball
    and keep each r whose translate F' r misses every translate kept so
    far, comparing the translated sets themselves."""
    support: set = set()
    for a, _ in witnesses:
        support.update(a.data.keys())
    fprime = set(support)
    for tgt in targets:
        tinv = g.inv(tgt.t)
        fprime.update(g.mul(tinv, s) for s in support)

    chosen = []
    occupied: set = set()
    for r in g.ball(search_radius):
        moved = {g.mul(s, r) for s in fprime}
        if moved & occupied:
            continue
        chosen.append(r)
        occupied |= moved
        if len(chosen) == len(witnesses):
            break
    if len(chosen) < len(witnesses):
        raise TranslateSearchError(
            f"found {len(chosen)} of {len(witnesses)} disjoint translates "
            f"within radius {search_radius}"
        )
    return tuple(chosen)


def sweep_free_fixture(seed, flavor):
    """A bundle over F2 pulled back from Z3 on one-dimensional blocks (two
    of them kept unless matrix-twisted), with 2 or 3 random witnesses on
    the ball of radius 1 and up to two targets per fiber of that ball."""
    rng = np.random.default_rng(seed)
    g, image = FreeGroup(2), cyclic_group(3)
    act = random_global_action(rng, image, (1,))
    if flavor != "matrix-twist":
        kept = rng.choice(image.order, size=2, replace=False)
        act = restrict_action(act, Ideal(act.algebra, (int(j) for j in kept)))
    act = pullback_action(act, random_hom_to_finite(np.random.default_rng(3), g, image), g)
    salt = int(rng.integers(2**31))
    if flavor == "semidirect":
        bundle = make_semidirect(act)
    elif flavor == "scalar-twist":
        bundle = make_twisted(act, scalar_coboundary_twist(act, salt))
    else:
        bundle = make_twisted(*matrix_twist(act, salt))
    raw = rng.uniform(0.2, 1.0, size=2 + seed % 2)
    mk = lambda: APWitness(
        bundle, {r: random_element(rng, bundle.coeff_algebra, 0.5) for r in g.ball(1)}
    )
    witnesses = [(mk(), float(lam)) for lam in raw / raw.sum()]
    return g, witnesses, default_targets(bundle, radius=1, max_per_fiber=2)


def criterion_7_fixture(seed):
    """The fixture of acceptance criterion 7 at one seed."""
    g = FreeGroup(2)
    rng = np.random.default_rng(700 + seed)
    if seed % 2:
        bundle = group_bundle(g, FdAlgebra([2]))
    else:
        bundle = make_semidirect(random_infinite_partial_action(rng, g))
    mk = lambda: APWitness(
        bundle, {r: random_element(rng, bundle.coeff_algebra, 0.5) for r in g.ball(1)}
    )
    raw = rng.uniform(0.2, 1.0, size=2 + seed % 2)
    witnesses = [(mk(), float(lam)) for lam in raw / raw.sum()]
    return g, witnesses, default_targets(bundle, radius=1, max_per_fiber=2)


class TestTranslateSearch:
    """``convexify`` picks its translates from the clash set F'^-1 F'; the
    greedy scan over translated sets is the reference route."""

    def test_criterion_7_fixtures(self):
        for seed in range(100):
            g, witnesses, targets = criterion_7_fixture(seed)
            _, cert = convexify(witnesses, targets, search_radius=6)
            assert cert.translates == reference_translates(g, witnesses, targets, 6)

    @pytest.mark.parametrize("flavor", ["semidirect", "scalar-twist", "matrix-twist"])
    def test_sweep_free_shapes(self, flavor):
        for seed in range(8):
            g, witnesses, targets = sweep_free_fixture(seed, flavor)
            _, cert = convexify(witnesses, targets, search_radius=6)
            assert cert.translates == reference_translates(g, witnesses, targets, 6)

    def test_small_radius_refused_on_both_routes(self):
        for seed in (0, 1):
            g, witnesses, targets = sweep_free_fixture(seed, "semidirect")
            refused = 0
            for radius in range(3, 7):
                try:
                    want = reference_translates(g, witnesses, targets, radius)
                except TranslateSearchError as exc:
                    with pytest.raises(TranslateSearchError, match=str(exc)):
                        convexify(witnesses, targets, search_radius=radius)
                    refused += 1
                    continue
                assert convexify(witnesses, targets, search_radius=radius)[1].translates == want
            assert 0 < refused < 4


class TestCertify:
    def test_finite_uniform_family_passes(self):
        rng = np.random.default_rng(31)
        bundle, _ = random_fell_bundle(rng, group=random_finite_group(rng))
        verdict = ap_certify(bundle, [uniform_witness(bundle)], tolerance=1e-10)
        assert verdict.passed
        assert all(r.defect <= 1e-10 for r in verdict.rows)
        assert all(abs(r.bound - 1.0) <= 1e-10 for r in verdict.rows)

    def test_zero_family_fails(self):
        rng = np.random.default_rng(32)
        bundle, _ = random_fell_bundle(rng, group=cyclic_group(3))
        verdict = ap_certify(bundle, [APWitness.zero(bundle)], tolerance=1e-6)
        assert not verdict.passed
        for row in verdict.rows:
            assert abs(row.defect - 1.0) <= EXACT  # basis targets have norm 1

    def test_folner_family_trace_decreases(self):
        rng = np.random.default_rng(34)
        g = LatticeGroup(1)
        bundle, _ = random_fell_bundle(rng, group=g)
        t = g.vector([1])
        b = random_fiber_element(rng, bundle, t)
        targets = [Target(t, b, "step")]
        family = [folner_witness(bundle, n) for n in (2, 4, 8, 16)]
        verdict = ap_certify(bundle, family, targets, tolerance=0.1)
        assert len(verdict.rows) == len(family) * len(targets)
        defects = [r.defect for r in verdict.rows]
        assert all(x >= y - EXACT for x, y in zip(defects, defects[1:]))
        assert verdict.passed


def ref_defect_sums(a, targets):
    """``_defect_sums`` as it added its terms before: the same two
    ``mul_many`` calls, then one ``np.add.at`` scatter per size class. The
    bit-for-bit reference of the per-rank additions."""
    bundle = a.bundle
    g = bundle.group
    e = g.identity
    alg = bundle.coeff_algebra
    at = {r: i for i, r in enumerate(a.data)}
    owner, ts, left, right = [], [], [], []
    for i, (t, _) in enumerate(targets):
        for r, k in at.items():
            j = at.get(g.mul(t, r))
            if j is not None:
                owner.append(i)
                ts.append(t)
                left.append(j)
                right.append(k)
    values = stack_elements(alg, list(a.data.values()))
    bs = stack_elements(alg, [b for _, b in targets])
    es = [e] * len(ts)
    mid = bundle.mul_many(
        es, tuple(p[left].conj().swapaxes(-1, -2) for p in values), ts, tuple(p[owner] for p in bs)
    )
    terms = bundle.mul_many(ts, mid, es, tuple(p[right] for p in values))
    sums = tuple(np.zeros(p.shape, dtype=complex) for p in bs)
    for total, p in zip(sums, terms):
        np.add.at(total, owner, p)
    return sums


def pairs_of(targets):
    return [(tgt.t, tgt.b) for tgt in targets]


def basis_pairs(bundle, ts):
    """Every basis target (t, b) of the fibers over the elements ``ts``."""
    return [(t, b) for t, ideal in zip(ts, bundle.fiber_ideals(ts)) for b in ideal.basis()]


def basis_blocks(ideal):
    """The block of each basis element of the ideal, in ``basis`` order."""
    sizes = ideal.algebra.blocks
    return [j for j in sorted(ideal.block_set) for _ in range(sizes[j] ** 2)]


def criterion_5_shapes():
    """(witness, target pairs) on the shapes of acceptance criterion 5:
    uniform witnesses on 12 random finite bundles against the basis of
    every fiber, and box witnesses N = 1..64 on the line (the group bundle
    of M_2 and a random bundle) against the basis of every fiber over
    t = 0, ±1, ±2, ±N//3, ±N//2, ±(N-1), ±N."""
    out = []
    for seed in range(12):
        rng = np.random.default_rng(500 + seed)
        bundle, _ = random_fell_bundle(rng, group=random_finite_group(rng))
        out.append((uniform_witness(bundle), basis_pairs(bundle, bundle.group.elements())))
    line = LatticeGroup(1)
    bundles = [
        group_bundle(line, FdAlgebra([2])),
        random_fell_bundle(np.random.default_rng(640), group=line)[0],
    ]
    for n in range(1, 65):
        bundle = bundles[n % 2]
        offs = {0, 1, 2, n // 3, n // 2, n - 1, n}
        ts = [line.vector([sign * off]) for off in sorted(offs) for sign in (1, -1)]
        out.append((folner_witness(bundle, n), basis_pairs(bundle, ts)))
    return out


def cli_shapes():
    """The bundles of the CLI tests' config (seed 7) with the witness
    ``ap-check`` gives them, against ball(2) basis targets."""
    store = ConfigStore(raw=BASE_CONFIG, sha="-", seed=7)
    out = []
    for name in ("bs3", "b1", "b2", "bz"):
        bundle = store.bundle(name)
        out.append((uniform_witness(bundle), pairs_of(default_targets(bundle, radius=2))))
    bline = store.bundle("bline")
    for n in (1, 8, 64):
        out.append((folner_witness(bline, n), pairs_of(default_targets(bline, radius=2))))
    return out


def moving_unit_bundle(seed, twisted):
    """A bundle over Z4 whose alpha_e is the non-trivial conjugation
    Ad(v_e): the family t -> Ad(v_t) alpha_t of a global action, v a random
    block unitary per element, v_e included, with the twist
    omega(s, t) = v_s alpha_s(v_t) v_st* or the trivial one. Only the module
    product is used on it, not the bundle axioms."""
    rng = np.random.default_rng(900 + seed)
    glob = random_global_action(rng, cyclic_group(4), [1, 2])
    g, alg = glob.group, glob.algebra
    v = {t: random_block_unitary(rng, alg) for t in g.elements()}

    def fam(t):
        iso = glob.iso(t)
        unis = {j: v[t].mats[iso.phi[j]] @ iso.unitaries[j] for j in iso.phi}
        return IdealIso(iso.source, iso.target, dict(iso.phi), unis)

    family = PartialAction(g, alg, fam)
    if not twisted:
        return make_semidirect(family)
    omega = Twist(lambda s, t: v[s] * glob.apply(s, v[t]) * v[g.mul(s, t)].star())
    return make_twisted(family, omega)


def central_gap(a, pairs):
    got = _central_defects(a, pairs)
    want = ap_defects(a, pairs)
    assert len(got) == len(want) == len(pairs)
    return max((abs(x - y) for x, y in zip(got, want)), default=0.0)


class TestDefectSums:
    def test_rank_sums_equal_the_scatter_to_the_bit(self):
        """Random non-central witnesses over F2 (the certify-sweep and
        criterion-7 shapes), where targets own different numbers of terms,
        and the central shapes."""
        cases = []
        for seed in range(4):
            for flavor in ("semidirect", "scalar-twist", "matrix-twist"):
                _, witnesses, targets = sweep_free_fixture(seed, flavor)
                cases += [(a, pairs_of(targets)) for a, _ in witnesses]
            _, witnesses, targets = criterion_7_fixture(seed)
            cases += [(a, pairs_of(targets)) for a, _ in witnesses]
        cases += criterion_5_shapes()[::5] + cli_shapes()
        for a, pairs in cases:
            got, want = _defect_sums(a, pairs), ref_defect_sums(a, pairs)
            assert [p.tobytes() for p in got] == [p.tobytes() for p in want]


class TestCentralRoute:
    """The central route of ``ap_certify`` against ``ap_defects``."""

    def test_criterion_5_shapes(self):
        assert max(central_gap(a, pairs) for a, pairs in criterion_5_shapes()) <= 1e-13

    def test_cli_config_bundles(self):
        assert max(central_gap(a, pairs) for a, pairs in cli_shapes()) <= 1e-13

    def test_moving_unit_bundles(self):
        """alpha_e is a non-trivial conjugation here, so b S_t is not the
        defect sum; alpha_e(b) S_t is."""
        for seed in range(20):
            bundle = moving_unit_bundle(seed, twisted=seed % 2)
            e = bundle.group.identity
            x = random_element(np.random.default_rng(seed), bundle.coeff_algebra)
            assert op_norm(bundle.family.apply(e, x) - x) > 0.1
            pairs = pairs_of(default_targets(bundle, radius=2))
            assert central_gap(uniform_witness(bundle), pairs) <= 1e-13

    def test_near_central_witness_takes_the_direct_route(self, monkeypatch):
        bundle = group_bundle(cyclic_group(3), FdAlgebra([2]))
        a = uniform_witness(bundle)
        nudged = FdElement(bundle.coeff_algebra, list(a.data[bundle.group.identity].mats))
        nudged.mats[0][0, 1] = 1e-300
        b = APWitness(bundle, {**a.data, bundle.group.identity: nudged})
        routes = []
        monkeypatch.setattr(
            approx, "ap_defects", lambda w, pairs: routes.append("direct") or ap_defects(w, pairs)
        )
        monkeypatch.setattr(
            approx,
            "_central_defects",
            lambda w, pairs: routes.append("central") or _central_defects(w, pairs),
        )
        ap_certify(bundle, [a, b, APWitness.zero(bundle)])
        assert routes == ["central", "direct", "central"]

    def test_zero_witness_and_no_targets(self):
        rng = np.random.default_rng(61)
        bundle, _ = random_fell_bundle(rng, group=cyclic_group(4))
        zero = APWitness.zero(bundle)
        pairs = pairs_of(default_targets(bundle))
        pairs += [(t, random_fiber_element(rng, bundle, t)) for t in bundle.group.elements()]
        got = _central_defects(zero, pairs)
        want = [fiber_norm(bundle, t, b) for t, b in pairs]
        assert max(abs(x - y) for x, y in zip(got, want)) <= EXACT
        verdict = ap_certify(bundle, [zero, uniform_witness(bundle)], targets=[])
        assert verdict.rows == () and verdict.passed
        assert _central_defects(uniform_witness(bundle), []) == []

    def test_target_outside_fiber_rejected(self):
        bundle = make_semidirect(random_partial_action(np.random.default_rng(62), cyclic_group(4)))
        alg = bundle.coeff_algebra
        t = next(t for t in bundle.group.elements() if bundle.fiber_ideal(t).dim() < alg.dim)
        with pytest.raises(ValueError, match="outside the fiber"):
            ap_certify(bundle, [uniform_witness(bundle)], [Target(t, alg.one(), "one")])

    def test_one_sum_per_element_not_per_target(self, monkeypatch):
        """S3 with base block M_2, matrix-twisted: ball(1) is the whole
        group and the default targets are 6 x 24 = 144. The central route
        sums 6 x 6 = 36 terms per product step, the direct route 864."""
        glob = random_global_action(np.random.default_rng(63), symmetric_group(3), (2,))
        bundle = make_twisted(*matrix_twist(glob, 63))
        a = uniform_witness(bundle)
        terms = []
        inner = TwistedBundle.mul_many

        def counted(self, ss, xs, ts, ys):
            terms.append(len(ss))
            return inner(self, ss, xs, ts, ys)

        targets = default_targets(bundle)
        monkeypatch.setattr(TwistedBundle, "mul_many", counted)
        assert all(r.defect <= EXACT for r in ap_certify(bundle, [a], targets).rows)
        assert len(targets) == 144 and terms == [36, 36]
        terms.clear()
        ap_defects(a, pairs_of(targets))
        assert terms == [864, 864]


class TestAdFunction:
    def test_box_on_the_line(self):
        """c_t = 1 - |t|/N on every block, and |1 - c_{t,j}| is the defect
        at every basis target in block j."""
        line = LatticeGroup(1)
        bundle = group_bundle(line, FdAlgebra([1, 2]))
        for n in (1, 4, 10):
            a = folner_witness(bundle, n)
            for off in range(-n - 1, n + 2):
                t = line.vector([off])
                c = ad_function(a, t)
                assert np.abs(c - max(0.0, 1 - abs(off) / n)).max() <= EXACT
                ideal = bundle.fiber_ideal(t)
                defects = ap_defects(a, [(t, b) for b in ideal.basis()])
                want = [abs(1 - c[j]) for j in basis_blocks(ideal)]
                assert want == pytest.approx(defects, abs=EXACT)

    def test_basis_defects_on_criterion_5_bundles(self):
        """On the random finite bundles with every basis target of each
        fiber, the defect is |1 - c_{t,j}| and c vanishes off D_t."""
        for seed in range(12):
            rng = np.random.default_rng(500 + seed)
            bundle, _ = random_fell_bundle(rng, group=random_finite_group(rng))
            alg = bundle.coeff_algebra
            a = folner_witness(bundle) if seed % 2 else APWitness(
                bundle, {r: 0.5 * alg.one() for r in bundle.group.ball(1)[:3]}
            )
            ts = bundle.group.elements()
            for t, ideal in zip(ts, bundle.fiber_ideals(ts)):
                c = ad_function(a, t)
                assert all(c[j] == 0 for j in range(alg.nblocks) if j not in ideal.block_set)
                defects = ap_defects(a, [(t, b) for b in ideal.basis()])
                want = [abs(1 - c[j]) for j in basis_blocks(ideal)]
                assert want == pytest.approx(defects, abs=1e-13)

    def test_non_central_witness_refused(self):
        bundle = group_bundle(cyclic_group(3), FdAlgebra([2]))
        x = random_element(np.random.default_rng(64), bundle.coeff_algebra)
        with pytest.raises(ValueError, match="not central"):
            ad_function(APWitness(bundle, {bundle.group.identity: x}), bundle.group.identity)
