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
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fellap.algebra import FdAlgebra, Ideal, op_norm, pullback_action, restrict_action
from fellap.approx import (
    APWitness,
    Target,
    TranslateSearchError,
    ap_certify,
    ap_defect,
    ap_defect_partial,
    convexify,
    default_targets,
    folner_witness,
    uniform_witness,
    witness_bound,
    witness_gram,
)
from fellap.bundles import fiber_norm, group_bundle, make_semidirect, make_twisted
from fellap.groups import FreeGroup, LatticeGroup, UnsupportedGroupError, cyclic_group
from fellap.testing import (
    matrix_twist,
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
        assert a.support() == [e]
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
