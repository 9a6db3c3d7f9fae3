"""Bundle products, twists, sections, sub-bundle expectations, and the
actions a bundle induces on the center and spectrum of its unit fiber.

Frozen oracle facts, computed by hand first:

* Translation of Z3 on C^3, semidirect product: with a = (1,2,3) at 1 and
  b = (4,5,6) at 1, the product coefficient is (6,8,15) at 2, and the
  adjoint of a d_1 has coefficient (2,3,1) at 2.
* Z2 with the sign twist omega(1,1) = -1 on C: (1 d_1)(1 d_1) = -1 d_0.
* The scalar twist omega(1,1) = i over Z2 satisfies the cocycle law (it is
  the coboundary of b(1) = exp(i pi/4)); the same assignment over Z3 fails
  it at (r, s, t) = (1, 1, 2).
* For a semidirect bundle the central action's block permutation at t is
  exactly the block permutation of the underlying partial action at t.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest

import fellap.bundles as bundles_module
from fellap.algebra import (
    ActionReport,
    FdAlgebra,
    FdElement,
    Ideal,
    PartialAction,
    apply_many,
    identity_action,
    op_norm,
    restrict_action,
    split_batch,
    stack_elements,
    translation_action,
    unit_identity_residual,
)
from fellap.bundles import (
    Section,
    Twist,
    TwistedBundle,
    central_partial_action,
    fiber_norm,
    group_bundle,
    make_semidirect,
    make_twisted,
    mask_sub_bundle,
    restrict_to_subgroup,
    subgroup_sub_bundle,
    trace_sub_bundle,
    validate_bundle,
    validate_twist,
)
from fellap.groups import FreeGroup, LatticeGroup, cyclic_group, symmetric_group
from fellap.testing import (
    matrix_twist,
    random_element,
    random_fell_bundle,
    random_global_action,
    random_infinite_partial_action,
    random_partial_action,
    random_section,
    scalar_coboundary_twist,
)

TOL = 1e-10


def rng_for(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def scalar_twist_on(group, values: dict[tuple[int, int], complex]) -> tuple[PartialAction, Twist]:
    """Identity family on C with prescribed scalar twist values (default 1)."""
    pa = identity_action(group, FdAlgebra([1]))

    def fn(s, t):
        w = values.get((s.data, t.data), 1.0)
        return FdElement(pa.algebra, [np.array([[w]], dtype=complex)])

    return pa, Twist(fn)


class TestSemidirectProducts:
    def test_cyclic_shift_product_oracle(self):
        z3 = cyclic_group(3)
        bundle = make_semidirect(translation_action(z3, FdAlgebra([1])))
        alg = bundle.coeff_algebra

        def vec(*vals):
            return FdElement(alg, [np.array([[v]], dtype=complex) for v in vals])

        a, b = vec(1, 2, 3), vec(4, 5, 6)
        t1 = z3.elem(1)
        prod = bundle.mul(t1, a, t1, b)
        assert op_norm(prod - vec(6, 8, 15)) <= 1e-14
        adj = bundle.star(t1, a)
        assert op_norm(adj - vec(2, 3, 1)) <= 1e-14

    def test_sign_twist_oracle(self):
        z2 = cyclic_group(2)
        pa, twist = scalar_twist_on(z2, {(1, 1): -1.0})
        assert validate_twist(pa, twist).passed
        bundle = make_twisted(pa, twist)
        one = pa.algebra.one()
        g1 = z2.elem(1)
        prod = bundle.mul(g1, one, g1, one)
        assert op_norm(prod + one) <= 1e-14  # equals -1 at the identity fiber

    def test_fiber_norm_is_coefficient_norm(self):
        pa = random_partial_action(rng_for(1))
        bundle = make_semidirect(pa)
        t = pa.group.elem(1 % pa.group.order)
        a = bundle.fiber_ideal(t).project(random_element(rng_for(2), pa.algebra))
        assert fiber_norm(bundle, t, a) == pytest.approx(op_norm(a), abs=1e-14)

    def test_fiber_ideals_read_as_one_at_a_time(self):
        """One batched read gives each element's fiber ideal, repeats and
        elements not read before included."""
        for group in (symmetric_group(3), FreeGroup(2)):
            bundle, _ = random_fell_bundle(rng_for(3), group)
            ball = group.ball(2)
            ts = ball + ball[::-1]
            got = bundle.fiber_ideals(ts)
            assert got == [bundle.fiber_ideal(t) for t in ts]
            assert got[: len(ball)] == [bundle.family.domain(t) for t in ball]


class TestTwistValidation:
    def test_i_twist_over_z2_passes(self):
        pa, twist = scalar_twist_on(cyclic_group(2), {(1, 1): 1j})
        rep = validate_twist(pa, twist)
        assert rep.passed, rep.render()

    def test_i_twist_over_z3_fails_cocycle(self):
        pa, twist = scalar_twist_on(cyclic_group(3), {(1, 1): 1j})
        rep = validate_twist(pa, twist)
        assert not rep.passed
        axioms = {a for a, _, _ in rep.rows}
        assert axioms == {"cocycle"}
        contexts = {ctx for a, ctx, _ in rep.rows}
        assert "(r=1, s=1, t=2)" in contexts

    def test_scalar_coboundaries_pass(self):
        for seed in range(3):
            pa = random_partial_action(rng_for(seed))
            twist = scalar_coboundary_twist(pa, salt=seed)
            assert validate_twist(pa, twist).passed

    def test_matrix_twists_pass(self):
        for seed in (5, 6):
            glob = random_global_action(rng_for(seed))
            family, twist = matrix_twist(glob, salt=seed)
            rep = validate_twist(family, twist)
            assert rep.passed, rep.render()

    def test_matrix_family_with_trivial_twist_fails(self):
        glob = random_global_action(rng_for(7), cyclic_group(3), [2])
        family, _ = matrix_twist(glob, salt=7)
        from fellap.bundles import trivial_twist

        rep = validate_twist(family, trivial_twist(family))
        assert not rep.passed
        assert "composition" in {a for a, _, _ in rep.rows}

    def test_corrupted_twist_unitary_flagged(self):
        pa = random_global_action(rng_for(8), cyclic_group(3))
        good = scalar_coboundary_twist(pa, salt=8)

        def fn(s, t):
            w = good.omega(s, t)
            if s.data == 1 and t.data == 1:
                return 1.1 * w
            return w

        rep = validate_twist(pa, Twist(fn))
        assert not rep.passed
        assert "twist-unitary" in {a for a, _, _ in rep.rows}


def _product(bundle, s, a, t, b):
    return a * bundle.family.iso(s).apply(b) * bundle.twist.omega(s, t)


def ref_mul(bundle, s, a, t, b):
    """Reference route to ``mul_many``, one term at a time in element
    arithmetic: a gamma_s(b) omega(s, t), or the broken bundles' own
    formula (their ``ref_mul``)."""
    own = getattr(bundle, "ref_mul", None)
    return own(s, a, t, b) if own is not None else _product(bundle, s, a, t, b)


def ref_star(bundle, t, a):
    """Reference route to ``star_many``: omega(t^-1, t)* gamma_{t^-1}(a*)."""
    tinv = bundle.group.inv(t)
    return bundle.twist.omega(tinv, t).star() * bundle.family.iso(tinv).apply(a.star())


def expect(sub, t, a):
    """The expectation of one fiber element, through ``expect_many``."""
    alg = sub.bundle.coeff_algebra
    return split_batch(alg, sub.expect_many([t], stack_elements(alg, [a])), 1)[0]


class _WrongInverseBundle(TwistedBundle):
    """Deliberately wrong twisted product: pulls a back along the map at
    s^-1 instead of the inverse of the map at s. It overrides ``mul_many``;
    ``ref_mul`` is the same formula one term at a time."""

    def ref_mul(self, s, a, t, b):
        g = self.group
        pulled = self.family.iso(g.inv(s)).apply(a)
        return self.twist.omega(s, t) * self.family.iso(s).apply(pulled * b)

    def mul_many(self, ss, xs, ts, ys):
        inv = self.group.inv
        pulled = apply_many(self.family.isos([inv(s) for s in ss]), xs)
        moved = apply_many(self.family.isos(ss), tuple(p @ q for p, q in zip(pulled, ys)))
        omegas = self.twist.take(self.twist.rows(list(zip(ss, ts))))
        return tuple(w @ y for w, y in zip(omegas, moved))


class _ScaledBundle(TwistedBundle):
    """Deliberately non-associative product: scaled whenever s = 1. It
    overrides ``mul_many``; ``ref_mul`` is the same formula one term at a
    time."""

    def ref_mul(self, s, a, t, b):
        out = _product(self, s, a, t, b)
        return 1.01 * out if s.data == 1 else out

    def mul_many(self, ss, xs, ts, ys):
        scale = np.array([1.01 if s.data == 1 else 1.0 for s in ss])[:, None, None, None]
        return tuple(scale * p for p in super().mul_many(ss, xs, ts, ys))


class TestBundleValidation:
    def test_random_bundles_pass(self):
        for seed in range(10):
            bundle, label = random_fell_bundle(rng_for(seed))
            window = 2 if bundle.group.is_finite else 1
            rep = validate_bundle(bundle, window=window, samples=2, seed=seed)
            assert rep.passed, f"{label}: {rep.render()}"

    def test_wrong_inverse_convention_is_caught(self):
        glob = random_global_action(rng_for(11), cyclic_group(3), [2])
        family, twist = matrix_twist(glob, salt=11)
        good = make_twisted(family, twist)
        assert validate_bundle(good, window=2, seed=1).passed
        bad = _WrongInverseBundle(family, twist)
        rep = validate_bundle(bad, window=2, seed=1)
        assert not rep.passed
        assert rep.max_residual > 1e-6

    def test_scaled_product_breaks_associativity(self):
        pa = random_partial_action(rng_for(12), cyclic_group(3))
        base = make_semidirect(pa)
        rep = validate_bundle(_ScaledBundle(pa, base.twist), window=2, seed=2)
        assert not rep.passed
        axioms = {a for a, _, _ in rep.rows}
        assert axioms & {"associativity", "involution-antihom", "cstar-identity"}

    def test_group_bundle_over_free_group(self):
        bundle = group_bundle(FreeGroup(2), FdAlgebra([2]))
        rep = validate_bundle(bundle, window=1, samples=1, seed=3)
        assert rep.passed

    def test_subgroup_restriction(self):
        z4 = cyclic_group(4)
        bundle = group_bundle(z4, FdAlgebra([2]))
        sub = restrict_to_subgroup(bundle, lambda t: t.data % 2 == 0)
        assert validate_bundle(sub, window=2, samples=2, seed=4).passed
        assert sub.fiber_ideal(z4.elem(1)).block_set == frozenset()
        assert sub.fiber_ideal(z4.elem(2)).block_set == frozenset({0})


class TestSections:
    def test_inner_against_per_term_sum(self):
        rng = rng_for(22)
        for flavor in ("semidirect", "scalar-twist", "matrix-twist"):
            bundle, _ = random_fell_bundle(rng, cyclic_group(4), flavor)
            g = bundle.group
            f = random_section(rng, bundle, g.elements())
            h = random_section(rng, bundle, g.elements()[1:])
            for x, y in ((f, f), (f, h), (h, f)):
                want = bundle.coeff_algebra.zero()
                for t in y.data:
                    xt = ref_star(bundle, t, x.data.get(t, bundle.coeff_algebra.zero()))
                    want = want + ref_mul(bundle, g.inv(t), xt, t, y.data[t])
                assert op_norm(x.inner(y) - want) <= 1e-12
            rhs = f.inner(f)
            evs = [w for m in rhs.mats if m.size for w in np.linalg.eigvalsh(m)]
            assert min(evs, default=0.0) >= -1e-12
            assert op_norm(Section(bundle, {}).inner(f)) == 0.0

    def test_right_mul_against_per_term_products(self):
        rng = rng_for(24)
        for flavor in ("semidirect", "scalar-twist", "matrix-twist"):
            bundle, _ = random_fell_bundle(rng, symmetric_group(3), flavor)
            g = bundle.group
            f = random_section(rng, bundle, g.elements())
            b = random_element(rng, bundle.coeff_algebra)
            got = f.right_mul(b)
            assert list(got.data) == list(f.data)
            for t, a in f.data.items():
                want = ref_mul(bundle, t, a, g.identity, b)
                assert op_norm(got.data[t] - want) <= 1e-12
            assert Section(bundle, {}).right_mul(b).data == {}


class TestSubBundles:
    def test_fiberwise_expectations_are_contractive_idempotent(self):
        rng = rng_for(30)
        z2 = cyclic_group(2)
        bundle = group_bundle(z2, FdAlgebra([2, 1]))
        subs = [
            subgroup_sub_bundle(bundle, lambda t: t.data == 0),
            mask_sub_bundle(
                bundle, [np.eye(2), np.eye(1)]
            ),
            trace_sub_bundle(bundle, lambda t: True),
        ]
        for sub in subs:
            for t in z2.elements():
                a = bundle.fiber_ideal(t).project(
                    random_element(rng, bundle.coeff_algebra)
                )
                ea = expect(sub, t, a)
                assert op_norm(ea) <= op_norm(a) + 1e-12
                assert op_norm(expect(sub, t, ea) - ea) <= 1e-12

    def test_batched_expectations_match_per_element_formulas(self):
        """``expect_many`` against the projections written one element and
        one block at a time, bit for bit, with non-members sent to zero."""
        rng = rng_for(32)
        for group, blocks in ((cyclic_group(3), [2, 1, 2]), (symmetric_group(3), [1, 3])):
            bundle = group_bundle(group, FdAlgebra(blocks))
            alg = bundle.coeff_algebra
            e = group.identity
            masks = [np.triu(np.ones((d, d))) for d in blocks]

            def mask(a):
                return FdElement(alg, [m * w for m, w in zip(a.mats, masks)])

            def trace(a):
                mats = [np.trace(m) / len(m) * np.eye(len(m), dtype=complex) for m in a.mats]
                return FdElement(alg, mats)

            for sub, one in (
                (subgroup_sub_bundle(bundle, lambda t: t == e), lambda a: a),
                (mask_sub_bundle(bundle, masks), mask),
                (trace_sub_bundle(bundle, lambda t: t != e), trace),
            ):
                ts = [group.elements()[i] for i in rng.integers(len(group.elements()), size=7)]
                xs = [random_element(rng, alg) for _ in ts]
                got = split_batch(alg, sub.expect_many(ts, stack_elements(alg, xs)), len(ts))
                for t, x, y in zip(ts, xs, got):
                    want = one(x) if sub.member(t) else alg.zero()
                    assert all(np.array_equal(p, q) for p, q in zip(y.packs, want.packs))

    def test_mask_expectation_is_bimodular(self):
        rng = rng_for(31)
        z3 = cyclic_group(3)
        bundle = group_bundle(z3, FdAlgebra([2]))
        sub = mask_sub_bundle(bundle, [np.eye(2)])
        g = bundle.group
        s, t, u = (z3.elem(k) for k in (1, 2, 0))
        a = bundle.fiber_ideal(t).project(random_element(rng, bundle.coeff_algebra))
        n1 = expect(sub, s, random_element(rng, bundle.coeff_algebra))
        n2 = expect(sub, u, random_element(rng, bundle.coeff_algebra))
        lhs = expect(
            sub,
            g.mul(g.mul(s, t), u),
            bundle.mul(g.mul(s, t), bundle.mul(s, n1, t, a), u, n2),
        )
        rhs = bundle.mul(
            g.mul(s, t), bundle.mul(s, n1, t, expect(sub, t, a)), u, n2
        )
        assert op_norm(lhs - rhs) <= 1e-12


class TestInducedActions:
    def test_central_action_matches_family_blocks(self):
        for seed in range(40, 44):
            pa = random_partial_action(rng_for(seed))
            bundle = make_semidirect(pa)
            central = central_partial_action(bundle)
            for t in pa.group.elements():
                assert dict(central.iso(t).phi) == dict(pa.iso(t).phi)

    def test_central_action_on_matrix_twisted_bundle(self):
        glob = random_global_action(rng_for(45), cyclic_group(4), [1, 2])
        family, twist = matrix_twist(glob, salt=45)
        bundle = make_twisted(family, twist)
        central = central_partial_action(bundle)
        for t in glob.group.elements():
            assert dict(central.iso(t).phi) == dict(glob.iso(t).phi)
        assert unit_identity_residual(central) <= 1e-12

    def test_central_units_satisfy_projection_identity(self):
        for seed in (46, 47):
            bundle, _ = random_fell_bundle(rng_for(seed), cyclic_group(6))
            central = central_partial_action(bundle)
            assert unit_identity_residual(central) <= 1e-12

    def test_central_action_finds_each_generated_ideal_once(self, monkeypatch):
        """``solve`` needs the generated ideal at t and at t^-1; over every t
        of Z6 that is 10 asks of 5 ideals, each computed once."""
        bundle, _ = random_fell_bundle(rng_for(46), cyclic_group(6))
        g = bundle.group
        want = central_partial_action(bundle)
        want_phi = {t: dict(want.iso(t).phi) for t in g.elements()}
        asked = []
        inner = bundles_module._generated_ideal_blocks

        def counted(bundle, t):
            asked.append(t)
            return inner(bundle, t)

        monkeypatch.setattr(bundles_module, "_generated_ideal_blocks", counted)
        central = central_partial_action(bundle)
        assert {t: dict(central.iso(t).phi) for t in g.elements()} == want_phi
        assert len(asked) == len(set(asked)) == 5
        assert set(asked) == set(g.elements()) - {g.identity}

    def test_central_action_points_and_function_relation(self):
        z4 = cyclic_group(4)
        glob = random_global_action(rng_for(48), z4, [1])
        pa = restrict_action(glob, Ideal(glob.algebra, [0, 1, 3]))
        bundle = make_semidirect(pa)
        central = central_partial_action(bundle)
        assert central.algebra.nblocks == 3
        rng = rng_for(49)
        for t in z4.elements():
            assert dict(central.iso(t).phi) == dict(pa.iso(t).phi)
            f = random_element(rng, bundle.coeff_algebra)
            b = bundle.fiber_ideal(t).project(random_element(rng, bundle.coeff_algebra))
            moved = central.apply(t, f)
            lhs = bundle.mul(z4.identity, moved, t, b)
            rhs = bundle.mul(t, b, z4.identity, f)
            assert op_norm(lhs - rhs) <= 1e-12

    def test_central_action_on_infinite_group_bundle(self):
        pa = random_infinite_partial_action(rng_for(50), FreeGroup(2))
        bundle = make_semidirect(pa)
        central = central_partial_action(bundle)
        for t in FreeGroup(2).ball(1):
            assert dict(central.iso(t).phi) == dict(pa.iso(t).phi)

    def test_central_action_lattice(self):
        pa = random_infinite_partial_action(rng_for(51), LatticeGroup(2))
        central = central_partial_action(make_semidirect(pa))
        ball = LatticeGroup(2).ball(1)
        assert unit_identity_residual(central, elements=ball) <= 1e-12


def _fiber_samples(rng, bundle, elems):
    return [bundle.fiber_ideal(t).project(random_element(rng, bundle.coeff_algebra)) for t in elems]


def _many_gap(bundle, rng, elems) -> float:
    """Largest gap between mul_many/star_many and the per-term reference
    route (``ref_mul``, ``ref_star``) over all pairs of ``elems``, each term
    with its own (s, t) and samples."""
    alg = bundle.coeff_algebra
    ss = [s for s in elems for _ in elems]
    ts = [t for _ in elems for t in elems]
    xs, ys = _fiber_samples(rng, bundle, ss), _fiber_samples(rng, bundle, ts)
    m = len(ss)
    prods = split_batch(
        alg, bundle.mul_many(ss, stack_elements(alg, xs), ts, stack_elements(alg, ys)), m
    )
    stars = split_batch(alg, bundle.star_many(ts, stack_elements(alg, ys)), m)
    gap = 0.0
    for s, x, t, y, p, q in zip(ss, xs, ts, ys, prods, stars):
        gap = max(
            gap, op_norm(p - ref_mul(bundle, s, x, t, y)), op_norm(q - ref_star(bundle, t, y))
        )
    return gap


class TestBatchedProducts:
    @pytest.mark.parametrize("flavor", ["semidirect", "scalar-twist", "matrix-twist"])
    def test_many_match_per_term(self, flavor):
        worst = 0.0
        for seed in range(100):
            rng = rng_for(seed)
            bundle, _ = random_fell_bundle(rng, flavor=flavor)
            worst = max(worst, _many_gap(bundle, rng, bundle.group.ball(1)))
        assert worst <= 1e-13

    def test_product_is_the_module_formula(self):
        """a gamma_s(b) omega(s, t) equals gamma_s(gamma_s^-1(a) b) omega(s, t)."""
        worst = 0.0
        for seed in range(30):
            rng = rng_for(seed)
            bundle, _ = random_fell_bundle(rng, flavor=_CHAR_FLAVORS[seed % 3])
            elems = bundle.group.ball(1)
            for s in elems:
                iso = bundle.family.iso(s)
                for t in elems:
                    a, b = _fiber_samples(rng, bundle, [s, t])
                    a = a + random_element(rng, bundle.coeff_algebra)  # mass outside A_s too
                    want = iso.apply(iso.inverse().apply(a) * b) * bundle.twist.omega(s, t)
                    worst = max(worst, op_norm(bundle.mul(s, a, t, b) - want))
        assert worst <= 1e-13

    def test_empty_fibers_and_zero_algebra(self):
        z4 = cyclic_group(4)
        twisted, _ = random_fell_bundle(rng_for(70), z4, "scalar-twist")
        for base in (twisted, group_bundle(z4, FdAlgebra([2]))):
            sub = restrict_to_subgroup(base, lambda t: t.data % 2 == 0)
            assert sub.fiber_ideal(z4.elem(1)).block_set == frozenset()
            assert _many_gap(sub, rng_for(71), z4.elements()) <= 1e-13
        zero = group_bundle(z4, FdAlgebra([]))
        assert zero.mul_many([z4.elem(1)] * 3, (), [z4.elem(2)] * 3, ()) == ()
        assert zero.star_many([z4.elem(1)] * 3, ()) == ()
        assert _many_gap(zero, rng_for(72), z4.elements()) == 0.0
        assert validate_bundle(zero, window=2, samples=2).passed

    def test_overriding_subclasses_stay_broken(self):
        """Bundles that override ``mul_many`` with a broken product match
        their own per-term formula, and fail ``validate_bundle``."""
        glob = random_global_action(rng_for(11), cyclic_group(3), [2])
        family, twist = matrix_twist(glob, salt=11)
        pa = random_partial_action(rng_for(12), cyclic_group(3))
        wrong = _WrongInverseBundle(family, twist)
        for bad in (wrong, _ScaledBundle(pa, make_semidirect(pa).twist)):
            elems = bad.group.elements()
            assert _many_gap(bad, rng_for(73), elems) <= 1e-13
            good = TwistedBundle(bad.family, bad.twist)
            assert _many_gap(good, rng_for(73), elems) <= 1e-13
            rep = validate_bundle(bad, window=2, seed=3)
            assert not rep.passed and rep.max_residual > 1e-6
            assert validate_bundle(good, window=2, seed=3).passed

    def test_class_level_wrapper_keeps_the_batched_path(self, monkeypatch):
        """With ``mul`` and ``star`` wrapped at class level, as a tracer
        wraps them, the validator and the library's other product callers
        never call them: every product goes through the batched routes."""
        bundle, _ = random_fell_bundle(rng_for(74), symmetric_group(3), "matrix-twist")
        want = validate_bundle(bundle, window=2, samples=2, seed=5)
        calls = []
        for name in ("mul", "star"):
            inner = getattr(TwistedBundle, name)

            def counted(self, *args, _name=name, _inner=inner):
                calls.append(_name)
                return _inner(self, *args)

            monkeypatch.setattr(TwistedBundle, name, counted)
        got = validate_bundle(bundle, window=2, samples=2, seed=5)
        assert calls == []
        assert (got.checked, got.rows) == (want.checked, want.rows)
        g = bundle.group
        f = random_section(rng_for(75), bundle, g.elements())
        f.right_mul(random_element(rng_for(76), bundle.coeff_algebra)).inner(f)
        central = central_partial_action(bundle)
        for t in g.elements():
            central.iso(t)
        assert calls == []


# ---------------------------------------------------------------------------
# Characterization of the validators.
#
# Recorded from the per-block fiber arithmetic (one numpy call per block)
# and pinned here, so that any faster arithmetic shows it changes speed and
# nothing else: the same check count, the same violated (axiom, context)
# rows, the same sequence of ActionReport.add calls, and residuals within
# 1e-12. Every add is traced, passing checks included, and summarised per
# axiom by its largest residual.
# ---------------------------------------------------------------------------

_CHAR_GROUPS = {
    "Z3": lambda: cyclic_group(3),
    "S3": lambda: symmetric_group(3),
    "F2": lambda: FreeGroup(2),
}
_CHAR_FLAVORS = ("semidirect", "scalar-twist", "matrix-twist")


def _char_flavor_bundle(group: str, flavor: str) -> TwistedBundle:
    seed = 100 + 10 * list(_CHAR_GROUPS).index(group) + _CHAR_FLAVORS.index(flavor)
    bundle, _ = random_fell_bundle(rng_for(seed), _CHAR_GROUPS[group](), flavor)
    return bundle


def _char_perturbed_twist() -> ActionReport:
    """Scalar coboundary on a global Z3 action, omega(1, 1) turned by a
    phase: the pair's corner is the whole algebra, so the cocycle law fails."""
    pa = random_global_action(rng_for(8), cyclic_group(3))
    good = scalar_coboundary_twist(pa, salt=8)

    def fn(s, t):
        w = good.omega(s, t)
        return np.exp(0.3j) * w if (s.data, t.data) == (1, 1) else w

    return validate_twist(pa, Twist(fn), window=1)


def _char_wrong_inverse() -> ActionReport:
    glob = random_global_action(rng_for(11), cyclic_group(3), [2])
    family, twist = matrix_twist(glob, salt=11)
    return validate_bundle(_WrongInverseBundle(family, twist), window=2, seed=1)


def _char_scaled() -> ActionReport:
    pa = random_partial_action(rng_for(12), cyclic_group(3))
    return validate_bundle(_ScaledBundle(pa, make_semidirect(pa).twist), window=2, seed=2)


def _char_cases():
    cases = {}
    for group in _CHAR_GROUPS:
        for flavor in _CHAR_FLAVORS:
            cases[f"bundle/{flavor}/{group}"] = (
                lambda group=group, flavor=flavor: validate_bundle(
                    _char_flavor_bundle(group, flavor), window=1, samples=2, seed=7
                )
            )
            cases[f"twist/{flavor}/{group}"] = (
                lambda group=group, flavor=flavor: validate_twist(
                    _char_flavor_bundle(group, flavor).family,
                    _char_flavor_bundle(group, flavor).twist,
                    window=1,
                )
            )
    cases["bundle/wrong-inverse"] = _char_wrong_inverse
    cases["bundle/scaled"] = _char_scaled
    cases["twist/perturbed-scalar"] = _char_perturbed_twist
    return cases


def _char_trace(monkeypatch, run) -> dict:
    """Run one validator with every ActionReport.add call traced."""
    calls = []
    add = ActionReport.add

    def traced(self, axiom, context, residual, tol):
        calls.append((axiom, context, float(residual)))
        add(self, axiom, context, residual, tol)

    with monkeypatch.context() as m:
        m.setattr(ActionReport, "add", traced)
        rep = run()
    worst: dict[str, float] = {}
    for axiom, _, residual in calls:
        worst[axiom] = max(worst.get(axiom, 0.0), residual)
    order = "\n".join(f"{axiom}|{context}" for axiom, context, _ in calls)
    return {
        "checked": rep.checked,
        "order_crc": zlib.crc32(order.encode()),
        "rows": [(a, c, float(r)) for a, c, r in rep.rows],
        "worst": worst,
    }


def _close(got: float, want: float) -> bool:
    if want == float("inf"):
        return got == want
    return abs(got - want) <= 1e-12


class TestValidatorCharacterization:
    @pytest.mark.parametrize("name", sorted(_char_cases()))
    def test_matches_recording(self, monkeypatch, name):
        want = _CHAR_RECORDED[name]
        got = _char_trace(monkeypatch, _char_cases()[name])
        assert got["checked"] == want["checked"]
        assert got["order_crc"] == want["order_crc"]
        assert [(a, c) for a, c, _ in got["rows"]] == [(a, c) for a, c, _ in want["rows"]]
        for (_, _, r), (_, _, w) in zip(got["rows"], want["rows"]):
            assert _close(r, w), (r, w)
        assert set(got["worst"]) == set(want["worst"])
        for axiom, w in want["worst"].items():
            assert _close(got["worst"][axiom], w), (axiom, got["worst"][axiom], w)


_CHAR_RECORDED: dict[str, dict] = {
    'bundle/matrix-twist/F2': {
        "checked": 180,
        "order_crc": 966686370,
        "rows": [],
        "worst": {
            'submultiplicative': 1.7763568394002505e-15,
            'involution-antihom': 2.7307198622557486e-14,
            'associativity': 3.0211124893666413e-14,
            'involutive': 1.1129397471172595e-14,
            'cstar-identity': 1.5987211554602254e-14,
            'positivity': 0.0,
        },
    },
    'bundle/matrix-twist/S3': {
        "checked": 252,
        "order_crc": 2283751748,
        "rows": [],
        "worst": {
            'submultiplicative': 0.0,
            'involution-antihom': 7.209430583657489e-14,
            'associativity': 8.160363890445668e-14,
            'involutive': 9.394033448850115e-15,
            'cstar-identity': 3.019806626980426e-14,
            'positivity': 0.0,
        },
    },
    'bundle/matrix-twist/Z3': {
        "checked": 72,
        "order_crc": 356120441,
        "rows": [],
        "worst": {
            'submultiplicative': 0.0,
            'involution-antihom': 3.591777225210117e-14,
            'associativity': 5.371800837037033e-14,
            'involutive': 9.530346030816338e-15,
            'cstar-identity': 3.375077994860476e-14,
            'positivity': 0.0,
        },
    },
    'bundle/scalar-twist/F2': {
        "checked": 180,
        "order_crc": 966686370,
        "rows": [],
        "worst": {
            'submultiplicative': 0.0,
            'involution-antihom': 6.2727600891321345e-15,
            'associativity': 1.9860273225978185e-15,
            'involutive': 4.528839093602941e-15,
            'cstar-identity': 1.3322676295501878e-14,
            'positivity': 0.0,
        },
    },
    'bundle/scalar-twist/S3': {
        "checked": 252,
        "order_crc": 2283751748,
        "rows": [],
        "worst": {
            'submultiplicative': 0.0,
            'involution-antihom': 2.904370685903291e-15,
            'associativity': 7.157454993484855e-15,
            'involutive': 3.7893204607704044e-15,
            'cstar-identity': 1.4210854715202004e-14,
            'positivity': 0.0,
        },
    },
    'bundle/scalar-twist/Z3': {
        "checked": 72,
        "order_crc": 356120441,
        "rows": [],
        "worst": {
            'submultiplicative': 0.0,
            'involution-antihom': 1.047660898731562e-14,
            'associativity': 9.13174918901382e-15,
            'involutive': 2.085956936786604e-15,
            'cstar-identity': 8.881784197001252e-15,
            'positivity': 0.0,
        },
    },
    'bundle/scaled': {
        "checked": 72,
        "order_crc": 356120441,
        "rows": [
            ('involution-antihom', '(s=0, t=2)', 0.0818014794693653),
            ('involution-antihom', '(s=0, t=2)', 0.030368798070160796),
            ('involution-antihom', '(s=1, t=0)', 0.09348710842092972),
            ('involution-antihom', '(s=1, t=0)', 0.041689748203153215),
            ('associativity', '(s=2, t=1)', 0.058936349185657835),
            ('associativity', '(s=2, t=1)', 0.1867280022488191),
            ('cstar-identity', '2', 0.04696775901239025),
            ('cstar-identity', '2', 0.0711123546889656),
        ],
        "worst": {
            'submultiplicative': 0.0,
            'involution-antihom': 0.09348710842092972,
            'associativity': 0.1867280022488191,
            'involutive': 3.380383001671317e-15,
            'cstar-identity': 0.0711123546889656,
            'positivity': 0.0,
        },
    },
    'bundle/semidirect/F2': {
        "checked": 180,
        "order_crc": 966686370,
        "rows": [],
        "worst": {
            'submultiplicative': 0.0,
            'involution-antihom': 4.577566798522237e-16,
            'associativity': 3.1401849173675503e-16,
            'involutive': 1.790180836524724e-15,
            'cstar-identity': 3.552713678800501e-15,
            'positivity': 0.0,
        },
    },
    'bundle/semidirect/S3': {
        "checked": 252,
        "order_crc": 2283751748,
        "rows": [],
        "worst": {
            'submultiplicative': 0.0,
            'involution-antihom': 9.5806845824377e-15,
            'associativity': 2.1034899554301e-14,
            'involutive': 8.459249005457747e-15,
            'cstar-identity': 6.039613253960852e-14,
            'positivity': 0.0,
        },
    },
    'bundle/semidirect/Z3': {
        "checked": 72,
        "order_crc": 356120441,
        "rows": [],
        "worst": {
            'submultiplicative': 0.0,
            'involution-antihom': 6.797320464008797e-15,
            'associativity': 1.0029139916002254e-14,
            'involutive': 2.9174883485886473e-15,
            'cstar-identity': 1.0658141036401503e-14,
            'positivity': 0.0,
        },
    },
    'bundle/wrong-inverse': {
        "checked": 72,
        "order_crc": 356120441,
        "rows": [
            ('involution-antihom', '(s=0, t=1)', 5.778834165323827),
            ('involution-antihom', '(s=0, t=1)', 5.555821865014659),
            ('associativity', '(s=0, t=1)', 14.449266045800455),
            ('associativity', '(s=0, t=1)', 10.174189233595659),
            ('involution-antihom', '(s=0, t=2)', 10.391353458695397),
            ('involution-antihom', '(s=0, t=2)', 8.00142903765751),
            ('associativity', '(s=0, t=2)', 12.561780681867702),
            ('associativity', '(s=0, t=2)', 43.112219026029706),
            ('involution-antihom', '(s=1, t=0)', 5.918913028492961),
            ('involution-antihom', '(s=1, t=0)', 13.795406808701875),
            ('associativity', '(s=1, t=0)', 18.529113876282462),
            ('associativity', '(s=1, t=0)', 13.988946074378728),
            ('involution-antihom', '(s=1, t=1)', 8.264407672600516),
            ('involution-antihom', '(s=1, t=1)', 6.8000004574919055),
            ('associativity', '(s=1, t=1)', 13.27044728356702),
            ('associativity', '(s=1, t=1)', 29.46497980004299),
            ('involution-antihom', '(s=1, t=2)', 9.738616244678818),
            ('involution-antihom', '(s=1, t=2)', 13.9487892853776),
            ('associativity', '(s=1, t=2)', 30.30937578446607),
            ('associativity', '(s=1, t=2)', 35.72326522109286),
            ('involution-antihom', '(s=2, t=0)', 8.924532627151498),
            ('involution-antihom', '(s=2, t=0)', 10.344799288460985),
            ('associativity', '(s=2, t=0)', 14.166012242412139),
            ('associativity', '(s=2, t=0)', 11.48285103996586),
            ('involution-antihom', '(s=2, t=1)', 14.822105411341745),
            ('involution-antihom', '(s=2, t=1)', 6.19779547669719),
            ('associativity', '(s=2, t=1)', 11.578601158884261),
            ('associativity', '(s=2, t=1)', 18.951597472955637),
            ('involution-antihom', '(s=2, t=2)', 3.5810966977960614),
            ('involution-antihom', '(s=2, t=2)', 5.924365812976518),
            ('associativity', '(s=2, t=2)', 27.1156197396572),
            ('associativity', '(s=2, t=2)', 16.76349804838473),
            ('cstar-identity', '1', 7.8200397873142204),
            ('positivity', '1', 2.9815256498307785),
            ('cstar-identity', '1', 2.18406998489274),
            ('positivity', '1', 2.58188894772626),
            ('cstar-identity', '2', 5.2691514774184665),
            ('positivity', '2', 2.7167603297918106),
            ('cstar-identity', '2', 2.2931840310246123),
            ('positivity', '2', 5.631102001137935),
        ],
        "worst": {
            'submultiplicative': 0.0,
            'involution-antihom': 14.822105411341745,
            'associativity': 43.112219026029706,
            'involutive': 7.978579735248523e-15,
            'cstar-identity': 7.8200397873142204,
            'positivity': 5.631102001137935,
        },
    },
    'twist/matrix-twist/F2': {
        "checked": 941,
        "order_crc": 1335204025,
        "rows": [],
        "worst": {
            'identity-map': 8.881784197001252e-16,
            'twist-unit-left': 2.220446049250313e-15,
            'twist-unit-right': 1.7763568394002505e-15,
            'unitarity': 1.7763568394002505e-15,
            'twist-unitary': 4.440892098500626e-15,
            'composition': 2.8865882040300704e-15,
            'cocycle': 2.110154030260182e-15,
        },
    },
    'twist/matrix-twist/S3': {
        "checked": 6103,
        "order_crc": 1239495209,
        "rows": [],
        "worst": {
            'identity-map': 7.054302204056184e-16,
            'twist-unit-left': 1.7069615139487939e-15,
            'twist-unit-right': 1.7206740303038046e-15,
            'unitarity': 1.6291433574430392e-15,
            'twist-unitary': 3.4400547761392854e-15,
            'composition': 2.975576798956164e-15,
            'cocycle': 2.922782041364703e-15,
        },
    },
    'twist/matrix-twist/Z3': {
        "checked": 451,
        "order_crc": 1991103440,
        "rows": [],
        "worst": {
            'identity-map': 6.876973838495466e-16,
            'twist-unit-left': 1.3733100356476702e-15,
            'twist-unit-right': 1.3733100356476702e-15,
            'unitarity': 1.3733100356476702e-15,
            'twist-unitary': 2.7466200712953396e-15,
            'composition': 1.7527104493851205e-15,
            'cocycle': 1.9807581245433685e-15,
        },
    },
    'twist/perturbed-scalar': {
        "checked": 235,
        "order_crc": 2676647811,
        "rows": [
            ('cocycle', '(r=1, s=1, t=2)', 0.29887626494719854),
            ('cocycle', '(r=1, s=1, t=2)', 0.29887626494719843),
            ('cocycle', '(r=1, s=1, t=2)', 0.2988762649471982),
            ('cocycle', '(r=1, s=1, t=2)', 0.29887626494719843),
            ('cocycle', '(r=1, s=1, t=2)', 0.2988762649471982),
            ('cocycle', '(r=1, s=1, t=2)', 0.29887626494719843),
            ('cocycle', '(r=1, s=2, t=2)', 0.29887626494719843),
            ('cocycle', '(r=1, s=2, t=2)', 0.2988762649471982),
            ('cocycle', '(r=1, s=2, t=2)', 0.29887626494719804),
            ('cocycle', '(r=1, s=2, t=2)', 0.29887626494719843),
            ('cocycle', '(r=1, s=2, t=2)', 0.2988762649471983),
            ('cocycle', '(r=1, s=2, t=2)', 0.29887626494719843),
            ('cocycle', '(r=2, s=1, t=1)', 0.2988762649471982),
            ('cocycle', '(r=2, s=1, t=1)', 0.29887626494719843),
            ('cocycle', '(r=2, s=1, t=1)', 0.29887626494719843),
            ('cocycle', '(r=2, s=1, t=1)', 0.2988762649471984),
            ('cocycle', '(r=2, s=1, t=1)', 0.2988762649471982),
            ('cocycle', '(r=2, s=1, t=1)', 0.29887626494719854),
            ('cocycle', '(r=2, s=2, t=1)', 0.29887626494719804),
            ('cocycle', '(r=2, s=2, t=1)', 0.29887626494719843),
            ('cocycle', '(r=2, s=2, t=1)', 0.2988762649471984),
            ('cocycle', '(r=2, s=2, t=1)', 0.29887626494719843),
            ('cocycle', '(r=2, s=2, t=1)', 0.29887626494719816),
            ('cocycle', '(r=2, s=2, t=1)', 0.29887626494719843),
        ],
        "worst": {
            'identity-map': 6.661338147750939e-16,
            'twist-unit-left': 0.0,
            'twist-unit-right': 0.0,
            'unitarity': 1.3322676295501878e-15,
            'twist-unitary': 1.1102230246251565e-16,
            'composition': 1.3334236103572998e-15,
            'cocycle': 0.29887626494719854,
        },
    },
    'twist/scalar-twist/F2': {
        "checked": 65,
        "order_crc": 161136400,
        "rows": [],
        "worst": {
            'identity-map': 6.661338147750939e-16,
            'twist-unit-left': 0.0,
            'twist-unit-right': 0.0,
            'unitarity': 1.3322676295501878e-15,
            'twist-unitary': 2.220446049250313e-16,
            'composition': 1.7763568394002505e-15,
            'cocycle': 1.1102230246251565e-16,
        },
    },
    'twist/scalar-twist/S3': {
        "checked": 63,
        "order_crc": 1839422527,
        "rows": [],
        "worst": {
            'identity-map': 3.200333230151228e-16,
            'twist-unit-left': 0.0,
            'twist-unit-right': 0.0,
            'unitarity': 6.392740856213153e-16,
            'twist-unitary': 0.0,
            'composition': 5.056123807365145e-16,
            'cocycle': 0.0,
        },
    },
    'twist/scalar-twist/Z3': {
        "checked": 117,
        "order_crc": 3428762873,
        "rows": [],
        "worst": {
            'identity-map': 2.5826123687996273e-16,
            'twist-unit-left': 1.1102230246251565e-16,
            'twist-unit-right': 1.1102230246251565e-16,
            'unitarity': 5.146325510887689e-16,
            'twist-unitary': 2.229596796266224e-16,
            'composition': 7.944043565046265e-16,
            'cocycle': 2.482534153247273e-16,
        },
    },
    'twist/semidirect/F2': {
        "checked": 43,
        "order_crc": 3261413300,
        "rows": [],
        "worst": {
            'identity-map': 2.220446049250313e-16,
            'twist-unit-left': 0.0,
            'twist-unit-right': 0.0,
            'unitarity': 4.440892098500626e-16,
            'twist-unitary': 0.0,
            'composition': 4.440892098500626e-16,
            'cocycle': 0.0,
        },
    },
    'twist/semidirect/S3': {
        "checked": 159,
        "order_crc": 3891352639,
        "rows": [],
        "worst": {
            'identity-map': 8.461984329974864e-16,
            'twist-unit-left': 0.0,
            'twist-unit-right': 0.0,
            'unitarity': 1.6922235756496375e-15,
            'twist-unitary': 0.0,
            'composition': 1.6100583668942172e-15,
            'cocycle': 0.0,
        },
    },
    'twist/semidirect/Z3': {
        "checked": 139,
        "order_crc": 10116523,
        "rows": [],
        "worst": {
            'identity-map': 2.5314221207397883e-16,
            'twist-unit-left': 0.0,
            'twist-unit-right': 0.0,
            'unitarity': 5.037037445775243e-16,
            'twist-unitary': 0.0,
            'composition': 4.583509103880359e-16,
            'cocycle': 0.0,
        },
    },
}
