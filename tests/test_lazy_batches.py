"""Batched fills of lazy bundle data against the per-pair routes they replace.

``Twist.rows`` and ``PartialAction.isos`` fill every missing value of a
list in one call of a batch function, and the fixtures of
``fellap.testing`` compute their twist values and family isos that way.
The per-pair functions below are the fixtures' former formulas, kept
verbatim as reference routes: every value of the batched fixtures must be
``np.array_equal`` to theirs. So must the corner units that
``_corner_units`` makes from block masks to one ``Ideal`` unit per pair,
and ``random_fell_bundle`` to its former body (the same draws, isos and
twist values). The file also checks that a batch fill still
refuses isos over the wrong algebra and elements of another group, and
that per-pair twists (``Twist(fn)``, the CLI's perturbed twist) give the
same values through the rows as through ``omega``.

A twist keeps its values as the rows of one batch, and so does
``matrix_twist`` its v's. The row caches are checked on the shapes of the
benchmark's certify-sweep: the gathered twist batches, the v's (through
the family isos) and the product batches of ``mul_many`` and
``star_many`` against the per-pair values restacked on every call, as the
product route read them before the rows; then the edge cases of the rows
themselves (empty lists, one pair, repeated reads, fills of the wrong
length).
"""

import zlib

import numpy as np
import pytest

from fellap.algebra import (
    FdAlgebra,
    FdElement,
    Ideal,
    IdealIso,
    PartialAction,
    _distinct,
    apply_many,
    identity_action,
    pullback_action,
    restrict_action,
    split_batch,
    stack_elements,
)
from fellap.bundles import (
    Twist,
    TwistedBundle,
    _corner_units,
    central_partial_action,
    make_semidirect,
    make_twisted,
    restrict_to_subgroup,
    trivial_twist,
    validate_bundle,
)
from fellap.cli import ConfigStore
from fellap.groups import (
    ContextMismatchError,
    Elem,
    FiniteGroup,
    FreeGroup,
    LatticeGroup,
    cyclic_group,
    symmetric_group,
)
from fellap.testing import (
    _hash_phase,
    matrix_twist,
    random_block_unitary,
    random_global_action,
    random_hom_to_finite,
    random_infinite_partial_action,
    random_fell_bundle,
    random_group,
    random_partial_action,
    scalar_coboundary_twist,
)
from test_cli import BASE_CONFIG


# ---------------------------------------------------------------------------
# Reference routes: the fixtures' per-pair formulas.
# ---------------------------------------------------------------------------


def reference_trivial_twist(pa: PartialAction) -> Twist:
    units: dict[frozenset[int], FdElement] = {}

    def fn(s: Elem, t: Elem) -> FdElement:
        blocks = pa.domain(s).block_set & pa.domain(pa.group.mul(s, t)).block_set
        unit = units.get(blocks)
        if unit is None:
            unit = units[blocks] = Ideal(pa.algebra, blocks).unit()
        return unit

    return Twist(fn)


def reference_scalar_twist(pa: PartialAction, salt: int = 0) -> Twist:
    g = pa.group
    phases: dict[Elem, complex] = {g.identity: 1.0 + 0.0j}
    units: dict[frozenset[int], FdElement] = {}

    def b(t: Elem) -> complex:
        got = phases.get(t)
        if got is None:
            got = phases[t] = _hash_phase(salt, f"{g.label}|{g.format_elem(t)}")
        return got

    def fn(s: Elem, t: Elem) -> FdElement:
        st = g.mul(s, t)
        blocks = pa.domain(s).block_set & pa.domain(st).block_set
        unit = units.get(blocks)
        if unit is None:
            unit = units[blocks] = Ideal(pa.algebra, blocks).unit()
        return (b(s) * b(t) * np.conj(b(st))) * unit

    return Twist(fn)


def reference_matrix_twist(glob: PartialAction, salt: int = 0) -> tuple[PartialAction, Twist]:
    g = glob.group
    alg = glob.algebra
    cache: dict[Elem, FdElement] = {}

    def v(t: Elem) -> FdElement:
        got = cache.get(t)
        if got is not None:
            return got
        if t == g.identity:
            out = alg.one()
        else:
            seed = zlib.crc32(f"{salt}|{g.label}|{g.format_elem(t)}".encode())
            out = random_block_unitary(np.random.default_rng(seed), alg)
        cache[t] = out
        return out

    def fam_fn(t: Elem) -> IdealIso:
        iso = glob.iso(t)
        vt = v(t)
        unis = {j: vt.mats[iso.phi[j]] @ iso.unitaries[j] for j in iso.phi}
        return IdealIso(iso.source, iso.target, dict(iso.phi), unis)

    def tw_fn(s: Elem, t: Elem) -> FdElement:
        return v(s) * glob.apply(s, v(t)) * v(g.mul(s, t)).star()

    return PartialAction(g, alg, fam_fn), Twist(tw_fn)


def reference_random_fell_bundle(rng, group=None, flavor=None):
    """``random_fell_bundle`` as it was written before its flavors shared
    one choice of action and one of twist."""
    g = group if group is not None else random_group(rng)
    fl = flavor or ("semidirect", "scalar-twist", "matrix-twist")[int(rng.integers(3))]
    salt = int(rng.integers(2**31))
    finite = isinstance(g, FiniteGroup)
    if fl == "semidirect":
        pa = (
            random_partial_action(rng, g)
            if finite
            else random_infinite_partial_action(rng, g)
        )
        return make_semidirect(pa), f"semidirect/{g.label}"
    if fl == "scalar-twist":
        pa = (
            random_partial_action(rng, g)
            if finite
            else random_infinite_partial_action(rng, g)
        )
        return make_twisted(pa, scalar_coboundary_twist(pa, salt)), f"scalar-twist/{g.label}"
    glob = (
        random_global_action(rng, g)
        if finite
        else random_infinite_partial_action(rng, g, force_global=True)
    )
    family, twist = matrix_twist(glob, salt)
    return make_twisted(family, twist), f"matrix-twist/{g.label}"


def reference_corner_units(pa: PartialAction, ss: list, us: list) -> tuple:
    """The units of the corners A_s n A_u, one ``Ideal`` per pair, stacked."""
    alg = pa.algebra
    corners = [pa.domain(s).block_set & pa.domain(u).block_set for s, u in zip(ss, us)]
    return stack_elements(alg, [Ideal(alg, blocks).unit() for blocks in corners])


# ---------------------------------------------------------------------------
# Fixtures, built twice from one seed: once batched, once per pair.
# ---------------------------------------------------------------------------

GROUPS = {
    "Z3": cyclic_group(3),
    "Z6": cyclic_group(6),
    "S3": symmetric_group(3),
    "F2": FreeGroup(2),
    "Z": LatticeGroup(1),
    "Z2": LatticeGroup(2),
}
FLAVORS = ("semidirect", "scalar-twist", "matrix-twist")


def build(group, flavor, seed, reference):
    """(family, twist) of one flavor, as ``random_fell_bundle`` draws it;
    infinite groups get pullbacks of actions of small finite groups."""
    rng = np.random.default_rng(seed)
    salt = int(rng.integers(2**31))
    finite = group.is_finite
    if flavor == "matrix-twist":
        glob = (
            random_global_action(rng, group)
            if finite
            else random_infinite_partial_action(rng, group, force_global=True)
        )
        return (reference_matrix_twist if reference else matrix_twist)(glob, salt)
    pa = random_partial_action(rng, group) if finite else random_infinite_partial_action(rng, group)
    if flavor == "semidirect":
        return pa, (reference_trivial_twist if reference else trivial_twist)(pa)
    return pa, (reference_scalar_twist if reference else scalar_coboundary_twist)(pa, salt)


def same_element(x: FdElement, y: FdElement) -> bool:
    return len(x.packs) == len(y.packs) and all(
        np.array_equal(p, q) for p, q in zip(x.packs, y.packs)
    )


def omegas(twist: Twist, pairs: list, alg: FdAlgebra) -> list[FdElement]:
    """The values of ``pairs``, gathered from the twist's rows in one fill."""
    return split_batch(alg, twist.take(twist.rows(pairs)), len(pairs))


def same_iso(a: IdealIso, b: IdealIso) -> bool:
    return (
        a.source.block_set == b.source.block_set
        and a.target.block_set == b.target.block_set
        and dict(a.phi) == dict(b.phi)
        and all(np.array_equal(a.unitaries[j], b.unitaries[j]) for j in a.phi)
    )


def scrambled(items: list, seed: int) -> list:
    return [items[i] for i in np.random.default_rng(seed).permutation(len(items))]


class TestAgainstReferenceRoutes:
    @pytest.mark.parametrize("flavor", FLAVORS)
    @pytest.mark.parametrize("name", sorted(GROUPS))
    def test_values_and_isos_bit_identical(self, name, flavor):
        g = GROUPS[name]
        ball = g.ball(2)
        pairs = [(s, t) for s in ball for t in ball]
        for seed in range(4):
            family, twist = build(g, flavor, seed, reference=False)
            ref_family, ref_twist = build(g, flavor, seed, reference=True)
            # one batch for the whole list, in an order unlike the ball's
            order = scrambled(pairs, seed)
            got = omegas(twist, order, family.algebra)
            assert all(same_element(w, ref_twist.omega(s, t)) for (s, t), w in zip(order, got))
            elems = scrambled(g.ball(3), seed)
            assert all(same_iso(a, ref_family.iso(t)) for t, a in zip(elems, family.isos(elems)))

    @pytest.mark.parametrize("name", sorted(GROUPS))
    def test_corner_units_per_pair(self, name):
        """The corner units of the masks against one ``Ideal`` per pair, on
        lists in an order unlike the ball's, one pair, and no pair."""
        g = GROUPS[name]
        ball = g.ball(2)
        for seed in range(4):
            for flavor in FLAVORS:
                family, _ = build(g, flavor, seed, reference=False)
                order = scrambled([(s, t) for s in ball for t in ball], seed)
                ss, us = [s for s, _ in order], [g.mul(s, t) for s, t in order]
                for k in (len(ss), 1, 0):
                    got = _corner_units(family, ss[:k], us[:k])
                    assert same_batch(got, reference_corner_units(family, ss[:k], us[:k]))

    @pytest.mark.parametrize("flavor", FLAVORS + (None,))
    @pytest.mark.parametrize("kind", ["finite", "free", "lattice", None])
    def test_random_fell_bundle(self, kind, flavor):
        """The same draws, labels, isos and twist values as the former
        body, kept above, over seeds, flavors and group kinds (None: the
        fixture draws them)."""
        for seed in range(6):
            group = None if kind is None else random_group(np.random.default_rng(seed), (kind,))
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            bundle, label = random_fell_bundle(rng, group, flavor)
            ref, ref_label = reference_random_fell_bundle(ref_rng, group, flavor)
            assert label == ref_label
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            g = bundle.group
            elems = scrambled(g.ball(2), seed)
            isos = zip(bundle.family.isos(elems), ref.family.isos(elems))
            assert all(same_iso(a, b) for a, b in isos)
            pairs = [(s, t) for s in g.ball(1) for t in g.ball(2)]
            got = omegas(bundle.twist, pairs, bundle.coeff_algebra)
            assert all(same_element(w, ref.twist.omega(s, t)) for (s, t), w in zip(pairs, got))

    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_one_pair_at_a_time(self, flavor):
        """Batches of one, as ``omega`` and ``iso`` make them on a miss."""
        g = GROUPS["F2"]
        family, twist = build(g, flavor, 11, reference=False)
        ref_family, ref_twist = build(g, flavor, 11, reference=True)
        for s in g.ball(1):
            for t in g.ball(2):
                assert same_element(twist.omega(s, t), ref_twist.omega(s, t))
            assert same_iso(family.iso(s), ref_family.iso(s))

    @pytest.mark.parametrize("flavor", FLAVORS)
    @pytest.mark.parametrize("name", ["Z3", "F2", "Z2"])
    def test_restrict_to_subgroup(self, name, flavor):
        g = GROUPS[name]
        member = (
            (lambda t: t == g.identity) if g.is_finite else (lambda t: g.word_length(t) % 2 == 0)
        )
        family, twist = build(g, flavor, 5, reference=False)
        ref_family, _ = build(g, flavor, 5, reference=True)
        sub = restrict_to_subgroup(TwistedBundle(family, twist), member)
        elems = scrambled(g.ball(2), 5)
        zero = family.algebra.zero_ideal()
        for t, iso in zip(elems, sub.family.isos(elems)):
            want = ref_family.iso(t) if member(t) else IdealIso(zero, zero, {}, {})
            assert same_iso(iso, want)

    @pytest.mark.parametrize("name", ["F2", "Z2"])
    def test_pullback(self, name):
        g = GROUPS[name]
        rng = np.random.default_rng(8)
        finite = cyclic_group(4)
        base = random_partial_action(rng, finite)
        hom = random_hom_to_finite(rng, g, finite)
        batched = pullback_action(base, hom, g)
        ref = PartialAction(g, base.algebra, lambda t: base.iso(hom(t)))
        elems = scrambled(g.ball(2), 8)
        assert all(a is ref.iso(t) for t, a in zip(elems, batched.isos(elems)))

    def test_validator_verdicts_unchanged(self):
        for flavor in FLAVORS:
            family, twist = build(GROUPS["F2"], flavor, 3, reference=False)
            ref_family, ref_twist = build(GROUPS["F2"], flavor, 3, reference=True)
            got = validate_bundle(TwistedBundle(family, twist), window=1, samples=1, seed=4)
            want = validate_bundle(
                TwistedBundle(ref_family, ref_twist), window=1, samples=1, seed=4
            )
            assert (got.rows, got.checked, got.worst) == (want.rows, want.checked, want.worst)


class TestBatchFillChecks:
    def test_wrong_algebra_refused(self):
        g = FreeGroup(2)
        alg, other = FdAlgebra([2]), FdAlgebra([1, 1])
        good = IdealIso.identity_on(alg.full_ideal())
        bad = IdealIso.identity_on(other.full_ideal())
        t0 = g.generator(1)
        pa = PartialAction.batched(g, alg, lambda ts: [bad if t == t0 else good for t in ts])
        with pytest.raises(ValueError, match="wrong algebra"):
            pa.isos(g.ball(1))
        assert pa.isos([g.identity])[0] is good  # nothing of the failed batch stayed
        with pytest.raises(ValueError, match="wrong algebra"):
            pa.iso(t0)

    def test_element_of_another_group_refused(self):
        g = FreeGroup(2)
        family, _ = build(g, "matrix-twist", 2, reference=False)
        stranger = FreeGroup(3).generator(3)
        with pytest.raises(ContextMismatchError):
            family.isos([g.generator(1), stranger])
        with pytest.raises(ContextMismatchError):
            family.iso(stranger)
        other = cyclic_group(3).elem(1)
        with pytest.raises(ContextMismatchError):
            identity_action(g, FdAlgebra([1])).isos([other])

    def test_wrong_count_refused(self):
        g = cyclic_group(3)
        alg = FdAlgebra([1])
        pa = PartialAction.batched(g, alg, lambda ts: [])
        with pytest.raises(ValueError, match="wrong number"):
            pa.isos(g.elements())
        tw = Twist.batched(alg, lambda pairs: ())
        with pytest.raises(ValueError, match="wrong number"):
            tw.rows([(g.identity, g.identity)])


class TestPerPairTwists:
    def test_twist_fn_same_through_omegas(self):
        g = symmetric_group(3)
        pa = random_partial_action(np.random.default_rng(4), g)
        base = scalar_coboundary_twist(pa, 9)
        calls = []

        def fn(s, t):
            calls.append((s, t))
            return 2.0 * base.omega(s, t)

        pairs = [(s, t) for s in g.elements() for t in g.elements()]
        one, many = Twist(fn), Twist(fn)
        got = omegas(many, pairs + pairs, pa.algebra)
        assert len(calls) == len(pairs)  # each missing pair filled once
        omegas(many, pairs, pa.algebra)
        assert len(calls) == len(pairs)  # a second read fills nothing
        assert all(same_element(w, one.omega(s, t)) for (s, t), w in zip(pairs, got))

    def test_cli_perturbed_twist_same_through_omegas(self):
        _, one = ConfigStore(raw=BASE_CONFIG, sha="-").twist("bad")
        pa, many = ConfigStore(raw=BASE_CONFIG, sha="-").twist("bad")
        g = pa.group
        pairs = [(s, t) for s in g.elements() for t in g.elements()]
        got = omegas(many, pairs, pa.algebra)
        assert all(same_element(w, one.omega(s, t)) for (s, t), w in zip(pairs, got))
        s0, t0 = g.parse_elem("1"), g.parse_elem("2")
        plain = scalar_coboundary_twist(pa, 7).omega(s0, t0)
        assert not same_element(many.omega(s0, t0), plain)


# ---------------------------------------------------------------------------
# Row caches on the certify-sweep shapes, and their edge cases.
# ---------------------------------------------------------------------------

# The shapes of the benchmark's certify-sweep: (group, base blocks, kept
# blocks, finite image of an infinite group).
SWEEP = [
    (cyclic_group(2), (2,), 1, None),
    (cyclic_group(3), (1, 2), 2, None),
    (cyclic_group(4), (2,), 2, None),
    (cyclic_group(5), (1,), 3, None),
    (cyclic_group(6), (1,), 3, None),
    (symmetric_group(3), (1,), 2, None),
    (symmetric_group(3), (2,), 3, None),
    (FreeGroup(2), (1,), 2, cyclic_group(3)),
    (LatticeGroup(1), (2,), 2, cyclic_group(4)),
    (LatticeGroup(2), (1,), 1, cyclic_group(2)),
]
SWEEP_IDS = [f"{g.label}-{'x'.join(map(str, base))}" for g, base, *_ in SWEEP]


def sweep_build(shape, flavor, seed, reference):
    """(family, twist) of a certify-sweep shape: a conjugated translation
    action of the finite group (restricted to ``kept`` blocks unless the
    flavor is matrix-twist), pulled back along a fixed homomorphism for an
    infinite group."""
    group, base, kept, image = shape
    finite = image or group
    rng = np.random.default_rng(seed)
    act = random_global_action(rng, finite, base)
    if flavor != "matrix-twist":
        nb = len(base)
        blocks = [
            int(t) * nb + j
            for j in range(nb)
            for t in rng.choice(finite.order, size=len(range(j, kept, nb)), replace=False)
        ]
        act = restrict_action(act, Ideal(act.algebra, blocks))
    if image is not None:
        hom = random_hom_to_finite(np.random.default_rng(3), group, image)
        act = pullback_action(act, hom, group)
    salt = int(rng.integers(2**31))
    if flavor == "matrix-twist":
        return (reference_matrix_twist if reference else matrix_twist)(act, salt)
    if flavor == "semidirect":
        return act, (reference_trivial_twist if reference else trivial_twist)(act)
    return act, (reference_scalar_twist if reference else scalar_coboundary_twist)(act, salt)


def restacked_mul_many(bundle, ss, xs, ts, ys):
    """The product route before the row caches: the per-pair values of the
    distinct pairs stacked on every call (the class arrays of the one value
    when there is one pair)."""
    pairs, slot = _distinct(zip(ss, ts))
    moved = apply_many(bundle.family.isos([s for s, _ in pairs]), ys, slot)
    values = [bundle.twist.omega(s, t) for s, t in pairs]
    if len(pairs) == 1:
        omegas = values[0].packs
    else:
        omegas = tuple(p[slot] for p in stack_elements(bundle.coeff_algebra, values))
    return tuple(x @ y @ w for x, y, w in zip(xs, moved, omegas))


def restacked_star_many(bundle, ts, xs):
    elems, slot = _distinct(ts)
    pairs = [(bundle.group.inv(t), t) for t in elems]
    adjoints = tuple(p.conj().swapaxes(-1, -2) for p in xs)
    moved = apply_many(bundle.family.isos([u for u, _ in pairs]), adjoints, slot)
    values = stack_elements(bundle.coeff_algebra, [bundle.twist.omega(*key) for key in pairs])
    return tuple(p[slot].conj().swapaxes(-1, -2) @ y for p, y in zip(values, moved))


def same_batch(x, y) -> bool:
    return len(x) == len(y) and all(
        p.shape == q.shape and np.array_equal(p, q) for p, q in zip(x, y)
    )


class TestRowCaches:
    @pytest.mark.parametrize("flavor", FLAVORS)
    @pytest.mark.parametrize("shape", SWEEP, ids=SWEEP_IDS)
    def test_twist_v_and_product_batches_bit_identical(self, shape, flavor):
        g = shape[0]
        ball = g.ball(2)
        pairs = [(s, t) for s in ball for t in ball]
        for seed in range(2):
            family, twist = sweep_build(shape, flavor, seed, reference=False)
            ref_family, ref_twist = sweep_build(shape, flavor, seed, reference=True)
            alg = family.algebra
            # twist values: gathered by row, with repeats, in a scrambled order
            order = scrambled(pairs + pairs[: len(pairs) // 3], seed)
            want = stack_elements(alg, [ref_twist.omega(s, t) for s, t in order])
            assert same_batch(twist.take(twist.rows(order)), want)
            # the v's of matrix_twist, through the family's unitaries
            elems = scrambled(g.ball(3), seed)
            assert all(same_iso(a, ref_family.iso(t)) for t, a in zip(elems, family.isos(elems)))
            # product batches of a fresh bundle against the restacked route
            family, twist = sweep_build(shape, flavor, seed, reference=False)
            bundle = TwistedBundle(family, twist)
            ref = TwistedBundle(ref_family, ref_twist)
            rng = np.random.default_rng(seed)
            m = 3 * len(ball)
            ss = [ball[i] for i in rng.integers(len(ball), size=m)]
            ts = [ball[i] for i in rng.integers(len(ball), size=m)]
            xs, ys = alg.gaussian_many(rng, m), alg.gaussian_many(rng, m)
            want = restacked_mul_many(ref, ss, xs, ts, ys)
            assert same_batch(bundle.mul_many(ss, xs, ts, ys), want)
            assert same_batch(bundle.star_many(ts, xs), restacked_star_many(ref, ts, xs))

    @pytest.mark.parametrize("flavor", FLAVORS + ("per-pair",))
    def test_empty_pair_lists(self, flavor):
        """Empty lists on fresh bundles, before any value is filled: the
        twist's rows, the products, and the central action at a fiber that
        is zero (whose generated ideals are empty)."""
        z4 = cyclic_group(4)
        if flavor == "per-pair":
            pa, base = build(z4, "scalar-twist", 9, reference=False)
            family, twist = pa, Twist(base.omega)
        else:
            family, twist = build(z4, flavor, 9, reference=False)
        alg = family.algebra
        empty = stack_elements(alg, [])
        assert twist.rows([]).shape == (0,)
        bundle = TwistedBundle(family, twist)
        for got in (bundle.mul_many([], empty, [], empty), bundle.star_many([], empty)):
            assert [p.shape for p in got] == [p.shape for p in empty]
        sub = restrict_to_subgroup(bundle, lambda t: t.data % 2 == 0)
        assert central_partial_action(sub).iso(z4.elem(1)).phi == {}

    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_one_pair_broadcast(self, flavor):
        """One distinct pair: its value's class arrays broadcast over the
        terms, bit for bit the terms of one-term products."""
        g = FreeGroup(2)
        family, twist = build(g, flavor, 4, reference=False)
        bundle = TwistedBundle(family, twist)
        alg = family.algebra
        rng = np.random.default_rng(4)
        s, t = g.generator(1), g.inv(g.generator(2))
        xs, ys = alg.gaussian_many(rng, 6), alg.gaussian_many(rng, 6)
        got = bundle.mul_many([s] * 6, xs, [t] * 6, ys)
        for i in range(6):
            x, y = (tuple(p[i : i + 1] for p in batch) for batch in (xs, ys))
            assert same_batch(tuple(p[i : i + 1] for p in got), bundle.mul_many([s], x, [t], y))
        stars = bundle.star_many([t] * 6, xs)
        assert same_batch(stars, restacked_star_many(bundle, [t] * 6, xs))

    def test_repeated_reads_return_the_same_object(self):
        g = FreeGroup(2)
        family, twist = build(g, "matrix-twist", 6, reference=False)
        _, ref_twist = build(g, "matrix-twist", 6, reference=True)
        first = [(g.identity, g.generator(1)), (g.generator(2), g.generator(1))]
        views = [twist.omega(*key) for key in first]
        assert all(twist.omega(*key) is w for key, w in zip(first, views))
        # more fills, which grow the rows; the earlier views stay and keep their values
        ball = g.ball(2)
        for s in ball:
            twist.rows([(s, t) for t in ball])
        assert all(twist.omega(*key) is w for key, w in zip(first, views))
        assert all(same_element(w, ref_twist.omega(*key)) for key, w in zip(first, views))

    def test_wrong_length_fill_raises(self):
        g = cyclic_group(3)
        alg = FdAlgebra([1, 2])
        pairs = [(g.identity, t) for t in g.elements()]
        good = stack_elements(alg, [alg.one()] * 3)
        wrong = {
            "one row too many": tuple(np.concatenate([p, p[:1]]) for p in good),
            "a class missing": good[:1],
            "one value, unbatched": alg.one().packs,
            "blocks of the wrong size": (good[1], good[0]),
        }
        for batch in wrong.values():
            tw = Twist.batched(alg, lambda keys, batch=batch: batch)
            with pytest.raises(ValueError, match="wrong number"):
                tw.rows(pairs)
            with pytest.raises(ValueError, match="wrong number"):
                tw.omega(*pairs[0])  # nothing of the failed fill stayed
        tw = Twist.batched(alg, lambda keys: stack_elements(alg, [alg.one()] * len(keys)))
        assert all(same_element(w, alg.one()) for w in omegas(tw, pairs, alg))

    @pytest.mark.parametrize("name", ["F2", "Z2"])
    def test_apply_many_shares_repeated_isos(self, name):
        """A pullback hands one iso to many elements; apply_many plans it
        once, bit for bit the values of one slot per element."""
        g = GROUPS[name]
        rng = np.random.default_rng(12)
        finite = cyclic_group(4) if name == "Z2" else cyclic_group(3)
        base = random_partial_action(rng, finite)
        pa = pullback_action(base, random_hom_to_finite(rng, g, finite), g)
        elems = g.ball(3)
        isos = pa.isos(elems)
        assert len({id(iso) for iso in isos}) < len(isos)
        batch = pa.algebra.gaussian_many(rng, len(elems))
        copies = [IdealIso(a.source, a.target, a.phi, a.unitaries) for a in isos]
        assert same_batch(apply_many(isos, batch), apply_many(copies, batch))
