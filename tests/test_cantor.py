"""Cylinder arithmetic, the prefix-swap action, and the Cuntz witness net.

Frozen oracles, derived before the implementation ran:
  * cylinders of a fixed length partition the space: sum over |a| = k of
    1_{X_a} equals 1 exactly, for k <= 4 and alphabets up to 3;
  * 1_{X_a} 1_{X_b} = 1_{X_a} when b is a prefix of a, zero when neither
    word extends the other;
  * for g with reduced form 1 * 2^{-1} on two letters, alpha_g maps
    1_{X_2} to 1_{X_1};
  * the net xi_i has bound exactly 1.0 (each length layer partitions the
    space); with the empty word included the bound becomes (i+1)/i;
  * defect closed forms: 0 at the identity; |g|/i for positive g with
    i >= |g| (1.0 below); and for a mixed symbol a b^{-1} with both parts
    nonempty, (max(|a|,|b|) - 1)/i once i >= max(|a|,|b|).  The brute
    evaluator below re-derives these pointwise at depth i + |a| + |b|, and
    the word-by-word enumerator below matches the layer count with float
    equality on ball(4) of F2 with i <= 8 and ball(3) of F3 with i <= 6,
    under both identity flags.
  * truncated groupoid sizes: radius 0 keeps the n^depth units; the
    two-letter table at depth 2, radius 1 has exactly 16 arrows
    (4 units, 8 forward shifts, 4 backward shifts).
  * groupoid validation outcomes (checked counts, the violation rows of a
    table that miscomposes one pair, and the order of every report entry)
    are pinned from the all-pairs validator.
  * the table's lazily cached symbol data agrees with a fresh
    ``partial_symbol`` per arrow, its products with ``FreeGroup.word`` on
    the joined letters (a full reduction, not the junction cancellation
    of ``mul``) up to length 2r, and validation parses each element once.
"""

import time
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fellap import algebra, cantor
from fellap.cantor import (
    Arrow,
    CantorDomainError,
    CylFun,
    GroupoidTable,
    _cylinder_meet,
    _word_index,
    cantor_witness_bound,
    cuntz_ap_defect,
    cuntz_defect_table,
    cyl_close,
    cyl_indicator,
    partial_symbol,
    positive_words,
    spectral_groupoid,
    theta_apply,
    validate_cantor_action,
    validate_groupoid,
    xi_witness,
)
from fellap.groups import FreeGroup


def plus(f, g):
    """f + g at their common depth."""
    d = max(f.depth, g.depth)
    return CylFun(f.n, d, f.refine_to(d).table + g.refine_to(d).table)


def scaled(lam, f):
    return CylFun(f.n, f.depth, lam * f.table)


def brute_cuntz_defect(i, g, grp, include_identity=False):
    """Pointwise reference route: materialize the support, evaluate the
    displayed sum term by term with cylinder arithmetic, and take the sup
    at depth i + |a| + |b| explicitly."""
    n = grp.rank
    sym = partial_symbol(grp, g)
    w = xi_witness(i, n, include_identity=include_identity)
    dom = (
        cyl_indicator(n, sym.neg) if sym.neg else CylFun.constant(n, 1.0)
    )
    total = CylFun.constant(n, 0.0)
    words = (
        word for k in range(w.min_length(), i + 1) for word in positive_words(n, k)
    )
    for word in words:
        h = grp.word(word)
        s = grp.mul(grp.inv(g), h)
        xi_s = w.value(s)
        if xi_s.sup_norm() == 0.0:
            continue
        total = plus(total, w.value(h) * theta_apply(sym, dom * xi_s))
    target = (
        cyl_indicator(n, sym.pos) if sym.pos else CylFun.constant(n, 1.0)
    )
    depth = i + len(sym.pos) + len(sym.neg)
    return (target - total).refine_to(depth).sup_norm()


def _merge_counts(n, depths, floor):
    top = max(max(depths, default=floor), floor)
    total = np.zeros(n**top, dtype=np.int64)
    for d, tbl in depths.items():
        total += np.repeat(tbl, n ** (top - d))
    return total


def walked_witness_bound(w):
    """Enumerator route for the bound: one integer count per cylinder,
    tallied word by word over every support word, divided once."""
    n = w.group.rank
    depths = {}
    for k in range(w.min_length(), w.i + 1):
        tbl = np.zeros(n**k, dtype=np.int64)
        for word in positive_words(n, k):
            tbl[_word_index(n, word)] += 1
        depths[k] = tbl
    counts = _merge_counts(n, depths, 0)
    return float(counts.max(initial=0)) / float(w.i)


def walked_cuntz_defect(i, g, grp, include_identity=False):
    """Enumerator route for the defect: walk s = g^-1 h over every support
    word, tally each surviving term as an integer count on its cylinder,
    and divide the table i*1_g - counts once."""
    sym = partial_symbol(grp, g)
    n = grp.rank
    a, b = sym.pos, sym.neg
    min_len = 0 if include_identity else 1
    acc = {}
    for k in range(min_len, i + 1):
        for s in positive_words(n, k):
            # h = g s by explicit cancellation of b against the prefix of s
            cut = 0
            while cut < len(b) and cut < k and b[cut] == s[cut]:
                cut += 1
            if cut < len(b):
                continue  # a negative letter survives inside h
            h = a + s[cut:]
            if not (min_len <= len(h) <= i):
                continue
            # 1_{X_b} 1_{X_s} = 1_{X_s}; theta_g turns it into X_{a + tail}
            meet = _cylinder_meet(h, a + s[cut:])
            if meet is None:
                continue
            if len(meet) not in acc:
                acc[len(meet)] = np.zeros(n ** len(meet), dtype=np.int64)
            acc[len(meet)][_word_index(n, meet)] += 1
    counts = _merge_counts(n, acc, len(a))
    width = counts.size // (n ** len(a)) if a else counts.size
    start = _word_index(n, a) * width if a else 0
    numerator = -counts
    numerator[start : start + width] += i
    return float(np.abs(numerator).max(initial=0)) / float(i)


class MisComposingTable(GroupoidTable):
    """Planted defect: composing the unit at X_11 with the arrow
    (X_21, 1 2^-1) returns a wrong symbol instead of the arrow itself."""

    def compose(self, first, second):
        out = super().compose(first, second)
        grp = self.group
        if (
            out is not None
            and first == self.unit_at((1, 1))
            and second == Arrow((2, 1), grp.word([1, -2]))
        ):
            return Arrow(out.source, grp.mul(out.g, grp.generator(1)))
        return out


def recorded_adds(monkeypatch, table):
    """validate_groupoid's report entries in call order, with the report."""
    calls = []
    add = algebra.ActionReport.add

    def record(self, axiom, context, residual, tol):
        calls.append((axiom, context, residual, tol))
        add(self, axiom, context, residual, tol)

    monkeypatch.setattr(algebra.ActionReport, "add", record)
    report = validate_groupoid(table)
    return calls, report


class TestCylinders:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_fixed_length_partition(self, n, k):
        total = CylFun.constant(n, 0.0)
        for word in positive_words(n, k):
            total = plus(total, cyl_indicator(n, word))
        assert (total - CylFun.constant(n, 1.0)).sup_norm() == 0.0

    def test_prefix_product(self):
        long, short = cyl_indicator(2, (1, 2)), cyl_indicator(2, (1,))
        assert cyl_close(long * short, long, 0.0)
        assert cyl_close(short * long, long, 0.0)

    def test_incomparable_product_vanishes(self):
        f = cyl_indicator(2, (1, 2)) * cyl_indicator(2, (2,))
        assert f.sup_norm() == 0.0

    def test_indicator_sup_norm(self):
        assert cyl_indicator(3, (2, 1, 3)).sup_norm() == 1.0

    def test_refine_preserves_values(self):
        f = plus(cyl_indicator(2, (1,)), scaled(2.0, cyl_indicator(2, (2, 1))))
        g = f.refine_to(4)
        assert g.depth == 4
        assert (g - f).sup_norm() == 0.0
        for word in positive_words(2, 4):
            want = 1.0 if word[0] == 1 else 2.0 if word[:2] == (2, 1) else 0.0
            assert g.table[_word_index(2, word)] == want

    def test_alphabet_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cyl_indicator(2, (1,)) - cyl_indicator(3, (1,))
        with pytest.raises(ValueError):
            cyl_indicator(2, (3,))


class TestSymbols:
    def test_mixed_decomposition(self):
        grp = FreeGroup(2)
        sym = partial_symbol(grp, grp.word([1, -2]))
        assert sym.pos == (1,) and sym.neg == (2,)
        assert not sym.domain_zero

    def test_positive_and_negative_parts(self):
        grp = FreeGroup(3)
        sym = partial_symbol(grp, grp.word([1, 2, -3, -1]))
        assert sym.pos == (1, 2)
        assert sym.neg == (1, 3)

    def test_domain_zero_when_positive_follows_negative(self):
        grp = FreeGroup(2)
        sym = partial_symbol(grp, grp.word([-2, 1]))
        assert sym.domain_zero

    def test_inverse_swaps_parts(self):
        grp = FreeGroup(2)
        sym = partial_symbol(grp, grp.word([1, 1, -2]))
        inv = partial_symbol(grp, grp.inv(sym.elem))
        assert inv.pos == sym.neg and inv.neg == sym.pos

    def test_identity_symbol(self):
        grp = FreeGroup(2)
        sym = partial_symbol(grp, grp.identity)
        assert sym.pos == () and sym.neg == () and not sym.domain_zero


class TestTheta:
    def test_generator_swap_example(self):
        grp = FreeGroup(2)
        sym = partial_symbol(grp, grp.word([1, -2]))
        out = theta_apply(sym, cyl_indicator(2, (2,)))
        assert cyl_close(out, cyl_indicator(2, (1,)), 0.0)

    def test_identity_is_identity(self):
        grp = FreeGroup(2)
        sym = partial_symbol(grp, grp.identity)
        f = plus(cyl_indicator(2, (1, 2)), scaled(0.5j, cyl_indicator(2, (2,))))
        assert cyl_close(theta_apply(sym, f), f, 0.0)

    def test_depth_shift(self):
        grp = FreeGroup(2)
        sym = partial_symbol(grp, grp.word([1, 1, -2]))
        out = theta_apply(sym, cyl_indicator(2, (2, 1)))
        assert out.depth == 3
        assert cyl_close(out, cyl_indicator(2, (1, 1, 1)), 0.0)

    def test_domain_violation_raises(self):
        grp = FreeGroup(2)
        sym = partial_symbol(grp, grp.word([1, -2]))
        with pytest.raises(CantorDomainError):
            theta_apply(sym, cyl_indicator(2, (1,)))

    def test_domain_zero_raises(self):
        grp = FreeGroup(2)
        sym = partial_symbol(grp, grp.word([-1, 2]))
        with pytest.raises(ValueError):
            theta_apply(sym, CylFun.constant(2, 1.0))

    @settings(max_examples=40, deadline=None)
    @given(
        a_g=st.lists(st.integers(1, 2), max_size=3),
        b_g=st.lists(st.integers(1, 2), max_size=3),
        a_h=st.lists(st.integers(1, 2), max_size=3),
        b_h=st.lists(st.integers(1, 2), max_size=3),
        data=st.data(),
    )
    def test_composition_law(self, a_g, b_g, a_h, b_h, data):
        grp = FreeGroup(2)
        g = grp.mul(grp.word(a_g), grp.inv(grp.word(b_g)))
        h = grp.mul(grp.word(a_h), grp.inv(grp.word(b_h)))
        s_g, s_h = partial_symbol(grp, g), partial_symbol(grp, h)
        if s_g.domain_zero or s_h.domain_zero:
            return
        # need a cylinder inside both the image of h and the domain of g
        u, v = s_h.pos, s_g.neg
        shorter, longer = (u, v) if len(u) <= len(v) else (v, u)
        if longer[: len(shorter)] != shorter:
            return
        tail = tuple(
            data.draw(st.integers(1, 2), label=f"tail{j}") for j in range(2)
        )
        mid = cyl_indicator(2, longer + tail)
        f = theta_apply(partial_symbol(grp, grp.inv(h)), mid)
        lhs = theta_apply(s_g, mid)
        gh = partial_symbol(grp, grp.mul(g, h))
        assert not gh.domain_zero
        rhs = theta_apply(gh, f)
        assert (lhs - rhs).sup_norm() == 0.0

    def test_action_axioms_on_ball_three(self):
        report = validate_cantor_action(2, window=3, samples=1, seed=3)
        assert report.passed, report.render()


class TestWitness:
    @pytest.mark.parametrize("n", [2, 3])
    def test_bound_is_exactly_one(self, n):
        for i in range(1, 11):
            assert cantor_witness_bound(xi_witness(i, n)) == 1.0

    def test_bound_with_identity_included(self):
        for i in (1, 2, 3, 4, 7):
            w = xi_witness(i, 2, include_identity=True)
            assert cantor_witness_bound(w) == (i + 1) / i

    def test_support_size(self):
        assert xi_witness(3, 2).support_size() == 2 + 4 + 8
        assert xi_witness(2, 3).support_size() == 3 + 9
        assert xi_witness(2, 3, include_identity=True).support_size() == 13

    def test_values(self):
        grp = FreeGroup(2)
        w = xi_witness(4, 2)
        g = grp.word([1, 2, 1])
        val = w.value(g)
        assert cyl_close(val, scaled(0.5, cyl_indicator(2, (1, 2, 1))), 1e-15)
        assert w.value(grp.identity).sup_norm() == 0.0
        assert w.value(grp.word([1] * 5)).sup_norm() == 0.0
        assert w.value(grp.word([1, -2])).sup_norm() == 0.0
        one = xi_witness(1, 2)
        assert cyl_close(one.value(grp.generator(1)), cyl_indicator(2, (1,)), 0.0)

    def test_index_must_be_positive(self):
        with pytest.raises(ValueError):
            xi_witness(0, 2)


class TestDefects:
    @pytest.mark.parametrize("n", [2, 3])
    def test_generator_closed_form(self, n):
        grp = FreeGroup(n)
        gen = grp.generator(1)
        for i in range(1, 11):
            assert cuntz_ap_defect(i, gen, grp) == 1.0 / i

    @pytest.mark.parametrize("n", [2, 3])
    def test_identity_has_zero_defect(self, n):
        grp = FreeGroup(n)
        for i in (1, 3, 6):
            assert cuntz_ap_defect(i, grp.identity, grp) == 0.0

    @pytest.mark.parametrize("n", [2, 3])
    def test_length_two_closed_form(self, n):
        grp = FreeGroup(n)
        g = grp.mul(grp.generator(1), grp.generator(2))
        assert cuntz_ap_defect(1, g, grp) == 1.0
        for i in range(2, 11):
            assert cuntz_ap_defect(i, g, grp) == 2.0 / i

    def test_mixed_symbol_closed_forms(self):
        grp = FreeGroup(2)
        balanced = grp.word([1, -2])
        for i in (1, 2, 5):
            assert cuntz_ap_defect(i, balanced, grp) == 0.0
        grp3 = FreeGroup(3)
        lopsided = grp3.word([1, 2, -3])
        assert cuntz_ap_defect(1, lopsided, grp3) == 1.0
        for i in (2, 3, 4, 8):
            assert cuntz_ap_defect(i, lopsided, grp3) == 1.0 / i

    def test_defect_nonincreasing_in_i(self):
        grp = FreeGroup(2)
        g = grp.word([2, 1])
        trace = [cuntz_ap_defect(i, g, grp) for i in range(1, 11)]
        assert all(b <= a + 1e-15 for a, b in zip(trace, trace[1:]))

    @pytest.mark.parametrize("n", [2, 3])
    def test_brute_force_agreement(self, n):
        grp = FreeGroup(n)
        targets = [
            grp.identity,
            grp.generator(1),
            grp.generator(n),
            grp.mul(grp.generator(1), grp.generator(2)),
            grp.inv(grp.generator(2)),
            grp.word([1, -2]),
            grp.word([1, 1, -2]),
        ]
        for i in range(1, 5):
            for t in targets:
                fast = cuntz_ap_defect(i, t, grp)
                slow = brute_cuntz_defect(i, t, grp)
                assert abs(fast - slow) <= 1e-12, (n, i, t)

    def test_brute_force_agreement_with_identity_flag(self):
        grp = FreeGroup(2)
        for i in (1, 2, 3):
            for t in (grp.identity, grp.generator(1), grp.word([1, -2])):
                fast = cuntz_ap_defect(i, t, grp, include_identity=True)
                slow = brute_cuntz_defect(i, t, grp, include_identity=True)
                assert abs(fast - slow) <= 1e-12

    def test_identity_flag_changes_identity_defect(self):
        grp = FreeGroup(2)
        for i in (2, 4, 5):
            assert cuntz_ap_defect(i, grp.identity, grp, include_identity=True) == 1.0 / i

    def test_layer_count_matches_enumerator(self):
        cases = 0
        for n, radius, i_max in ((2, 4, 8), (3, 3, 6)):
            grp = FreeGroup(n)
            acting = [g for g in grp.ball(radius) if not partial_symbol(grp, g).domain_zero]
            for flag in (False, True):
                for i in range(1, i_max + 1):
                    w = xi_witness(i, n, include_identity=flag)
                    assert cantor_witness_bound(w) == walked_witness_bound(w)
                    for g in acting:
                        got = cuntz_ap_defect(i, g, grp, include_identity=flag)
                        assert got == walked_cuntz_defect(i, g, grp, flag), (n, i, g, flag)
                        cases += 1
        assert cases == 2972

    def test_large_index_closed_forms(self):
        grp = FreeGroup(3)
        i = 200
        assert cuntz_ap_defect(i, grp.word([1, 2, 3]), grp) == 3 / i
        assert cuntz_ap_defect(i, grp.word([1, 1, -2]), grp) == 1 / i
        assert cuntz_ap_defect(i, grp.word([1, -2, -3]), grp) == 1 / i
        assert cuntz_ap_defect(i, grp.word([1, -2]), grp) == 0.0
        assert cuntz_ap_defect(i, grp.identity, grp, include_identity=True) == 1 / i
        assert cantor_witness_bound(xi_witness(i, 3)) == 1.0

    def test_large_index_takes_under_ten_ms(self):
        grp = FreeGroup(3)
        g = grp.word([1, 2, -3])
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            cuntz_ap_defect(200, g, grp)
            best = min(best, time.perf_counter() - start)
        assert best < 0.010

    def test_domain_zero_target_rejected(self):
        grp = FreeGroup(2)
        with pytest.raises(ValueError):
            cuntz_ap_defect(3, grp.word([-1, 2]), grp)

    def test_raw_element_requires_group(self):
        grp = FreeGroup(2)
        with pytest.raises(ValueError):
            cuntz_ap_defect(3, grp.generator(1))

    def test_defect_table_rows(self):
        grp = FreeGroup(2)
        rows = cuntz_defect_table(2, 6, [grp.generator(1), grp.generator(2)])
        assert len(rows) == 12
        for row in rows:
            assert row.defect == row.predicted
            assert row.residual == 0.0
        assert rows[0].i == 1 and rows[-1].i == 6

    def test_defect_table_marks_rows_outside_the_law(self):
        grp = FreeGroup(2)
        mixed = grp.word([1, -2])
        long = grp.word([1, 2, 1])
        rows = cuntz_defect_table(2, 2, [mixed, long])
        by_key = {(r.i, r.word): r for r in rows}
        assert by_key[(1, "1 -2")].predicted == -1.0
        assert by_key[(2, "1 2 1")].predicted == -1.0  # i < |word|
        assert all(r.residual == 0.0 for r in rows)


class TestGroupoid:
    def test_radius_zero_keeps_units(self):
        for n, d in ((2, 1), (2, 3), (3, 2)):
            table = spectral_groupoid(n, d, 0)
            assert len(table.arrows) == n**d
            assert all(table.is_unit(a) for a in table.arrows)

    def test_frozen_two_letter_count(self):
        table = spectral_groupoid(2, 2, 1)
        assert len(table.arrows) == 16
        units = sum(table.is_unit(a) for a in table.arrows)
        assert units == 4

    @pytest.mark.parametrize("n,d,r", [(2, 2, 1), (2, 1, 2), (3, 2, 1)])
    def test_count_matches_brute_enumeration(self, n, d, r):
        # independent route: cylinder containment checked with function
        # arithmetic instead of prefix comparison
        grp = FreeGroup(n)
        expected = 0
        for g in grp.ball(r):
            sym = partial_symbol(grp, g)
            if sym.domain_zero:
                continue
            dom = (
                cyl_indicator(n, sym.neg)
                if sym.neg
                else CylFun.constant(n, 1.0)
            )
            for word in positive_words(n, d):
                ind = cyl_indicator(n, word)
                if cyl_close(ind * dom, ind, 0.0):
                    expected += 1
        assert len(spectral_groupoid(n, d, r).arrows) == expected

    def test_inversion_and_range(self):
        table = spectral_groupoid(2, 2, 1)
        grp = table.group
        arrow = Arrow((1, 2), grp.word([-1]))
        assert table.range_word(arrow) == (2,)
        inv = table.invert(arrow)
        assert inv.source == (2,) and inv.g == grp.word([1])
        assert table.invert(inv) == arrow

    def test_compose_follows_the_arrow(self):
        table = spectral_groupoid(2, 2, 1)
        grp = table.group
        second = Arrow((1, 2), grp.generator(2))  # X_12 -> X_212
        first = Arrow((2, 1, 2), grp.word([-2]))  # X_212 -> X_12
        out = table.compose(first, second)
        assert out is not None
        assert out.source == (1, 2) and out.g == grp.identity
        assert table.compose(second, second) is None

    @pytest.mark.parametrize("n,d,r", [(2, 2, 1), (3, 2, 1)])
    def test_axioms_exhaustive(self, n, d, r):
        report = validate_groupoid(spectral_groupoid(n, d, r))
        assert report.passed, report.render()

    @pytest.mark.parametrize(
        "n,d,r,checked",
        [
            (2, 2, 1, 64),
            (2, 3, 1, 128),
            (2, 4, 2, 1120),
            (3, 2, 1, 180),
            (2, 3, 3, 1232),
            (3, 3, 2, 5508),
        ],
    )
    def test_checked_counts_pinned(self, n, d, r, checked):
        report = validate_groupoid(spectral_groupoid(n, d, r))
        assert report.passed, report.render()
        assert report.checked == checked

    def test_miscomposed_pair_rows_pinned(self):
        t = spectral_groupoid(2, 2, 2)
        bad = MisComposingTable(t.group, t.depth, t.radius, t.arrows)
        report = validate_groupoid(bad)
        assert report.checked == 280
        assert report.rows == [("unit-absorbs", "(21,1 -2)", 1.0)] + [
            ("associativity", "assoc", 1.0)
        ] * 12

    @pytest.mark.parametrize(
        "cls,shape,crc",
        [
            (GroupoidTable, (2, 2, 2), 3559737325),
            (MisComposingTable, (2, 2, 2), 3947634277),
            (GroupoidTable, (2, 4, 2), 2980853681),
            (GroupoidTable, (3, 3, 2), 4221282867),
        ],
    )
    def test_report_entry_order_pinned(self, monkeypatch, cls, shape, crc):
        t = spectral_groupoid(*shape)
        calls, report = recorded_adds(
            monkeypatch, cls(t.group, t.depth, t.radius, t.arrows)
        )
        assert len(calls) == report.checked
        assert zlib.crc32(repr(calls).encode()) == crc


class TestCachedGroupoidTable:
    SHAPES = [(2, 2, 1), (2, 4, 2), (2, 3, 3), (3, 3, 2)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_range_words_match_fresh_symbols(self, shape):
        table = spectral_groupoid(*shape)
        validate_groupoid(table)
        assert len(table.range_words) == len(table.arrows)
        for arrow, rng in zip(table.arrows, table.range_words):
            sym = partial_symbol(table.group, arrow.g)
            expected = sym.pos + arrow.source[len(sym.neg) :]
            assert rng == expected
            assert table.range_word(arrow) == expected
            assert table.label(arrow.g) == table.group.format_elem(arrow.g)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_products_of_length_two_r(self, shape):
        # arrows built outside the table, so the products leave ball(r)
        n, d, r = shape
        table = spectral_groupoid(*shape)
        grp = table.group
        acting = [g for g in grp.ball(r) if not partial_symbol(grp, g).domain_zero]
        checked = 0
        for g in acting:
            for h in acting:
                want = grp.word(g.data + h.data)
                if len(want.data) != 2 * r:
                    continue
                sym_h = partial_symbol(grp, h)
                second = Arrow(sym_h.neg + (1,) * d, h)
                first = Arrow(table.range_word(second), g)
                for _ in range(2):  # the second call reads the cache
                    out = table.compose(first, second)
                    assert out == Arrow(second.source, want)
                    assert out.g == grp.mul(g, h)
                sym = partial_symbol(grp, want)
                assert table.range_word(out) == sym.pos + out.source[len(sym.neg) :]
                checked += 1
        assert checked > 0

    @pytest.mark.parametrize("shape", SHAPES)
    def test_validated_table_equals_fresh_table(self, shape):
        used = spectral_groupoid(*shape)
        assert validate_groupoid(used).passed
        fresh = GroupoidTable(used.group, used.depth, used.radius, used.arrows)
        assert used == fresh
        assert hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)
        assert used == spectral_groupoid(*shape)

    def test_separate_tables_have_equal_reprs(self):
        """Groups have value reprs, so a table's repr carries no address."""
        first, second = spectral_groupoid(2, 2, 1), spectral_groupoid(2, 2, 1)
        assert first is not second and first.group is second.group
        assert repr(first) == repr(second)
        assert "FreeGroup(2)" in repr(first) and " at 0x" not in repr(first)

    def test_validation_parses_each_element_once(self, monkeypatch):
        table = spectral_groupoid(3, 3, 2)
        parse = cantor.partial_symbol
        parsed = []

        def counting(group, g):
            parsed.append(g)
            return parse(group, g)

        monkeypatch.setattr(cantor, "partial_symbol", counting)
        report = validate_groupoid(table)
        assert report.checked == 5508
        assert parsed
        assert len(parsed) == len(set(parsed))
        assert set(parsed) <= set(table.group.ball(2 * table.radius))
