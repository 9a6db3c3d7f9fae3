"""Batched validators against their references and their call structure.

``row_validate_twist`` is the per-row ``validate_twist`` that the batched
one replaced, kept here as an independent route: one ``op_norm`` per
residual and one ``IdealIso.apply`` per basis element. The batched validator
must give the same check count, the same sequence of ``ActionReport.add``
calls (axiom and context, CRC-summarised), the same violated rows and
residuals within 1e-12.

The structure tests count the batched calls: the number of ``mul_many``,
``star_many`` and ``batch_norms`` calls of a validation must not depend on
the size of the ball while it fits one chunk, and a validation cut into
many chunks must report exactly what one chunk reports.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from fellap import bundles
from fellap.algebra import (
    ActionReport,
    FdAlgebra,
    Ideal,
    IdealIso,
    PartialAction,
    op_norm,
    unitarity_residuals,
)
from fellap.bundles import (
    Twist,
    TwistedBundle,
    trivial_twist,
    validate_bundle,
    validate_twist,
)
from fellap.groups import Elem, FreeGroup, LatticeGroup, cyclic_group, symmetric_group
from fellap.testing import (
    random_fell_bundle,
    random_global_action,
    scalar_coboundary_twist,
)


def _meet(*ideals: Ideal) -> Ideal:
    """The ideal on the blocks that all of ``ideals`` hold."""
    return Ideal(ideals[0].algebra, frozenset.intersection(*(i.block_set for i in ideals)))


def row_validate_twist(
    family: PartialAction,
    twist: Twist,
    window: int = 2,
    tol: float = 1e-10,
) -> ActionReport:
    """The per-row route of ``validate_twist``, kept as its reference: one
    ``op_norm`` per residual, checks added as the loops reach them.
    """
    g = family.group
    rep = ActionReport()
    ball = g.ball(window)
    e = g.identity

    iso_e = family.iso(e)
    full = family.algebra.full_ideal()
    if iso_e.source.block_set != full.block_set:
        rep.add("identity-domain", "e", float("inf"), tol)
    rep.add("identity-map", "e", iso_e.map_distance(IdealIso.identity_on(full)), tol)

    def corner(s: Elem, t: Elem) -> Ideal:
        return _meet(family.domain(s), family.domain(g.mul(s, t)))

    for t in ball:
        rep.add(
            "twist-unit-left",
            g.format_elem(t),
            op_norm(twist.omega(e, t) - corner(e, t).unit()),
            tol,
        )
        rep.add(
            "twist-unit-right",
            g.format_elem(t),
            op_norm(twist.omega(t, e) - corner(t, e).unit()),
            tol,
        )

    for s in ball:
        iso_s = family.iso(s)
        rep.add("unitarity", g.format_elem(s), unitarity_residuals([iso_s])[0], tol)
        for t in ball:
            st = g.mul(s, t)
            ctx = f"(s={g.format_elem(s)}, t={g.format_elem(t)})"
            om = twist.omega(s, t)
            cn = corner(s, t)
            rep.add(
                "twist-unitary",
                ctx,
                max(
                    op_norm(om.star() * om - cn.unit()),
                    op_norm(om * om.star() - cn.unit()),
                    op_norm(om - cn.project(om)),
                ),
                tol,
            )
            # domain compatibility at the block level
            src = family.domain(g.inv(s)).block_set & family.domain(t).block_set
            image = {family.iso(s).phi[j] for j in src}
            expect = family.domain(s).block_set & family.domain(st).block_set
            if image != expect:
                rep.add("domain-compat", ctx, float("inf"), tol)
                continue
            # composition through the twist
            iso_t = family.iso(t)
            iso_st = family.iso(st)
            dom = _meet(family.domain(g.inv(t)), family.domain(g.inv(st)))
            for x in dom.basis():
                lhs = iso_s.apply(iso_t.apply(x))
                rhs = om * iso_st.apply(x) * om.star()
                rep.add("composition", ctx, op_norm(lhs - rhs), tol)

    for r in ball:
        iso_r = family.iso(r)
        for s in ball:
            for t in ball:
                st = g.mul(s, t)
                rs = g.mul(r, s)
                dom = _meet(family.domain(g.inv(r)), family.domain(s), family.domain(st))
                if not dom.block_set:
                    continue
                om_st = twist.omega(s, t)
                om_r_st = twist.omega(r, st)
                om_rs = twist.omega(r, s)
                om_rst = twist.omega(rs, t)
                ctx = (
                    f"(r={g.format_elem(r)}, s={g.format_elem(s)}, "
                    f"t={g.format_elem(t)})"
                )
                for x in dom.basis():
                    lhs = iso_r.apply(x * om_st) * om_r_st
                    rhs = iso_r.apply(x) * om_rs * om_rst
                    rep.add("cocycle", ctx, op_norm(lhs - rhs), tol)
    return rep


def _trace(monkeypatch, run) -> tuple[ActionReport, list]:
    """Run one validator with every ActionReport.add call recorded."""
    calls = []
    add = ActionReport.add

    def traced(self, axiom, context, residual, tol):
        calls.append((axiom, context, float(residual)))
        add(self, axiom, context, residual, tol)

    with monkeypatch.context() as m:
        m.setattr(ActionReport, "add", traced)
        rep = run()
    return rep, calls


def _crc(calls: list) -> int:
    return zlib.crc32("\n".join(f"{axiom}|{context}" for axiom, context, _ in calls).encode())


def _close(got: float, want: float) -> bool:
    if want == float("inf") or want != want:
        return got == want or (got != got and want != want)
    return abs(got - want) <= 1e-12


def _assert_same(monkeypatch, run, reference) -> ActionReport:
    """``run`` and ``reference`` validate alike; the report of ``run``."""
    got, got_calls = _trace(monkeypatch, run)
    want, want_calls = _trace(monkeypatch, reference)
    assert got.checked == want.checked == len(got_calls)
    assert _crc(got_calls) == _crc(want_calls)
    assert [(a, c) for a, c, _ in got.rows] == [(a, c) for a, c, _ in want.rows]
    for (_, _, r), (_, _, w) in zip(got_calls, want_calls):
        assert _close(r, w), (r, w)
    return got


# Seeds 0-59 run in cycles of 20: three consecutive seeds per shape, so each
# shape meets all three flavors, and four seeds on Z. F2 at window 2 takes one
# seed per cycle (the three cycles give it the three flavors), because its
# 17^3 cocycle triples make the per-row route take seconds.
_ORACLE_CYCLE = (
    [("Z3", 1)] * 3
    + [("Z3", 2)] * 3
    + [("S3", 1)] * 3
    + [("S3", 2)] * 3
    + [("F2", 1)] * 3
    + [("F2", 2)]
    + [("Z", 2)] * 4
)
_ORACLE_GROUPS = {
    "Z3": lambda: cyclic_group(3),
    "S3": lambda: symmetric_group(3),
    "F2": lambda: FreeGroup(2),
    "Z": lambda: LatticeGroup(1),
}
_FLAVORS = ("semidirect", "scalar-twist", "matrix-twist")


def _broken_domains() -> tuple[PartialAction, Twist]:
    """Z3 on C^3 with alpha_1 shifting blocks {0, 1} onto {1, 2} and alpha_2
    its inverse: each map is a partial isomorphism, but alpha_1 sends
    A_2 n A_1 = {1} to block 2, outside A_1 n A_2 = {1}."""
    g = cyclic_group(3)
    alg = FdAlgebra([1, 1, 1])
    one = np.ones((1, 1), dtype=complex)

    def shift(phi: dict) -> IdealIso:
        return IdealIso(Ideal(alg, phi), Ideal(alg, phi.values()), phi, {j: one for j in phi})

    isos = {g.elem(0): shift({0: 0, 1: 1, 2: 2}), g.elem(1): shift({0: 1, 1: 2})}
    isos[g.elem(2)] = isos[g.elem(1)].inverse()
    pa = PartialAction(g, alg, isos)
    return pa, trivial_twist(pa)


class TestTwistOracle:
    @pytest.mark.parametrize("seed", range(60))
    def test_random_bundles(self, monkeypatch, seed):
        group, window = _ORACLE_CYCLE[seed % len(_ORACLE_CYCLE)]
        bundle, _ = random_fell_bundle(
            np.random.default_rng(seed), _ORACLE_GROUPS[group](), _FLAVORS[seed % 3]
        )
        family, twist = bundle.family, bundle.twist
        rep = _assert_same(
            monkeypatch,
            lambda: validate_twist(family, twist, window=window),
            lambda: row_validate_twist(family, twist, window=window),
        )
        assert rep.passed

    def test_perturbed_phase(self, monkeypatch):
        pa = random_global_action(np.random.default_rng(8), cyclic_group(3))
        good = scalar_coboundary_twist(pa, salt=8)

        def fn(s, t):
            w = good.omega(s, t)
            return np.exp(0.3j) * w if (s.data, t.data) == (1, 1) else w

        twist = Twist(fn)
        rep = _assert_same(
            monkeypatch,
            lambda: validate_twist(pa, twist, window=1),
            lambda: row_validate_twist(pa, twist, window=1),
        )
        assert {axiom for axiom, _, _ in rep.rows} == {"cocycle"}

    def test_broken_domains_take_the_domain_branch(self, monkeypatch):
        pa, twist = _broken_domains()
        rep = _assert_same(
            monkeypatch,
            lambda: validate_twist(pa, twist, window=1),
            lambda: row_validate_twist(pa, twist, window=1),
        )
        assert ("domain-compat", "(s=1, t=1)", float("inf")) in rep.rows


def _counting(monkeypatch) -> dict[str, int]:
    """Count the batched product, involution and norm calls of the validators."""
    counts = {"mul_many": 0, "star_many": 0, "batch_norms": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("mul_many", "star_many"):
        monkeypatch.setattr(TwistedBundle, name, counted(name, getattr(TwistedBundle, name)))
    monkeypatch.setattr(bundles, "batch_norms", counted("batch_norms", bundles.batch_norms))
    return counts


def _bundle(group, flavor: str = "matrix-twist", seed: int = 3) -> TwistedBundle:
    return random_fell_bundle(np.random.default_rng(seed), group, flavor)[0]


class TestValidatorStructure:
    def test_bundle_calls_do_not_grow_with_the_ball(self, monkeypatch):
        small, large = _bundle(cyclic_group(2)), _bundle(FreeGroup(2))
        counts = _counting(monkeypatch)
        validate_bundle(small, window=2, samples=1)
        on_small = dict(counts)
        for k in counts:
            counts[k] = 0
        validate_bundle(large, window=2, samples=1)
        assert counts == on_small == {"mul_many": 3, "star_many": 3, "batch_norms": 2}

    @pytest.mark.parametrize("flavor", _FLAVORS)
    def test_twist_takes_one_norm_call_per_chunk(self, monkeypatch, flavor):
        counts = _counting(monkeypatch)
        single = []
        monkeypatch.setattr(bundles, "op_norm", lambda x: single.append(x) or op_norm(x))
        for group in (cyclic_group(2), cyclic_group(3), FreeGroup(2)):
            bundle = _bundle(group, flavor)
            counts["batch_norms"] = 0
            validate_twist(bundle.family, bundle.twist, window=1)
            assert counts["batch_norms"] == 2  # one chunk over s, one over r
        assert single == []

    @pytest.mark.parametrize("budget", [1, 7, 40])
    def test_chunks_report_what_one_chunk_reports(self, monkeypatch, budget):
        runs = [
            lambda b=_bundle(FreeGroup(2), fl): validate_bundle(b, window=1, samples=2, seed=4)
            for fl in _FLAVORS
        ] + [
            lambda b=_bundle(FreeGroup(2), fl): validate_twist(b.family, b.twist, window=1)
            for fl in _FLAVORS
        ]
        runs.append(lambda: validate_twist(*_broken_domains(), window=1))
        for run in runs:
            with monkeypatch.context() as m:
                counts = _counting(m)
                whole, whole_calls = _trace(monkeypatch, run)
            assert counts["batch_norms"] == 2
            with monkeypatch.context() as m:
                m.setattr(bundles, "_TERM_BUDGET", budget)
                counts = _counting(m)
                cut, cut_calls = _trace(monkeypatch, run)
            assert counts["batch_norms"] > 2
            assert (cut.checked, cut.rows, cut.worst) == (whole.checked, whole.rows, whole.worst)
            assert _crc(cut_calls) == _crc(whole_calls)
            assert cut_calls == whole_calls
