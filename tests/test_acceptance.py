"""Acceptance suite: ten numbered criteria, one test each.

Each test drives the library at scale with pinned tolerances and records a
single verdict line (echoed in the terminal summary by conftest). The
criteria restate, at volume, laws that the module tests already pin on
small fixtures:

 1. axiom suite over 1000 random bundles, three group families, 60 s cap
 2. 200 globalization round-trips, orbit-span rank, exhaustive unit law
 3. 200 center actions matching the coefficient action block for block
 4. kernel-algebra laws on 500 random kernels, windows up to 12 points
 5. exact defect values: uniform (zero) and integer-line box (|t|/N times
    the target norm)
 6. boundary-net defect law |g|/i, brute-force agreement, bound exactly 1,
    120 s cap
 7. 100 convex mixes over rank-2 free groups with exact splitting
 8. conditional expectation: exact idempotency, bimodule, contractivity
 9. 300 cross-checks of the two defect routes
10. byte-identical command reruns at a fixed seed
"""

import json
import time

import numpy as np
from click.testing import CliRunner

from conftest import record_acceptance
from fellap.algebra import (
    FdAlgebra,
    globalize_finite,
    op_norm,
    restrict_action,
    unit_identity_residual,
)
from fellap.approx import (
    APWitness,
    ap_defect,
    ap_defect_partial,
    convexify,
    default_targets,
    folner_witness,
    uniform_witness,
    witness_bound,
)
from fellap.bundles import (
    central_partial_action,
    fiber_norm,
    group_bundle,
    make_semidirect,
    mask_sub_bundle,
    subgroup_sub_bundle,
    trace_sub_bundle,
    validate_bundle,
)
from fellap.cantor import cantor_witness_bound, cuntz_ap_defect, xi_witness
from fellap.cli import main as cli_main
from fellap.groups import FreeGroup, LatticeGroup, cyclic_group, symmetric_group
from fellap.kernels import (
    Window,
    beta_act,
    cond_expectation_pf,
    k_mul,
    k_star,
    mf_embed_norm,
    norm2,
    pi_matrix,
    rank_one,
    validate_sub_expectation,
)
from fellap.testing import (
    random_element,
    random_fell_bundle,
    random_finite_group,
    random_infinite_partial_action,
    random_kernel,
    random_partial_action,
    random_section,
)
from test_algebra import assert_round_trip
from test_cantor import brute_cuntz_defect

TOL = 1e-10
EXACT = 1e-12


def fiber_sample(rng, bundle, t, scale=1.0):
    return bundle.fiber_ideal(t).project(
        random_element(rng, bundle.coeff_algebra, scale)
    )


def test_criterion_01_fell_axiom_suite():
    families = (
        [("cyclic", cyclic_group(m)) for m in range(2, 7)] * 120
        + [("sym", symmetric_group(3))] * 340
        + [("free", FreeGroup(2))] * 60
    )
    flavors = ("semidirect", "scalar-twist", "matrix-twist")
    rng = np.random.default_rng(2026)
    start = time.perf_counter()
    failures = 0
    worst = ("", "", 0.0)
    count = 0
    for pos, (_, g) in enumerate(families):
        bundle, _ = random_fell_bundle(rng, group=g, flavor=flavors[pos % 3])
        rep = validate_bundle(bundle, window=2, samples=1, seed=pos, tol=TOL)
        count += 1
        if not rep.passed:
            failures += 1
        if rep.worst[2] > worst[2]:
            worst = rep.worst
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed <= 60.0
    record_acceptance(
        1,
        ok,
        f"{count} bundles, {failures} axiom failures, "
        f"worst residual {worst[2]:.1e} ({worst[0]}), {elapsed:.1f} s",
    )
    assert count == 1000
    assert failures == 0
    assert elapsed <= 60.0


def test_criterion_02_globalization_round_trip():
    worst_unit = 0.0
    worst_rank_gap = 0
    for seed in range(200):
        pa = random_partial_action(np.random.default_rng(seed))
        glob = globalize_finite(pa)
        worst_rank_gap = max(worst_rank_gap, glob.algebra_rank - glob.orbit_rank)
        assert glob.orbit_spans_all
        # block indices exactly, intertwiners to 1e-10
        assert_round_trip(pa, glob, tol=TOL)
        restricted = restrict_action(glob.action, glob.image_ideal())
        worst_unit = max(
            worst_unit,
            unit_identity_residual(pa),
            unit_identity_residual(restricted),
        )
    ok = worst_unit <= TOL and worst_rank_gap == 0
    record_acceptance(
        2,
        ok,
        f"200 round-trips, orbit rank gap {worst_rank_gap}, "
        f"max unit-identity residual {worst_unit:.1e}",
    )
    assert ok


def test_criterion_03_central_action():
    worst_map = 0.0
    worst_unit = 0.0
    for seed in range(200):
        rng = np.random.default_rng(300 + seed)
        if seed % 5 == 4:
            grp = FreeGroup(2) if seed % 2 else LatticeGroup(2)
            pa = random_infinite_partial_action(rng, grp)
            probe = grp.ball(1)
        else:
            pa = random_partial_action(rng)
            probe = pa.group.elements()
        bundle = make_semidirect(pa)
        central = central_partial_action(bundle)
        alg = pa.algebra
        for t in probe:
            phi = dict(pa.iso(t).phi)
            assert dict(central.iso(t).phi) == phi
            # the coefficient action fixes each block unit it moves, which
            # is exactly what "restriction to the center" means here
            for j, k in phi.items():
                p_j = alg.zero()
                p_j.mats[j] = np.eye(alg.blocks[j], dtype=complex)
                p_k = alg.zero()
                p_k.mats[k] = np.eye(alg.blocks[k], dtype=complex)
                worst_map = max(worst_map, op_norm(pa.apply(t, p_j) - p_k))
        worst_unit = max(worst_unit, unit_identity_residual(central, elements=probe))
    ok = worst_map <= TOL and worst_unit <= TOL
    record_acceptance(
        3,
        ok,
        f"200 bundles, max center-map residual {worst_map:.1e}, "
        f"max projection-identity residual {worst_unit:.1e}",
    )
    assert ok


def kernel_pools():
    line = LatticeGroup(1)
    wide = Window(line, [line.vector([i]) for i in range(-5, 7)])  # 12 points
    pools = []
    for m in range(2, 7):
        g = cyclic_group(m)
        pools.append((g, Window.ball(g, 2), Window.ball(g, 1), Window.ball(g, 2)))
    s3 = symmetric_group(3)
    pools.append((s3, Window.ball(s3, 2), Window.ball(s3, 1), Window.ball(s3, 2)))
    pools.append((line, Window.ball(line, 3), Window.ball(line, 2), Window.ball(line, 3)))
    pools.append((line, wide, Window.ball(line, 2), wide))
    f2 = FreeGroup(2)
    pools.append((f2, Window.ball(f2, 1), Window.ball(f2, 1), Window.ball(f2, 2)))
    return pools


def test_criterion_04_kernel_algebra_laws():
    pools = kernel_pools()
    worst = {"beta": 0.0, "star": 0.0, "pi": 0.0, "rank1": 0.0, "mono": 0.0}
    rng = np.random.default_rng(404)
    for i in range(500):
        grp, w, w_small, w_big = pools[i % len(pools)]
        bundle, _ = random_fell_bundle(rng, group=grp)
        h = random_kernel(rng, bundle, w)
        k = random_kernel(rng, bundle, w)
        elems = w.elements
        s = elems[int(rng.integers(len(elems)))]
        t = elems[int(rng.integers(len(elems)))]
        st = grp.mul(s, t)

        worst["beta"] = max(
            worst["beta"],
            norm2(beta_act(s, beta_act(t, k)) - beta_act(st, k)),
        )
        worst["star"] = max(
            worst["star"],
            norm2(beta_act(t, k_mul(h, k)) - k_mul(beta_act(t, h), beta_act(t, k))),
            norm2(beta_act(t, k_star(k)) - k_star(beta_act(t, k))),
        )
        lhs = pi_matrix(k_mul(h, k), w)
        rhs = pi_matrix(k, w) @ pi_matrix(h, w)
        worst["pi"] = max(worst["pi"], float(np.abs(lhs - rhs).max(initial=0.0)))

        xi = random_section(rng, bundle, elems)
        eta = random_section(rng, bundle, elems)
        mu = random_section(rng, bundle, elems)
        nu = random_section(rng, bundle, elems)
        product = k_mul(rank_one(mu, nu), rank_one(xi, eta))
        collapsed = rank_one(xi.right_mul(eta.inner(mu)), nu)
        worst["rank1"] = max(worst["rank1"], norm2(product - collapsed))

        small = random_kernel(rng, bundle, w_small)
        gap = mf_embed_norm(small, w_small) - mf_embed_norm(small, w_big)
        worst["mono"] = max(worst["mono"], gap)
    ok = all(v <= TOL for v in worst.values())
    record_acceptance(
        4,
        ok,
        "500 kernels, residuals"
        + "".join(f" {name} {v:.1e}" for name, v in worst.items()),
    )
    assert ok, worst


def test_criterion_05_exact_defect_values():
    worst_uniform = 0.0
    for seed in range(12):
        rng = np.random.default_rng(500 + seed)
        bundle, _ = random_fell_bundle(rng, group=random_finite_group(rng))
        a = uniform_witness(bundle)
        for t in bundle.group.elements():
            for b in bundle.fiber_ideal(t).basis():
                worst_uniform = max(worst_uniform, ap_defect(a, t, b))

    line = LatticeGroup(1)
    rng = np.random.default_rng(640)
    bundles = [
        group_bundle(line, FdAlgebra([2])),
        random_fell_bundle(rng, group=line)[0],
    ]
    worst_box = 0.0
    checked = 0
    for n in range(1, 65):
        offsets = sorted({0, 1, 2, n // 3, n // 2, n - 1, n}) if n > 12 else range(n + 1)
        bundle = bundles[n % 2]
        a = folner_witness(bundle, n)
        for off in offsets:
            for sign in (1, -1) if off else (1,):
                t = line.vector([sign * off])
                b = fiber_sample(rng, bundle, t)
                want = (off / n) * fiber_norm(bundle, t, b)
                worst_box = max(worst_box, abs(ap_defect(a, t, b) - want))
                checked += 1
    ok = worst_uniform <= EXACT and worst_box <= EXACT
    record_acceptance(
        5,
        ok,
        f"uniform worst {worst_uniform:.1e}, box worst {worst_box:.1e} "
        f"({checked} box targets, N up to 64)",
    )
    assert ok


def test_criterion_06_cuntz_defect_law():
    start = time.perf_counter()
    worst_law = 0.0
    worst_brute = 0.0
    worst_bound = 0.0
    for n in (2, 3):
        grp = FreeGroup(n)
        words = [(x,) for x in range(1, n + 1)] + [
            (x, y) for x in range(1, n + 1) for y in range(1, n + 1)
        ]
        for word in words:
            g = grp.word(list(word))
            for i in range(max(1, len(word)), 11):
                got = cuntz_ap_defect(i, g, group=grp)
                worst_law = max(worst_law, abs(got - len(word) / i))
                if i <= 4:
                    worst_brute = max(
                        worst_brute, abs(got - brute_cuntz_defect(i, g, grp))
                    )
        for i in range(1, 11):
            worst_bound = max(
                worst_bound, abs(cantor_witness_bound(xi_witness(i, n)) - 1.0)
            )
    elapsed = time.perf_counter() - start
    ok = (
        worst_law <= EXACT
        and worst_brute <= EXACT
        and worst_bound <= EXACT
        and elapsed <= 120.0
    )
    record_acceptance(
        6,
        ok,
        f"law residual {worst_law:.1e}, brute gap {worst_brute:.1e}, "
        f"bound gap {worst_bound:.1e}, {elapsed:.1f} s",
    )
    assert ok


def test_criterion_07_convexifier_contract():
    g = FreeGroup(2)
    worst_gram = 0.0
    worst_defect = 0.0
    worst_bound_gap = 0.0
    overlaps = 0
    for seed in range(100):
        rng = np.random.default_rng(700 + seed)
        if seed % 2:
            bundle = group_bundle(g, FdAlgebra([2]))
        else:
            bundle = make_semidirect(random_infinite_partial_action(rng, g))
        ball1 = g.ball(1)
        def mk():
            return APWitness(
                bundle,
                {r: random_element(rng, bundle.coeff_algebra, 0.5) for r in ball1},
            )
        nw = 2 + seed % 2
        raw = rng.uniform(0.2, 1.0, size=nw)
        lams = raw / raw.sum()
        witnesses = [(mk(), float(lam)) for lam in lams]
        targets = default_targets(bundle, radius=1, max_per_fiber=2)
        mixed, cert = convexify(witnesses, targets, search_radius=6)
        assert len(cert.translates) == nw
        assert all(g.word_length(r) <= 6 for r in cert.translates)
        if len(mixed.data) != sum(len(a.data) for a, _ in witnesses):
            overlaps += 1
        worst_gram = max(worst_gram, cert.gram_residual)
        worst_defect = max(worst_defect, max(cert.defect_residuals, default=0.0))
        cap = max(witness_bound(a) for a, _ in witnesses)
        worst_bound_gap = max(worst_bound_gap, cert.bound - cap)
    ok = (
        worst_gram <= EXACT
        and worst_defect <= EXACT
        and worst_bound_gap <= EXACT
        and overlaps == 0
    )
    record_acceptance(
        7,
        ok,
        f"100 mixes, gram {worst_gram:.1e}, defect split {worst_defect:.1e}, "
        f"bound excess {max(worst_bound_gap, 0.0):.1e}, {overlaps} overlaps",
    )
    assert ok


def test_criterion_08_conditional_expectation():
    z2 = cyclic_group(2)
    z4 = cyclic_group(4)
    b2 = group_bundle(z2, FdAlgebra([2]))
    b4 = group_bundle(z4, FdAlgebra([2]))
    fixtures = [
        (subgroup_sub_bundle(b4, lambda t: t.data % 2 == 0), b4, Window.ball(z4, 2)),
        (mask_sub_bundle(b2, [np.eye(2)]), b2, Window.ball(z2, 1)),
        (trace_sub_bundle(b2, lambda t: t.data == 0), b2, Window.ball(z2, 1)),
    ]
    rng = np.random.default_rng(808)
    worst_idem = 0.0
    worst_bimod = 0.0
    worst_contract = 0.0
    count = 0
    for sub, bundle, w in fixtures:
        assert validate_sub_expectation(sub, w) <= TOL
        for _ in range(67):
            count += 1
            k = random_kernel(rng, bundle, w, max_entries=5)
            once = cond_expectation_pf(sub, k, w, validate=False)
            twice = cond_expectation_pf(sub, once, w, validate=False)
            worst_idem = max(worst_idem, norm2(once - twice))
            h = cond_expectation_pf(sub, random_kernel(rng, bundle, w), w, validate=False)
            l = cond_expectation_pf(sub, random_kernel(rng, bundle, w), w, validate=False)
            sandwich = cond_expectation_pf(sub, k_mul(k_mul(h, k), l), w, validate=False)
            worst_bimod = max(
                worst_bimod, norm2(sandwich - k_mul(k_mul(h, once), l))
            )
            worst_contract = max(
                worst_contract, mf_embed_norm(once, w) - mf_embed_norm(k, w)
            )
    ok = worst_idem == 0.0 and worst_bimod <= TOL and worst_contract <= 1e-8
    record_acceptance(
        8,
        ok,
        f"{count} kernels over 3 fixtures, idempotency gap {worst_idem:.1e}, "
        f"bimodule {worst_bimod:.1e}, norm excess {max(worst_contract, 0.0):.1e}",
    )
    assert ok


def test_criterion_09_cross_module_oracle():
    worst = 0.0
    for seed in range(300):
        rng = np.random.default_rng(900 + seed)
        kind = seed % 3
        if kind == 0:
            pa = random_partial_action(rng, random_finite_group(rng))
        elif kind == 1:
            pa = random_infinite_partial_action(rng, FreeGroup(2))
        else:
            pa = random_infinite_partial_action(rng, LatticeGroup(2))
        bundle = make_semidirect(pa)
        ball = pa.group.ball(1)
        amap = {
            r: random_element(rng, pa.algebra, 0.7)
            for r in ball
            if rng.uniform() < 0.85
        }
        t = ball[int(rng.integers(len(ball)))]
        b = pa.domain(t).project(random_element(rng, pa.algebra))
        lhs = ap_defect_partial(pa, amap, t, b)
        rhs = ap_defect(APWitness(bundle, amap), t, b)
        worst = max(worst, abs(lhs - rhs))
    ok = worst <= TOL
    record_acceptance(9, ok, f"300 instances, max route gap {worst:.1e}")
    assert ok


CLI_CONFIG = {
    "groups": {
        "z4": {"kind": "cyclic", "order": 4},
        "line": {"kind": "lattice", "dim": 1},
        "f2": {"kind": "free", "rank": 2},
    },
    "algebras": {"m2": {"blocks": [2]}},
    "actions": {"act": {"kind": "random", "group": "z4", "salt": 3}},
    "bundles": {
        "b1": {"kind": "semidirect", "action": "act"},
        "bl": {"kind": "group", "group": "line", "algebra": "m2"},
        "bf": {"kind": "group", "group": "f2", "algebra": "m2"},
    },
}


def test_criterion_10_cli_determinism(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps(CLI_CONFIG))
    commands = [
        ("validate", "b1"),
        ("kernels", "--bundle", "bl", "--window", "2"),
        ("ap-check", "--bundle", "b1", "--witness", "builtin:uniform"),
        ("cuntz-ap", "--n", "2", "--imax", "5", "--targets", "a,ab"),
        ("groupoid", "--n", "2", "--depth", "2", "--radius", "1"),
    ]
    runner = CliRunner()
    mismatches = 0
    for pos, cmd in enumerate(commands):
        outs = []
        for run in (0, 1):
            out = tmp_path / f"c{pos}_{run}.csv"
            res = runner.invoke(
                cli_main,
                ["--config", str(conf), "--seed", "7", "--out", str(out), *cmd],
            )
            assert res.exit_code == 0, res.stderr
            outs.append(out.read_bytes())
        if outs[0] != outs[1]:
            mismatches += 1
    ok = mismatches == 0
    record_acceptance(
        10, ok, f"{len(commands)} commands rerun at seed 7, {mismatches} byte diffs"
    )
    assert ok
