"""Numerical amenability certificates for Fell bundles.

A witness is a finitely supported map a: G -> B_e. Against a target
fiber element b over t it produces the defect

    | b - sum_s a(ts)* b a(s) |,

and a family of witnesses with bounds <= 1 and defects -> 0 certifies
the approximation property. Three constructions are shown: the uniform
witness on a finite group (defects exactly zero), box witnesses on the
integers (defect (|t|/N) |b|), and convex mixing of witnesses over a
free group, which trades no bound growth for averaged defects. A witness
with central values has a positive-type function t -> c_t on the group
(``ad_function``), and its defects are read from it.
"""

import numpy as np

from fellap.algebra import FdAlgebra
from fellap.approx import (
    APWitness,
    ad_function,
    ap_certify,
    ap_defect,
    convexify,
    default_targets,
    folner_witness,
    uniform_witness,
    witness_bound,
)
from fellap.bundles import fiber_norm, group_bundle, make_semidirect
from fellap.groups import FreeGroup, LatticeGroup, cyclic_group
from fellap.testing import random_element, random_partial_action

rng = np.random.default_rng(5)

# Finite groups are amenable in the strongest possible sense: the uniform
# witness a(s) = 1/sqrt(|G|) has bound one and kills every defect.
pa = random_partial_action(rng, cyclic_group(5))
bundle = make_semidirect(pa)
uni = uniform_witness(bundle)
print("uniform bound:", witness_bound(uni))
worst = max(
    ap_defect(uni, tgt.t, tgt.b) for tgt in default_targets(bundle, radius=1)
)
print("worst uniform defect:", f"{worst:.2e}")

# On Z the box witness of side N leaks mass at the boundary: shifting the
# box by t misses |t| of its N points, so the defect is (|t|/N) |b|.
line = LatticeGroup(1)
zbundle = group_bundle(line, FdAlgebra([2]))
N = 10
box = folner_witness(zbundle, N)
t = line.vector([3])
b = zbundle.fiber_ideal(t).project(random_element(rng, zbundle.coeff_algebra))
print(
    f"box N={N}, t=3: defect {ap_defect(box, t, b):.6f}"
    f" = 3/10 x |b| = {0.3 * fiber_norm(zbundle, t, b):.6f}"
)

# The box witness has central values, scalars on each block, so its
# positive-type function c_t = sum_s conj(a(ts)) a(s) = 1 - |t|/N is index
# arithmetic on those scalars, and sum_s a(ts)* b a(s) = b c_t. ap_certify
# reads every defect over t from c_t and two products, whatever the number
# of targets.
print(f"box N={N} positive-type function c_t (one block, M_2):")
for k in range(-1, 12, 3):
    c = ad_function(box, line.vector([k]))[0].real
    print(f"   t={k:3d}: c_t = {c:.4f}, 1 - |t|/N = {max(0.0, 1 - abs(k) / N):.4f}")

# ap_certify sweeps a whole family: bounds must stay capped and the final
# witness must push every defect under the tolerance.
family = [folner_witness(zbundle, n) for n in (2, 4, 8, 16, 32)]
targets = default_targets(zbundle, radius=1)
verdict = ap_certify(zbundle, family, targets, tolerance=0.05)
print("certificate over boxes up to N=32:", "pass" if verdict.passed else "fail")
print("  final witness bound:", f"{verdict.rows[-1].bound:.4f}")
for target_label, defect in verdict.final_defects().items():
    print(f"   target {target_label}: defect {defect:.4f}")

# Convex mixing over the free group: translate the witnesses so their
# supports are disjoint, then mix. The exact identities make the mixed
# bound a convex combination, never larger than the worst input.
f2 = FreeGroup(2)
fbundle = group_bundle(f2, FdAlgebra([2]))
ball1 = f2.ball(1)
mk = lambda: APWitness(
    fbundle, {r: random_element(rng, fbundle.coeff_algebra, 0.5) for r in ball1}
)
pair = [(mk(), 0.5), (mk(), 0.5)]
targets = default_targets(fbundle, radius=1, max_per_fiber=2)
# the search separates the supports together with their shifts by the
# target inverses, so it needs a ball a bit deeper than the supports
mixed, cert = convexify(pair, targets, search_radius=6)
print("translates used:", [f2.format_elem(r) for r in cert.translates])
print("gram split residual:", f"{cert.gram_residual:.2e}")
print(
    "mixed bound vs inputs:",
    f"{cert.bound:.4f} <= max({', '.join(f'{witness_bound(a):.4f}' for a, _ in pair)})",
)
