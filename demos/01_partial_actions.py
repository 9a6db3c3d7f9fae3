"""
Partial actions on block algebras, and where they globalize
===========================================================

A partial action moves elements between ideals of a finite dimensional
C*-algebra; most group elements only act on part of the algebra. This
script builds one by hand, checks the axioms, and then computes the
enveloping (global) action on a larger algebra.
"""

import numpy as np

from fellap.algebra import (
    FdAlgebra,
    Ideal,
    globalize_finite,
    restrict_action,
    trivial_partial_action,
    unit_identity_residual,
    validate_partial_action,
)
from fellap.groups import cyclic_group
from fellap.testing import random_global_action

# ----------------------------------------------------------------------
# The smallest interesting example: the one dimensional algebra with the
# three element cyclic group acting trivially. Only the identity acts.
# ----------------------------------------------------------------------
z3 = cyclic_group(3)
pa = trivial_partial_action(z3, FdAlgebra([1]))
print("trivial action on C:", validate_partial_action(pa).render())

# Globalization embeds C into a 3-block algebra where the generator has
# room to move: the envelope is C^3 and the action is the cyclic shift.
# Each envelope block is one orbit class of pairs (group element, block),
# so the construction is exact and needs no random numbers.
glob = globalize_finite(pa)
print("envelope blocks:", glob.algebra.blocks)
shift = glob.action.iso(z3.elem(1)).phi
print("generator acts on blocks as:", dict(shift))
print("orbit spans the envelope:", glob.orbit_spans_all)

# ----------------------------------------------------------------------
# A partial action obtained by restricting a global one to an ideal.
# Restriction throws away blocks; the partial domains record what is
# left of each group element's reach.
# ----------------------------------------------------------------------
z4 = cyclic_group(4)
rng = np.random.default_rng(11)
full = random_global_action(rng, z4, [1, 2])
# keep the first copy of the base and one block of its translate, so the
# generator reaches out of the ideal on one side and into it on the other
part = restrict_action(full, Ideal(full.algebra, [0, 1, 2]))
for t in z4.elements():
    iso = part.iso(t)
    print(
        f"t = {z4.format_elem(t)}: moves blocks {dict(iso.phi) or '{}'}"
        f", domain dim {iso.source.dim()}"
    )

# The unit projections of the domains satisfy an exact compatibility law
# (the same law the globalization transports): alpha_t(1_{t^-1} 1_s)
# equals 1_t 1_{ts} for every pair.
print("unit identity residual:", unit_identity_residual(part))

# Round trip: globalizing the restriction recovers an action whose
# restriction to the embedded image is the input, block for block.
back = globalize_finite(part)
print("round-trip envelope blocks:", back.algebra.blocks)
print("image sits in blocks:", sorted(back.image_blocks))
print("round-trip structure residual:", f"{back.structure_residual:.2e}")

# The embedding copies each input block unchanged into its envelope block;
# ``mats`` lists an element's blocks in block order.
x = part.algebra.gaussian(rng)
blocks = list(back.embed(x).mats)
same = all(np.array_equal(blocks[back.block_of_input_block[j]], m) for j, m in enumerate(x.mats))
print("embedding copies input blocks unchanged:", same)
