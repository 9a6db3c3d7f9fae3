"""
The free group on the boundary: exact witnesses on cylinder functions
=====================================================================

F_n acts on infinite letter streams by prefix replacement: the reduced
word a b^{-1} maps streams starting with b to the same stream with the
prefix swapped for a. Everything here is locally constant, so the whole
calculation runs on finite tables indexed by cylinders and the witness
sums come out as integer counts divided once at the end. The defect of
the scaled indicator family against a positive word g of length at most
i lands exactly at |g|/i.
"""

from fellap.cantor import (
    CylFun,
    cantor_witness_bound,
    cuntz_ap_defect,
    cuntz_defect_table,
    cyl_indicator,
    partial_symbol,
    spectral_groupoid,
    theta_apply,
    validate_groupoid,
    xi_witness,
)
from fellap.groups import FreeGroup

n = 2
grp = FreeGroup(n)

# Cylinder functions are stored as dense tables over words of a fixed
# depth; arithmetic refines to a common depth and stays exact.
one_on_1 = cyl_indicator(n, (1,))
one_on_12 = cyl_indicator(n, (1, 2))
print("1_{X_1} * 1_{X_12} == 1_{X_12}:", (one_on_1 * one_on_12 - one_on_12).sup_norm() == 0.0)

# The generator 1 acts by prepending the letter 1 to every stream; its
# inverse strips it, defined only on streams that start with 1.
sym = partial_symbol(grp, grp.word([1]))
moved = theta_apply(sym, CylFun.constant(n, 1.0))
print("theta_1(1) is the indicator of X_1:", (moved - one_on_1).sup_norm() == 0.0)

# The witness xi_i spreads weight 1/sqrt(i) over the positive words of
# lengths 1..i; its self-pairing telescopes to exactly one.
for i in (1, 4, 10):
    w = xi_witness(i, n)
    print(f"i={i:2d}: support {w.support_size():5d} words, bound {cantor_witness_bound(w)}")

# The defect law: a positive word of length L costs exactly L/i.
g = grp.word([1, 2])
print("defects of g = 12 against xi_i:")
for i in (2, 4, 8, 10):
    print(f"  i={i:2d}: {cuntz_ap_defect(i, g, group=grp)}  (law {2}/{i} = {2/i})")

# cuntz_defect_table sweeps targets and indices and annotates each row
# with the predicted value where the law applies.
rows = cuntz_defect_table(n, 4, [grp.word([1]), grp.word([1, 2, -1])])
for r in rows:
    print(
        f"  i={r.i} word={r.word!r:14} defect={r.defect:.6f} "
        + (f"predicted={r.predicted:.6f}" if r.predicted >= 0 else "no closed form")
    )

# Truncating the boundary action at depth d gives a finite groupoid of
# germs; over cylinders of depth 2 the ball of radius 1 in F_2 produces
# sixteen arrows, and all the groupoid axioms close.
table = spectral_groupoid(n=2, depth=2, radius=1)
print("groupoid arrows:", len(table.arrows))
print("axioms:", validate_groupoid(table).render())
units = [a for a in table.arrows if table.is_unit(a)]
print("units:", len(units), "| example composition:")

def show(arrow):
    word = "".join(str(l) for l in arrow.source)
    return f"({table.group.format_elem(arrow.g)} at X_{word})"

x = next(a for a in table.arrows if not table.is_unit(a))
x_inv = table.invert(x)
print("  x =", show(x), "; x^-1 =", show(x_inv),
      "; x x^-1 =", show(table.compose(x, x_inv)))
print("  x x^-1 is the unit at the range of x:",
      table.compose(x, x_inv) == table.unit_at(table.range_word(x)))
