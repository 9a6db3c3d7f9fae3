"""
Matrix algebras of finitely supported kernels
=============================================

Kernels are finitely supported functions k(r, s) taking values in the
fiber over r s^{-1}. On a finite window F they form a matrix algebra
M_F whose size is |F|^2 times the fiber dimension; the representation
pi sends the kernel product to the reversed matrix product. This script
walks through the product, the shift action, rank-one kernels coming
from sections, and the conditional expectation onto a sub-bundle.
"""

import numpy as np

from fellap.algebra import FdAlgebra
from fellap.bundles import group_bundle, mask_sub_bundle
from fellap.groups import LatticeGroup
from fellap.kernels import (
    Window,
    beta_act,
    cond_expectation_pf,
    k_mul,
    k_star,
    mf_dim,
    mf_embed_norm,
    norm2,
    pi_matrix,
    rank_one,
    window_rep,
)
from fellap.testing import random_kernel, random_section

line = LatticeGroup(1)
bundle = group_bundle(line, FdAlgebra([2]))
w = Window.ball(line, 2)
print("window:", [line.format_elem(t) for t in w])
print("dim M_F =", mf_dim(bundle, w), "(= |F|^2 x fiber dim =", len(w) ** 2, "x 4)")

rng = np.random.default_rng(3)
h = random_kernel(rng, bundle, w)
k = random_kernel(rng, bundle, w)

# The representation reverses products: pi(h k) = pi(k) pi(h).
lhs = pi_matrix(k_mul(h, k), w)
rhs = pi_matrix(k, w) @ pi_matrix(h, w)
print("product reversal residual:", f"{np.abs(lhs - rhs).max():.2e}")

# The star is an involution and pi sends it to the adjoint.
print(
    "adjoint residual:",
    f"{np.abs(pi_matrix(k_star(k), w) - pi_matrix(k, w).conj().T).max():.2e}",
)

# The group shifts kernels by beta_t(k)(r, s) = k(r t, s t); the shift is
# a *-automorphism and composes exactly.
t1, t2 = line.vector([1]), line.vector([-2])
shift_gap = norm2(
    beta_act(t1, beta_act(t2, k)) - beta_act(line.mul(t1, t2), k)
)
print("shift composition gap:", shift_gap)
print(
    "shift respects products:",
    norm2(beta_act(t1, k_mul(h, k)) - k_mul(beta_act(t1, h), beta_act(t1, k))),
)

# Rank-one kernels k = |xi><eta| built from sections compose through the
# inner product: |xi><eta| |mu><nu| reduces to a single rank-one kernel.
xi = random_section(rng, bundle, w.elements)
eta = random_section(rng, bundle, w.elements)
mu = random_section(rng, bundle, w.elements)
nu = random_section(rng, bundle, w.elements)
product = k_mul(rank_one(mu, nu), rank_one(xi, eta))
collapsed = rank_one(xi.right_mul(eta.inner(mu)), nu)
print("rank-one composition residual:", norm2(product - collapsed))

# Norms grow with the window: embedding the same kernel into a larger
# matrix algebra never shrinks it.
norms = [mf_embed_norm(k, Window.ball(line, r)) for r in (2, 3, 4)]
print("norm of k in nested windows:", [f"{v:.4f}" for v in norms])

# Conditional expectation onto a sub-bundle: keep the diagonal part of
# every fiber. The map is idempotent, norm nonincreasing, and a bimodule
# projection over its image.
sub = mask_sub_bundle(bundle, [np.eye(2)])
p_k = cond_expectation_pf(sub, k, w)
print("P(k) support size:", len(p_k.support()), "of", len(k.support()))
print("idempotency gap:", norm2(p_k - cond_expectation_pf(sub, p_k, w)))
print(
    "norms |P(k)| <= |k|:",
    f"{mf_embed_norm(p_k, w):.4f} <= {mf_embed_norm(k, w):.4f}",
)

# window_rep caches the concrete representation for repeated use; its
# Hilbert space has one slot per window point t, identified through the
# unit section of the fiber with the corner 1_{t^-1} C^V of the block
# representation space.
rep = window_rep(bundle, w)
print("representation space dimension:", rep.dim)
