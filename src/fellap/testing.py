"""Deterministic random fixture factories for tests, demos, and the CLI.

All factories take a ``numpy.random.Generator`` so callers control seeding.
Partial actions are produced as restrictions of conjugated translation
actions, which keeps them exactly axiom-satisfying by construction: the
only numerical error in a fixture is floating-point roundoff from unitary
conjugation, never a structural defect.
"""

from __future__ import annotations

import zlib
from typing import Iterable, Sequence

import numpy as np

from .algebra import (
    FdAlgebra,
    FdElement,
    Ideal,
    IdealIso,
    PartialAction,
    _Rows,
    _adjoint,
    _distinct,
    _one_term,
    _take,
    apply_many,
    conjugate_action,
    pullback_action,
    restrict_action,
    translation_action,
)
from .bundles import (
    Section,
    Twist,
    TwistedBundle,
    _corner_units,
    make_twisted,
    trivial_twist,
)
from .kernels import Kernel, Window
from .groups import (
    Elem,
    FiniteGroup,
    FreeGroup,
    Group,
    LatticeGroup,
    cyclic_group,
    symmetric_group,
)

__all__ = [
    "random_unitary",
    "random_element",
    "random_block_unitary",
    "random_finite_group",
    "random_global_action",
    "random_partial_action",
    "random_infinite_partial_action",
    "random_hom_to_finite",
    "scalar_coboundary_twist",
    "matrix_twist",
    "random_section",
    "random_group",
    "random_fell_bundle",
]


def _haar(z: np.ndarray) -> np.ndarray:
    """Unitaries from complex Gaussian matrices (a stack of them allowed):
    QR with the diagonal of R normalized to phases."""
    q, r = np.linalg.qr(z)
    ph = np.diagonal(r, axis1=-2, axis2=-1).copy()
    ph[np.abs(ph) == 0] = 1.0
    return q * (ph / np.abs(ph))[..., None, :]


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-distributed unitary via QR with phase-normalized diagonal."""
    return _haar(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))


def random_element(rng: np.random.Generator, algebra: FdAlgebra, scale: float = 1.0) -> FdElement:
    return scale * algebra.gaussian(rng)


def random_block_unitary(rng: np.random.Generator, algebra: FdAlgebra) -> FdElement:
    """``random_unitary`` on every block in block order, with the same draws
    and values, but one QR per block-size class."""
    unis = [_haar(z) for z in algebra.gaussian(rng).packs]
    return FdElement(algebra, [unis[c][p] for c, p in algebra.where])


_FINITE_POOL = ["Z2", "Z3", "Z4", "Z6", "S3"]


def random_finite_group(rng: np.random.Generator, pool: Sequence[str] | None = None) -> FiniteGroup:
    name = (pool or _FINITE_POOL)[int(rng.integers(len(pool or _FINITE_POOL)))]
    if name.startswith("Z"):
        return cyclic_group(int(name[1:]))
    return symmetric_group(int(name[1:]))


def random_base_blocks(rng: np.random.Generator, max_blocks: int = 2, max_dim: int = 2) -> tuple[int, ...]:
    k = int(rng.integers(1, max_blocks + 1))
    return tuple(int(rng.integers(1, max_dim + 1)) for _ in range(k))


def random_global_action(
    rng: np.random.Generator,
    group: FiniteGroup | None = None,
    base_blocks: Sequence[int] | None = None,
) -> PartialAction:
    """Translation action on a |G|-fold sum, conjugated by a random unitary.

    Globally defined (all domains are the whole algebra) and exactly valid.
    """
    g = group or random_finite_group(rng)
    base = FdAlgebra(base_blocks if base_blocks is not None else random_base_blocks(rng))
    pa = translation_action(g, base)
    w = random_block_unitary(rng, pa.algebra)
    return conjugate_action(pa, w)


def random_partial_action(
    rng: np.random.Generator,
    group: FiniteGroup | None = None,
    base_blocks: Sequence[int] | None = None,
    max_kept_blocks: int | None = 4,
) -> PartialAction:
    """Restriction of a random global action to a random nonempty ideal."""
    glob = random_global_action(rng, group, base_blocks)
    nb = glob.algebra.nblocks
    hi = nb if max_kept_blocks is None else min(nb, max_kept_blocks)
    k = int(rng.integers(1, hi + 1))
    kept = rng.choice(nb, size=k, replace=False)
    return restrict_action(glob, Ideal(glob.algebra, (int(j) for j in kept)))


def random_hom_to_finite(rng: np.random.Generator, group: Group, target: FiniteGroup):
    """A homomorphism from a free or lattice group onto images in ``target``.

    Free groups map each generator to an arbitrary element; lattice groups
    need commuting images, so the target must be abelian for dim > 1.
    """
    if isinstance(group, FreeGroup):
        images = [target.elem(int(rng.integers(target.order))) for _ in range(group.rank)]
        inv_images = [target.inv(im) for im in images]

        def hom(t: Elem) -> Elem:
            out = target.identity
            for letter in t.data:
                step = images[letter - 1] if letter > 0 else inv_images[-letter - 1]
                out = target.mul(out, step)
            return out

        return hom
    if isinstance(group, LatticeGroup):
        images = [target.elem(int(rng.integers(target.order))) for _ in range(group.dim)]
        for a in images:
            for b in images:
                if target.mul(a, b) != target.mul(b, a):
                    raise ValueError("lattice homomorphism needs commuting images")

        def hom(t: Elem) -> Elem:
            out = target.identity
            for c, im in zip(t.data, images):
                step = im if c >= 0 else target.inv(im)
                for _ in range(abs(c)):
                    out = target.mul(out, step)
            return out

        return hom
    raise ValueError(f"no homomorphism factory for {group.label}")


def random_infinite_partial_action(
    rng: np.random.Generator,
    group: Group,
    base_blocks: Sequence[int] | None = None,
    force_global: bool = False,
) -> PartialAction:
    """Partial action of a free or lattice group pulled back along a random
    homomorphism to a small finite group. Lazily evaluated and cached, so it
    is safe on groups with infinitely many elements."""
    pool = ["Z2", "Z3", "Z4", "Z6"] if isinstance(group, LatticeGroup) else None
    finite = random_finite_group(rng, pool)
    if force_global:
        base = random_global_action(rng, finite, base_blocks)
    else:
        base = random_partial_action(rng, finite, base_blocks)
    hom = random_hom_to_finite(rng, group, finite)
    return pullback_action(base, hom, group)


def _hash_phase(salt: int, tag: str) -> complex:
    """Deterministic unit scalar derived from a string, stable across runs."""
    h = zlib.crc32(f"{salt}:{tag}".encode()) % 360_000
    return complex(np.exp(2j * np.pi * h / 360_000))


def scalar_coboundary_twist(pa: PartialAction, salt: int = 0) -> Twist:
    """Twist omega(s, t) = b(s) b(t) conj(b(st)) on the proper corner, for a
    deterministic pseudo-random phase function b with b(e) = 1.

    Coboundaries satisfy the cocycle laws for any valid partial action, so
    these fixtures are exactly valid by construction. A fill forms each
    product st once; its batch is the vector of phases, each a product of
    Python complex numbers, times the batch of the corner units of A_s n
    A_st, made from the block masks of the domains (the values of
    ``trivial_twist(pa)``, see ``fellap.bundles._corner_units``).
    """
    g = pa.group
    phases: dict[Elem, complex] = {g.identity: 1.0 + 0.0j}

    def b(t: Elem) -> complex:
        got = phases.get(t)
        if got is None:
            got = phases[t] = _hash_phase(salt, f"{g.label}|{g.format_elem(t)}")
        return got

    def fn_many(pairs: list) -> tuple[np.ndarray, ...]:
        ss = [s for s, _ in pairs]
        sts = [g.mul(s, t) for s, t in pairs]
        phase = np.array([b(s) * b(t) * b(st).conjugate() for (s, t), st in zip(pairs, sts)])
        return tuple(phase[:, None, None, None] * p for p in _corner_units(pa, ss, sts))

    return Twist.batched(pa.algebra, fn_many)


def matrix_twist(glob: PartialAction, salt: int = 0) -> tuple[PartialAction, Twist]:
    """Exterior-equivalent twisted family over a globally defined action.

    Picks a unitary v_t per group element (v_e = 1) and returns the family
    gamma_t = Ad(v_t) alpha_t together with omega(s, t) = v_s alpha_s(v_t)
    v_st*. The family alone fails the untwisted composition law whenever the
    v's do not form a cocycle, which makes these fixtures the sharp test of
    the twisted product and involution conventions.

    Both are filled in batches. The v's are kept as the rows of one batch.
    Each missing v_t draws its Gaussian row from its own generator, seeded
    by the salt, the group and t; the rows of a fill are laid out as one
    batch and orthonormalized with one QR per block-size class (the values
    ``random_block_unitary`` gives one element at a time). A batch of twist
    values gathers the v_s, v_t and v_st by row and is two batched
    products, with every alpha_s in one ``apply_many`` call.
    """
    g = glob.group
    alg = glob.algebra
    vs = _Rows(alg)
    vs.rows([g.identity], lambda ts: _one_term(alg.one()))

    def draw(ts: list) -> tuple[np.ndarray, ...]:
        z = np.empty((len(ts), 2 * alg.dim))
        for i, t in enumerate(ts):
            seed = zlib.crc32(f"{salt}|{g.label}|{g.format_elem(t)}".encode())
            z[i] = np.random.default_rng(seed).normal(size=2 * alg.dim)
        return tuple(_haar(p) for p in alg.gaussian_layout(z))

    def fam_many(ts: list) -> list[IdealIso]:
        out = []
        rows = vs.rows(ts, draw)
        packs, where = vs.packs, alg.where
        for iso, r in zip(glob.isos(ts), rows):
            unis = {}
            for j, k in iso.phi.items():
                c, p = where[k]
                unis[j] = packs[c][r, p] @ iso.unitaries[j]
            out.append(IdealIso._trusted(iso.source, iso.target, dict(iso.phi), unis))
        return out

    def tw_many(pairs: list) -> tuple[np.ndarray, ...]:
        # one gather of the v_s, then the v_t, then the v_st
        m = len(pairs)
        ss = [s for s, _ in pairs]
        v = vs.take(vs.rows(ss + [t for _, t in pairs] + [g.mul(s, t) for s, t in pairs], draw))
        elems, slot = _distinct(ss)
        moved = apply_many(glob.isos(elems), _take(v, slice(m, 2 * m)), slot)
        return tuple(p[:m] @ q @ _adjoint(p[2 * m :]) for p, q in zip(v, moved))

    return PartialAction.batched(g, alg, fam_many), Twist.batched(alg, tw_many)


def random_group(rng: np.random.Generator, kinds: Sequence[str] = ("finite", "free", "lattice")) -> Group:
    kind = kinds[int(rng.integers(len(kinds)))]
    if kind == "finite":
        return random_finite_group(rng)
    if kind == "free":
        return FreeGroup(int(rng.integers(1, 3)))
    return LatticeGroup(int(rng.integers(1, 3)))


def random_fell_bundle(
    rng: np.random.Generator,
    group: Group | None = None,
    flavor: str | None = None,
) -> tuple[TwistedBundle, str]:
    """A random bundle plus a short label describing how it was built.

    Flavors: plain semidirect over a partial action, scalar-coboundary
    twisted over a partial action, and matrix-twisted over a global action;
    ValueError for any other name.
    """
    g = group if group is not None else random_group(rng)
    flavors = ("semidirect", "scalar-twist", "matrix-twist")
    fl = flavor or flavors[int(rng.integers(3))]
    if fl not in flavors:
        raise ValueError(f"unknown flavor {fl!r}: use semidirect, scalar-twist or matrix-twist")
    salt = int(rng.integers(2**31))
    whole = fl == "matrix-twist"
    if isinstance(g, FiniteGroup):
        pa = random_global_action(rng, g) if whole else random_partial_action(rng, g)
    else:
        pa = random_infinite_partial_action(rng, g, force_global=whole)
    if whole:
        pa, twist = matrix_twist(pa, salt)
    else:
        twist = trivial_twist(pa) if fl == "semidirect" else scalar_coboundary_twist(pa, salt)
    return make_twisted(pa, twist), f"{fl}/{g.label}"


def random_section(
    rng: np.random.Generator,
    bundle: TwistedBundle,
    support: Iterable[Elem],
    scale: float = 1.0,
) -> Section:
    data = {}
    for t in support:
        raw = random_element(rng, bundle.coeff_algebra, scale)
        data[t] = bundle.fiber_ideal(t).project(raw)
    return Section(bundle, data)


def random_kernel(
    rng: np.random.Generator,
    bundle: TwistedBundle,
    window: Window,
    max_entries: int = 6,
    scale: float = 1.0,
) -> Kernel:
    """Kernel with entries at random window pairs, projected into their fibers.

    Each entry draws s, t and then its raw element, as ``random_element``
    draws it; a repeated pair keeps its first position and its last draw.
    The fibers are read, and the draws projected, once for all entries.
    """
    g = bundle.group
    alg = bundle.coeff_algebra
    elems = list(window.elements)
    n = int(rng.integers(1, max_entries + 1))
    z = np.empty((n, 2 * alg.dim))
    last: dict = {}
    for i in range(n):
        s = elems[int(rng.integers(len(elems)))]
        t = elems[int(rng.integers(len(elems)))]
        z[i] = rng.normal(size=2 * alg.dim)
        last[(s, t)] = i
    keys = list(last)
    raw = alg.gaussian_layout(z[list(last.values())])
    return Kernel._of(
        bundle,
        keys,
        [g.mul(s, g.inv(t)) for s, t in keys],
        tuple(scale * p for p in raw),
        project=True,
    )
