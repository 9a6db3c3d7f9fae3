"""Finite-dimensional C*-algebras as direct sums of complex matrix blocks,
their ideals and ideal isomorphisms, partial group actions on them, and the
finite-group globalization construction.

Every closed two-sided ideal of a block algebra is a union of whole blocks,
so ideals are stored as block-index sets and the unit projection of an ideal
is exact. A *-isomorphism between two such ideals is a block bijection plus
one unitary per block; this representation composes exactly and is closed
under inversion, which keeps partial-action arithmetic free of drift.

Globalization is Abadie's enveloping action (J. Funct. Anal. 197, 2003),
built on blocks: each envelope block is an orbit class of pairs (group
element, input block), translation permutes the classes, and every envelope
unitary is a stored unitary of the input action. It is exact and draws no
random numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .groups import Elem, FiniteGroup, Group, UnsupportedGroupError

__all__ = [
    "FdAlgebra",
    "FdElement",
    "Ideal",
    "IdealIso",
    "PartialAction",
    "ActionReport",
    "GlobalizationResult",
    "op_norm",
    "batch_norms",
    "stack_elements",
    "split_batch",
    "apply_many",
    "project_batch",
    "outside_mass",
    "center_basis",
    "validate_partial_action",
    "trivial_partial_action",
    "identity_action",
    "translation_action",
    "pullback_action",
    "conjugate_action",
    "restrict_action",
    "globalize_finite",
    "unit_identity_residual",
]

DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class FdAlgebra:
    """Direct sum of full matrix blocks; ``blocks`` lists the block sizes.

    The empty tuple is allowed and represents the zero algebra. Blocks of
    equal size form a *size class*; elements store each class as one
    stacked array (see :class:`FdElement`), and ``sizes``, ``members`` and
    ``where`` describe that layout: ``sizes[c]`` is the block size of class
    c, ``members[c]`` its block indices in order, and ``where[j]`` the pair
    (class, position in class) of block j.
    """

    blocks: tuple[int, ...]

    def __init__(self, blocks: Iterable[int]):
        bl = tuple(int(d) for d in blocks)
        if any(d < 1 for d in bl):
            raise ValueError("block dimensions must be positive")
        object.__setattr__(self, "blocks", bl)
        sizes = tuple(sorted(set(bl)))
        members = tuple(tuple(j for j, d in enumerate(bl) if d == c) for c in sizes)
        where = [(0, 0)] * len(bl)
        for c, mem in enumerate(members):
            for p, j in enumerate(mem):
                where[j] = (c, p)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "where", tuple(where))

    @property
    def nblocks(self) -> int:
        return len(self.blocks)

    @property
    def dim(self) -> int:
        """Linear dimension, sum of squared block sizes."""
        return sum(d * d for d in self.blocks)

    def zero(self) -> "FdElement":
        return _packed(
            self,
            tuple(
                np.zeros((len(m), d, d), dtype=complex) for d, m in zip(self.sizes, self.members)
            ),
        )

    def one(self) -> "FdElement":
        return _packed(
            self,
            tuple(
                np.repeat(np.eye(d, dtype=complex)[None], len(m), axis=0)
                for d, m in zip(self.sizes, self.members)
            ),
        )

    def element(self, mats: Sequence[np.ndarray]) -> "FdElement":
        return FdElement(self, [np.asarray(m, dtype=complex) for m in mats])

    def gaussian(self, rng: np.random.Generator) -> "FdElement":
        """Element with independent complex Gaussian entries.

        Draws what the block-by-block loop ``rng.normal(size=(d, d)) + 1j *
        rng.normal(size=(d, d))`` over the blocks in order draws, in one call.
        """
        return split_batch(self, self.gaussian_many(rng, 1), 1)[0]

    def gaussian_many(self, rng: np.random.Generator, m: int) -> tuple[np.ndarray, ...]:
        """A batch of m Gaussian elements (see :func:`stack_elements`), the
        same draws, bit for bit, as m successive ``gaussian`` calls."""
        z = rng.normal(size=(m, 2 * self.dim)).take(self._gauss_order, axis=1).view(complex)
        packs = []
        at = 0
        for d, mem in zip(self.sizes, self.members):
            packs.append(z[:, at : at + len(mem) * d * d].reshape(m, len(mem), d, d))
            at += len(mem) * d * d
        return tuple(packs)

    @cached_property
    def _gauss_order(self) -> np.ndarray:
        """Block j draws its d*d real parts, then its d*d imaginary parts;
        this order puts the draws in (real, imaginary) pairs, class after
        class, which is the memory layout of the complex class arrays."""
        starts = np.cumsum([0] + [2 * d * d for d in self.blocks])
        pairs = [np.zeros((0, 2), dtype=int)]
        for d, m in zip(self.sizes, self.members):
            for j in m:
                re = starts[j] + np.arange(d * d)
                pairs.append(np.stack([re, re + d * d], axis=1))
        return np.concatenate(pairs).ravel()

    def full_ideal(self) -> "Ideal":
        return Ideal(self, frozenset(range(self.nblocks)))

    def zero_ideal(self) -> "Ideal":
        return Ideal(self, frozenset())


class _Blocks:
    """The blocks of an element as a list-like view, in block order.

    Reading block j gives a view into its class array, so writing into it
    (``x.mats[j][p, q] = 1``) or assigning a whole block (``x.mats[j] = m``)
    changes the element.
    """

    __slots__ = ("_packs", "_where")

    def __init__(self, packs, where):
        self._packs = packs
        self._where = where

    def __len__(self) -> int:
        return len(self._where)

    def __getitem__(self, j: int) -> np.ndarray:
        c, p = self._where[j]
        return self._packs[c][p]

    def __setitem__(self, j: int, m: np.ndarray) -> None:
        c, p = self._where[j]
        self._packs[c][p] = m

    def __iter__(self):
        packs = self._packs
        return (packs[c][p] for c, p in self._where)


class FdElement:
    """One complex matrix per block of an :class:`FdAlgebra`.

    Arithmetic is blockwise; ``*`` is the algebra product, ``star()`` the
    adjoint, and ``norm()`` the operator norm (max block spectral norm).
    Instances are treated as immutable after construction.

    The blocks are stored packed by size class: ``packs[c]`` is an array of
    shape (n_c, d_c, d_c) holding the blocks ``algebra.members[c]`` in
    order, so every operation is one numpy call per class, not per block.
    ``mats`` gives the blocks one by one, in block order.
    """

    __slots__ = ("algebra", "packs")

    def __init__(self, algebra: FdAlgebra, mats: Sequence[np.ndarray]):
        if len(mats) != algebra.nblocks:
            raise ValueError("block count mismatch")
        mats = [np.asarray(m, dtype=complex) for m in mats]
        for m, d in zip(mats, algebra.blocks):
            if m.shape != (d, d):
                raise ValueError(f"block shape {m.shape} does not match dimension {d}")
        self.algebra = algebra
        self.packs = tuple(np.stack([mats[j] for j in m]) for m in algebra.members)

    @property
    def mats(self) -> _Blocks:
        return _Blocks(self.packs, self.algebra.where)

    def _like(self, packs) -> "FdElement":
        return _packed(self.algebra, tuple(packs))

    def _check(self, other: "FdElement") -> None:
        if other.algebra is not self.algebra and other.algebra != self.algebra:
            raise ValueError("elements of different algebras")

    def __add__(self, other: "FdElement") -> "FdElement":
        self._check(other)
        return self._like([a + b for a, b in zip(self.packs, other.packs)])

    def __sub__(self, other: "FdElement") -> "FdElement":
        self._check(other)
        return self._like([a - b for a, b in zip(self.packs, other.packs)])

    def __mul__(self, other) -> "FdElement":
        if isinstance(other, FdElement):
            self._check(other)
            return self._like([a @ b for a, b in zip(self.packs, other.packs)])
        return self._like([complex(other) * a for a in self.packs])

    def __rmul__(self, scalar) -> "FdElement":
        return self._like([complex(scalar) * a for a in self.packs])

    def __neg__(self) -> "FdElement":
        return self._like([-a for a in self.packs])

    def star(self) -> "FdElement":
        return self._like([a.conj().transpose(0, 2, 1) for a in self.packs])

    def norm(self) -> float:
        return op_norm(self)

    def flat(self) -> np.ndarray:
        """All block entries concatenated into one vector (fixed order)."""
        if not self.packs:
            return np.zeros(0, dtype=complex)
        return np.concatenate([a.ravel() for a in self.mats])

    def copy(self) -> "FdElement":
        return self._like([a.copy() for a in self.packs])

    def __repr__(self) -> str:
        return f"FdElement(blocks={self.algebra.blocks}, norm={self.norm():.4g})"


def _packed(algebra: FdAlgebra, packs: tuple[np.ndarray, ...]) -> FdElement:
    """An element from class arrays laid out as ``algebra`` says; no checks."""
    x = object.__new__(FdElement)
    x.algebra = algebra
    x.packs = packs
    return x


# ---------------------------------------------------------------------------
# Batches: many elements of one algebra in the packed layout of FdElement
# with a leading term axis, one array of shape (m, n_c, d_c, d_c) per size
# class. Batched routines run one numpy call per class over all m terms.
# ---------------------------------------------------------------------------


def stack_elements(algebra: FdAlgebra, xs: Sequence[FdElement]) -> tuple[np.ndarray, ...]:
    """The batch holding the elements ``xs`` of ``algebra`` in order."""
    if not xs:
        return tuple(
            np.zeros((0, len(m), d, d), dtype=complex)
            for d, m in zip(algebra.sizes, algebra.members)
        )
    return tuple(np.array(packs) for packs in zip(*(x.packs for x in xs)))


def split_batch(algebra: FdAlgebra, batch: Sequence[np.ndarray], m: int) -> list[FdElement]:
    """The m elements of a batch, as views into it. ``m`` is passed because
    the zero algebra has no class array to read it from."""
    return [_packed(algebra, tuple(p[i] for p in batch)) for i in range(m)]


def batch_norms(batch: Sequence[np.ndarray], m: int) -> np.ndarray:
    """``op_norm`` of every term of a batch: one batched SVD per class."""
    out = np.zeros(m)
    for p in batch:
        s = np.linalg.svd(p, compute_uv=False)
        np.maximum(out, s.max(axis=(1, 2)), out=out)
    return out


def op_norm(x: FdElement) -> float:
    """C*-norm of a block element: the largest singular value over blocks.

    Each block's value is the one ``np.linalg.norm(block, ord=2)`` gives.
    """
    return op_norms([x])[0]


def op_norms(xs: Sequence[FdElement]) -> list[float]:
    """``op_norm`` of each of several elements of one algebra, with one
    batched SVD per size class for all of them together."""
    if not xs:
        return []
    return batch_norms(stack_elements(xs[0].algebra, xs), len(xs)).tolist()


def center_basis(algebra: FdAlgebra) -> list[FdElement]:
    """The block-unit projections; they span the center."""
    out = []
    for j in range(algebra.nblocks):
        p = algebra.zero()
        p.mats[j] = np.eye(algebra.blocks[j], dtype=complex)
        out.append(p)
    return out


@dataclass(frozen=True)
class Ideal:
    """Closed two-sided ideal, i.e. a subset of block indices."""

    algebra: FdAlgebra
    block_set: frozenset[int]

    def __init__(self, algebra: FdAlgebra, block_set: Iterable[int]):
        bs = frozenset(int(j) for j in block_set)
        if any(not (0 <= j < algebra.nblocks) for j in bs):
            raise ValueError("block index out of range")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "block_set", bs)

    @cached_property
    def _by_class(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per size class: membership of its blocks as a mask of shape
        (n_c, 1, 1), and the positions of the blocks outside the ideal."""
        got = []
        for m in self.algebra.members:
            inside = np.array([j in self.block_set for j in m])
            got.append((inside[:, None, None], np.flatnonzero(~inside)))
        return tuple(got)

    def unit(self) -> FdElement:
        alg = self.algebra
        return _packed(
            alg,
            tuple(
                np.where(inside, np.eye(d, dtype=complex), 0)
                for (inside, _), d in zip(self._by_class, alg.sizes)
            ),
        )

    def project(self, x: FdElement) -> FdElement:
        """Compression of ``x`` to the ideal (kill blocks outside it)."""
        return _packed(
            self.algebra,
            tuple(np.where(inside, p, 0) for p, (inside, _) in zip(x.packs, self._by_class)),
        )

    def contains(self, x: FdElement, tol: float = DEFAULT_TOL) -> bool:
        for p, (_, outside) in zip(x.packs, self._by_class):
            if len(outside) and not float(np.abs(p[outside]).max()) <= tol:
                return False
        return True

    def basis(self) -> list[FdElement]:
        """The matrix units of the ideal's blocks, block by block in index
        order, entries row by row (the terms of ``basis_batch``)."""
        return split_batch(self.algebra, self.basis_batch(), self.dim())

    def basis_batch(self) -> tuple[np.ndarray, ...]:
        """The basis as a batch (see :func:`stack_elements`), a fresh one
        on every call."""
        alg = self.algebra
        out = tuple(
            np.zeros((self.dim(), len(m), d, d), dtype=complex)
            for d, m in zip(alg.sizes, alg.members)
        )
        at = 0
        for j in sorted(self.block_set):
            (c, p), d = alg.where[j], alg.blocks[j]
            k = np.arange(d * d)
            out[c][at + k, p, k // d, k % d] = 1.0
            at += d * d
        return out

    def dim(self) -> int:
        return sum(self.algebra.blocks[j] ** 2 for j in self.block_set)

    def intersect(self, other: "Ideal") -> "Ideal":
        return Ideal(self.algebra, self.block_set & other.block_set)

    def __le__(self, other: "Ideal") -> bool:
        return self.block_set <= other.block_set


def _inside_masks(ideals: Sequence[Ideal], c: int, n: int) -> np.ndarray:
    """Membership masks of the n blocks of class c, per term: (m, n, 1, 1)."""
    return np.array([ideal._by_class[c][0] for ideal in ideals], dtype=bool).reshape(-1, n, 1, 1)


def project_batch(ideals: Sequence[Ideal], batch: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
    """``ideals[i].project`` applied to term i of a batch."""
    return tuple(np.where(_inside_masks(ideals, c, p.shape[1]), p, 0) for c, p in enumerate(batch))


def outside_mass(ideals: Sequence[Ideal], batch: Sequence[np.ndarray]) -> np.ndarray:
    """Largest entry modulus of term i outside ``ideals[i]`` (0 when none is
    outside, NaN when one is NaN), so ``ideals[i].contains(x_i, tol)`` is
    ``outside_mass(...)[i] <= tol``."""
    out = np.zeros(len(ideals))
    for c, p in enumerate(batch):
        mass = np.where(_inside_masks(ideals, c, p.shape[1]), 0.0, np.abs(p))
        np.maximum(out, mass.max(axis=(1, 2, 3), initial=0.0), out=out)
    return out


def conjugation_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Distance between Ad(u) and Ad(v) as maps on matrices.

    The two conjugations agree exactly when w = v*u is a scalar phase, so the
    defect of w from its best scalar approximation measures the gap.
    """
    d = u.shape[0]
    w = v.conj().T @ u
    lam = np.trace(w) / d
    if abs(lam) > 0:
        lam = lam / abs(lam)
    return float(np.linalg.norm(w - lam * np.eye(d), ord=2))


# Blocks up to this size are conjugated through the d^2 x d^2 matrix of
# x -> U x U*, one batched product instead of two. With OpenBLAS on one
# thread that takes 1.5-3.4 us against 4.2-6.4 us for two products at
# d = 2..4, and the two ways come level near d = 8, where the d^4 matrix
# would also cost 64 KB per block. Larger blocks take the two products.
_KRON_MAX = 4


def _conjugate(conj: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x -> U x U* on stacks of blocks of size d, given a conjugation stack
    of an iso plan (see ``IdealIso._plan``) shaped like ``x`` in front."""
    d = x.shape[-1]
    if d <= _KRON_MAX:
        return (conj @ x.reshape(x.shape[:-2] + (d * d, 1))).reshape(x.shape)
    return conj @ x @ np.swapaxes(conj.conj(), -1, -2)


def apply_many(
    isos: Sequence["IdealIso"], batch: Sequence[np.ndarray], slot: Sequence[int] | None = None
) -> tuple[np.ndarray, ...]:
    """The isos on the terms of a batch, all at once: term i goes through
    ``isos[slot[i]]``, or through ``isos[i]`` when ``slot`` is omitted.

    Per size class this is one gather of the source blocks into target
    position (a zero block where a target position lies outside the iso's
    target) and one batched conjugation, with the stacks of each iso's
    class plan (see ``IdealIso._plan``), so the isos may all differ.
    """
    plans = [iso._plan for iso in isos]
    slot = np.arange(len(isos)) if slot is None else np.asarray(slot, dtype=int)
    m = len(slot)
    out = []
    for c, x in enumerate(batch):
        steps = [plan[c] for plan in plans]
        if all(step is None for step in steps):
            out.append(np.zeros(x.shape, dtype=complex))
            continue
        n, d = x.shape[1], x.shape[-1]
        steps = [_nothing_lands(n, d) if step is None else step for step in steps]
        if any(pad for _, _, pad in steps):
            padded = np.zeros((m, n + 1, d, d), dtype=complex)
            padded[:, :n] = x
            x = padded
        if len(steps) == 1:
            gather, conj, _ = steps[0]
            out.append(_conjugate(conj, x.take(gather, axis=1)))
            continue
        gather = np.array([gather for gather, _, _ in steps])[slot]
        gather += x.shape[1] * np.arange(m)[:, None]
        conj = np.array([conj for _, conj, _ in steps])[slot]
        out.append(_conjugate(conj, x.reshape(-1, d, d).take(gather, axis=0)))
    return tuple(out)


def _nothing_lands(n: int, d: int) -> tuple[np.ndarray, np.ndarray, bool]:
    """The plan step of a class that receives no block: every target
    position gathers the zero pad and is conjugated by zero."""
    k = d * d if d <= _KRON_MAX else d
    return np.full(n, n), np.zeros((n, k, k), dtype=complex), True


@dataclass(frozen=True, eq=False)
class IdealIso:
    """A *-isomorphism between two ideals: block bijection ``phi`` plus one
    unitary per source block, acting by a_j -> U_j a_j U_j* into block phi(j).

    ``apply`` factors through the source projection, so feeding it an element
    with mass outside the source silently drops that mass; validators, not
    the arithmetic, are responsible for flagging ill-typed data.
    """

    source: Ideal
    target: Ideal
    phi: Mapping[int, int]
    unitaries: Mapping[int, np.ndarray]

    def __post_init__(self):
        s, t = self.source, self.target
        if s.algebra != t.algebra:
            raise ValueError("source and target must be ideals of the same algebra")
        if set(self.phi.keys()) != set(s.block_set):
            raise ValueError("phi must be defined exactly on the source blocks")
        if set(self.phi.values()) != set(t.block_set):
            raise ValueError("phi must be onto the target blocks")
        if len(set(self.phi.values())) != len(self.phi):
            raise ValueError("phi must be injective")
        for j, k in self.phi.items():
            dj, dk = s.algebra.blocks[j], s.algebra.blocks[k]
            if dj != dk:
                raise ValueError(f"phi maps block {j} (dim {dj}) to block {k} (dim {dk})")
            u = self.unitaries[j]
            if u.shape != (dj, dj):
                raise ValueError("unitary shape mismatch")

    @cached_property
    def _plan(self) -> tuple:
        """Per size class of n blocks of size d, what ``apply`` does there:
        None when no source block lies in the class, else (gather,
        conjugation, pad). ``gather[q]`` is the class position of the
        source block sent to target position q, or n when q is outside the
        target; ``pad`` says whether that happens, in which case the class
        array gets a zero block appended at position n before the gather.
        The conjugation stack holds, per target position, the d^2 x d^2
        matrix of x -> U x U* for d up to ``_KRON_MAX`` and U itself above
        it, with U the unitary of the block sent there (zero outside the
        target). Made on first use and kept."""
        alg = self.algebra
        plan = []
        for d, mem in zip(alg.sizes, alg.members):
            moves = [(alg.where[self.phi[j]][1], p, j) for p, j in enumerate(mem) if j in self.phi]
            if not moves:
                plan.append(None)
                continue
            n = len(mem)
            gather = np.full(n, n)
            u = np.zeros((n, d, d), dtype=complex)
            for q, p, j in moves:
                gather[q] = p
                u[q] = self.unitaries[j]
            if d <= _KRON_MAX:
                u = np.einsum("nik,njl->nijkl", u, u.conj()).reshape(n, d * d, d * d)
            plan.append((gather, u, len(moves) < n))
        return tuple(plan)

    @property
    def algebra(self) -> FdAlgebra:
        return self.source.algebra

    def apply(self, x: FdElement) -> FdElement:
        """The iso on one element, by the plan of :func:`apply_many`."""
        out = []
        for p, step in zip(x.packs, self._plan):
            if step is None:
                out.append(np.zeros(p.shape, dtype=complex))
                continue
            gather, conj, pad = step
            if pad:
                p = np.concatenate([p, np.zeros((1,) + p.shape[1:], dtype=complex)])
            out.append(_conjugate(conj, p.take(gather, axis=0)))
        return _packed(self.source.algebra, tuple(out))

    def inverse(self) -> "IdealIso":
        """The inverse iso, built once and kept (its inverse is ``self``)."""
        inv = self.__dict__.get("_inverse")
        if inv is None:
            phi_inv = {k: j for j, k in self.phi.items()}
            unis = {k: self.unitaries[j].conj().T for j, k in self.phi.items()}
            inv = IdealIso(self.target, self.source, phi_inv, unis)
            object.__setattr__(inv, "_inverse", self)
            object.__setattr__(self, "_inverse", inv)
        return inv

    def compose(self, other: "IdealIso") -> "IdealIso":
        """self after other, restricted to where the chain is defined."""
        src_blocks = {j for j in other.phi if other.phi[j] in self.phi}
        phi = {j: self.phi[other.phi[j]] for j in src_blocks}
        unis = {j: self.unitaries[other.phi[j]] @ other.unitaries[j] for j in src_blocks}
        alg = self.algebra
        return IdealIso(Ideal(alg, src_blocks), Ideal(alg, set(phi.values())), phi, unis)

    def restricted(self, src_blocks: Iterable[int]) -> "IdealIso":
        sb = set(src_blocks) & set(self.phi)
        phi = {j: self.phi[j] for j in sb}
        unis = {j: self.unitaries[j] for j in sb}
        alg = self.algebra
        return IdealIso(Ideal(alg, sb), Ideal(alg, set(phi.values())), phi, unis)

    def map_distance(self, other: "IdealIso") -> float:
        """How far apart two isos are as maps; infinite block structure
        mismatch is reported as inf."""
        if set(self.phi) != set(other.phi) or any(
            self.phi[j] != other.phi[j] for j in self.phi
        ):
            return float("inf")
        if not self.phi:
            return 0.0
        return max(
            conjugation_distance(self.unitaries[j], other.unitaries[j]) for j in self.phi
        )

    def unitarity_residual(self) -> float:
        res = 0.0
        for j, u in self.unitaries.items():
            d = u.shape[0]
            res = max(res, float(np.linalg.norm(u.conj().T @ u - np.eye(d), ord=2)))
        return res

    @staticmethod
    def identity_on(ideal: Ideal) -> "IdealIso":
        phi = {j: j for j in ideal.block_set}
        unis = {j: np.eye(ideal.algebra.blocks[j], dtype=complex) for j in ideal.block_set}
        return IdealIso(ideal, ideal, phi, unis)


class PartialAction:
    """A partial action of a group on a block algebra.

    ``iso(t)`` returns the isomorphism alpha_t from the ideal A_{t^-1} onto
    A_t. The map may be given as an explicit dict (finite groups) or as a
    callable (lazy, for infinite groups); results are cached either way.
    """

    def __init__(
        self,
        group: Group,
        algebra: FdAlgebra,
        iso_fn: Callable[[Elem], IdealIso] | Mapping[Elem, IdealIso],
    ):
        self.group = group
        self.algebra = algebra
        if isinstance(iso_fn, Mapping):
            table = dict(iso_fn)
            self._fn = lambda t: table[t]
        else:
            self._fn = iso_fn
        self._cache: dict[Elem, IdealIso] = {}

    def iso(self, t: Elem) -> IdealIso:
        self.group.check(t)
        got = self._cache.get(t)
        if got is None:
            got = self._fn(t)
            if got.algebra != self.algebra:
                raise ValueError("iso_fn returned an iso over the wrong algebra")
            self._cache[t] = got
        return got

    def domain(self, t: Elem) -> Ideal:
        """The ideal A_t, the range of alpha_t."""
        return self.iso(t).target

    def apply(self, t: Elem, x: FdElement) -> FdElement:
        return self.iso(t).apply(x)

    def unit(self, t: Elem) -> FdElement:
        """The unit projection 1_t of the ideal A_t."""
        return self.domain(t).unit()


@dataclass
class ActionReport:
    """Validation outcome: every violated axiom instance, with residuals.

    ``worst`` is the (axiom, context, residual) of the largest residual
    over every check, passing ones included (a NaN counts as largest), so a
    passing report still says how close it came to its tolerance; None
    before the first check.
    """

    rows: list[tuple[str, str, float]] = field(default_factory=list)
    checked: int = 0
    worst: tuple[str, str, float] | None = None

    def add(self, axiom: str, context: str, residual: float, tol: float) -> None:
        self.checked += 1
        if residual > tol or residual != residual:
            self.rows.append((axiom, context, residual))
        w = self.worst
        if w is None or residual > w[2] or (residual != residual and w[2] == w[2]):
            self.worst = (axiom, context, residual)

    @property
    def passed(self) -> bool:
        return not self.rows

    @property
    def max_residual(self) -> float:
        return max((r for _, _, r in self.rows), default=0.0)

    def render(self) -> str:
        if self.passed:
            return f"pass ({self.checked} checks)"
        lines = [f"FAIL ({len(self.rows)} violations / {self.checked} checks)"]
        for axiom, ctx, res in self.rows[:20]:
            lines.append(f"  {axiom} at {ctx}: residual {res:.3e}")
        return "\n".join(lines)


def validate_partial_action(
    pa: PartialAction, window: int = 2, tol: float = DEFAULT_TOL
) -> ActionReport:
    """Check the partial-action axioms on a ball of the group.

    Verified, for s, t in the window: the identity element acts as the
    identity on the whole algebra; alpha_{t^-1} inverts alpha_t; and the
    composition law: whenever a source block of alpha_t lands in the source
    of alpha_s, that block belongs to the source of alpha_{st} and the maps
    agree there. Unitarity of every stored block unitary is also checked.
    Violations are data in the report, not exceptions.
    """
    g = pa.group
    rep = ActionReport()
    ball = g.ball(window)

    e = g.identity
    iso_e = pa.iso(e)
    full = pa.algebra.full_ideal()
    if iso_e.source.block_set != full.block_set or iso_e.target.block_set != full.block_set:
        rep.add("identity-domain", "e", float("inf"), tol)
    rep.add("identity-map", "e", iso_e.map_distance(IdealIso.identity_on(full)), tol)

    for t in ball:
        iso_t = pa.iso(t)
        rep.add("unitarity", g.format_elem(t), iso_t.unitarity_residual(), tol)
        iso_tinv = pa.iso(g.inv(t))
        rep.add(
            "inverse-map",
            g.format_elem(t),
            iso_tinv.map_distance(iso_t.inverse()),
            tol,
        )

    for s in ball:
        iso_s = pa.iso(s)
        for t in ball:
            iso_t = pa.iso(t)
            st = g.mul(s, t)
            iso_st = pa.iso(st)
            ctx = f"(s={g.format_elem(s)}, t={g.format_elem(t)})"
            for j in iso_t.phi:
                k = iso_t.phi[j]
                if k not in iso_s.phi:
                    continue
                if j not in iso_st.phi:
                    rep.add("composition-domain", ctx + f" block {j}", float("inf"), tol)
                    continue
                if iso_st.phi[j] != iso_s.phi[k]:
                    rep.add("composition-block", ctx + f" block {j}", float("inf"), tol)
                    continue
                u_chain = iso_s.unitaries[k] @ iso_t.unitaries[j]
                rep.add(
                    "composition-map",
                    ctx + f" block {j}",
                    conjugation_distance(iso_st.unitaries[j], u_chain),
                    tol,
                )
    return rep


def identity_action(group: Group, algebra: FdAlgebra) -> PartialAction:
    """Globally defined action where every element acts as the identity."""
    iso = IdealIso.identity_on(algebra.full_ideal())
    return PartialAction(group, algebra, lambda t: iso)


def trivial_partial_action(group: Group, algebra: FdAlgebra) -> PartialAction:
    """Identity at the group identity, zero ideals everywhere else."""
    full = algebra.full_ideal()
    zero = algebra.zero_ideal()
    zero_iso = IdealIso(zero, zero, {}, {})
    id_iso = IdealIso.identity_on(full)

    def fn(t: Elem) -> IdealIso:
        return id_iso if t == group.identity else zero_iso

    return PartialAction(group, algebra, fn)


def translation_action(group: FiniteGroup, base: FdAlgebra) -> PartialAction:
    """Global action of a finite group on the |G|-fold sum of ``base`` by
    coordinate translation: the summand at position t moves to position st.

    Blocks are laid out grouped by group element, in element order, so block
    (t, j) sits at index t*nb + j with nb the block count of ``base``.
    """
    n = group.order
    nb = base.nblocks
    algebra = FdAlgebra(base.blocks * n)
    full = algebra.full_ideal()

    def fn(s: Elem) -> IdealIso:
        phi = {}
        unis = {}
        for t_idx in range(n):
            shifted = group.table[s.data][t_idx]
            for j in range(nb):
                phi[t_idx * nb + j] = shifted * nb + j
                unis[t_idx * nb + j] = np.eye(base.blocks[j], dtype=complex)
        return IdealIso(full, full, phi, unis)

    return PartialAction(group, algebra, fn)


def pullback_action(
    pa: PartialAction, hom: Callable[[Elem], Elem], group: Group
) -> PartialAction:
    """Pull a partial action back along a group homomorphism.

    ``hom`` must send ``group`` into ``pa.group`` multiplicatively; the
    pulled-back action is alpha'_t = alpha_{hom(t)} on the same algebra.
    """
    return PartialAction(group, pa.algebra, lambda t: pa.iso(hom(t)))


def conjugate_action(pa: PartialAction, w: FdElement) -> PartialAction:
    """Conjugate every alpha_t by a fixed unitary w of the algebra."""

    def fn(t: Elem) -> IdealIso:
        iso = pa.iso(t)
        phi = dict(iso.phi)
        unis = {
            j: w.mats[iso.phi[j]] @ iso.unitaries[j] @ w.mats[j].conj().T
            for j in iso.phi
        }
        return IdealIso(iso.source, iso.target, phi, unis)

    return PartialAction(pa.group, pa.algebra, fn)


def restrict_action(pa: PartialAction, J: Ideal) -> PartialAction:
    """Restriction of a partial action to an ideal.

    The carrier becomes the block algebra of J (blocks in sorted order); the
    new domains are J_t = J n alpha_t(A_{t^-1} n J), realized blockwise by
    keeping exactly the source blocks of alpha_t that lie in J and map into J.
    """
    if J.algebra != pa.algebra:
        raise ValueError("ideal belongs to a different algebra")
    old_blocks = sorted(J.block_set)
    new_index = {j: i for i, j in enumerate(old_blocks)}
    sub = FdAlgebra([pa.algebra.blocks[j] for j in old_blocks])

    def fn(t: Elem) -> IdealIso:
        iso = pa.iso(t)
        kept = [j for j in iso.phi if j in J.block_set and iso.phi[j] in J.block_set]
        phi = {new_index[j]: new_index[iso.phi[j]] for j in kept}
        unis = {new_index[j]: iso.unitaries[j] for j in kept}
        return IdealIso(
            Ideal(sub, phi.keys()), Ideal(sub, phi.values()), phi, unis
        )

    return PartialAction(pa.group, sub, fn)


def unit_identity_residual(pa: PartialAction, elements: Sequence[Elem] | None = None) -> float:
    """Max residual of alpha_t(1_{t^-1} 1_s) = 1_t 1_{ts} over the given
    elements (the whole group when omitted and finite)."""
    g = pa.group
    if elements is None:
        if not g.is_finite:
            raise UnsupportedGroupError("provide a window for infinite groups")
        elements = g.ball(0)
    res = 0.0
    for t in elements:
        u_tinv = pa.unit(g.inv(t))
        for s in elements:
            lhs = pa.apply(t, u_tinv * pa.unit(s))
            rhs = pa.unit(t) * pa.unit(g.mul(t, s))
            res = max(res, op_norm(lhs - rhs))
    return res


# ---------------------------------------------------------------------------
# Globalization for finite groups.
#
# Abadie's enveloping action (J. Funct. Anal. 197, 2003; Exel, "Partial
# Dynamical Systems, Fell Bundles and Applications", AMS 2017), made
# combinatorial on blocks. The embedding iota(x)(t) = alpha_{t^-1}(1_t x)
# puts input block j into the |G|-fold direct sum at the ambient blocks
# K_j = {(t^-1, alpha_t(j)) : j in the source of alpha_t}. The enveloping
# algebra is generated by the translates of the image, and its blocks are
# exactly the distinct sets r.K_j, which partition G x blocks. Translation
# by s moves r.K_j to sr.K_j, and in the coordinates that a class takes
# from its representative, the move is conjugation by a stored unitary of
# the input action.
# ---------------------------------------------------------------------------


@dataclass
class GlobalizationResult:
    action: PartialAction
    algebra: FdAlgebra
    embed: Callable[[FdElement], FdElement]
    image_blocks: frozenset[int]
    block_of_input_block: dict[int, int]
    orbit_rank: int
    algebra_rank: int
    structure_residual: float

    @property
    def orbit_spans_all(self) -> bool:
        return self.orbit_rank == self.algebra_rank

    def image_ideal(self) -> Ideal:
        return Ideal(self.algebra, self.image_blocks)


def globalize_finite(pa: PartialAction) -> GlobalizationResult:
    """Enveloping global action of a partial action of a finite group.

    ``pa`` must satisfy the partial-action axioms (see
    ``validate_partial_action``). Each envelope block is one class r.K_j of
    ambient blocks (position, input block), named by a representative
    (r, j): (e, j) when the class meets the identity slice, else its
    smallest (position of r, j). Its coordinates are those of input block j
    carried to position r. Translation by s sends the class of (r, j) to the
    class of (sr, j), whose representative (r', j') is reached from (r, j)
    by alpha_h with h = r'^-1 s r, so the block unitary is alpha_h's stored
    unitary on j. The embedding puts input block j into the class of (e, j)
    unchanged. Envelope blocks are ordered by size, then by the smallest
    ambient position (pos(t), k) in the class, descending.
    """
    g = pa.group
    if not isinstance(g, FiniteGroup):
        raise UnsupportedGroupError("globalization is implemented for finite groups")
    A = pa.algebra
    if A.nblocks == 0:
        raise ValueError("cannot globalize an action on the zero algebra")
    els = g.elements()
    pos = {t: i for i, t in enumerate(els)}
    e = g.identity
    nb = A.nblocks

    # K[j]: the pairs (t^-1, alpha_t(j)) as (position, block)
    K = [[] for _ in range(nb)]
    for t in els:
        t_inv = pos[g.inv(t)]
        for j, k in pa.iso(t).phi.items():
            K[j].append((t_inv, k))

    class_of: dict[tuple[int, int], int] = {}
    reps: list[tuple[Elem, int]] = []
    lowest: list[int] = []
    for r in [e] + [t for t in els if t != e]:
        for j in range(nb):
            if (pos[r], j) in class_of:
                continue
            members = [(pos[g.mul(r, els[p])], k) for p, k in K[j]]
            for m in members:
                class_of[m] = len(reps)
            reps.append((r, j))
            lowest.append(min(p * nb + k for p, k in members))

    order = sorted(range(len(reps)), key=lambda c: (A.blocks[reps[c][1]], -lowest[c]))
    index = {c: i for i, c in enumerate(order)}
    n_alg = FdAlgebra([A.blocks[reps[c][1]] for c in order])
    full = n_alg.full_ideal()

    iso_table: dict[Elem, IdealIso] = {}
    for s in els:
        phi = {}
        unis = {}
        for i, c in enumerate(order):
            r, j = reps[c]
            sr = g.mul(s, r)
            target = class_of[(pos[sr], j)]
            r2, _ = reps[target]
            phi[i] = index[target]
            unis[i] = pa.iso(g.mul(g.inv(r2), sr)).unitaries[j]
        iso_table[s] = IdealIso(full, full, phi, unis)
    global_action = PartialAction(g, n_alg, iso_table)

    block_of = {j: index[class_of[(pos[e], j)]] for j in range(nb)}

    def embed(x: FdElement) -> FdElement:
        mats = [np.zeros((d, d), dtype=complex) for d in n_alg.blocks]
        for j, m in enumerate(x.mats):
            mats[block_of[j]] = m
        return FdElement(n_alg, mats)

    image_blocks = frozenset(block_of.values())
    reached = {iso.phi[i] for iso in iso_table.values() for i in image_blocks}
    return GlobalizationResult(
        action=global_action,
        algebra=n_alg,
        embed=embed,
        image_blocks=image_blocks,
        block_of_input_block=block_of,
        orbit_rank=sum(n_alg.blocks[i] ** 2 for i in reached),
        algebra_rank=n_alg.dim,
        structure_residual=max(iso.unitarity_residual() for iso in iso_table.values()),
    )
