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
    "unitarity_residuals",
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
        return self.full_ideal().unit()

    def gaussian(self, rng: np.random.Generator) -> "FdElement":
        """Element with independent complex Gaussian entries.

        Draws what the block-by-block loop ``rng.normal(size=(d, d)) + 1j *
        rng.normal(size=(d, d))`` over the blocks in order draws, in one call.
        """
        return split_batch(self, self.gaussian_many(rng, 1), 1)[0]

    def gaussian_many(self, rng: np.random.Generator, m: int) -> tuple[np.ndarray, ...]:
        """A batch of m Gaussian elements (see :func:`stack_elements`), the
        same draws, bit for bit, as m successive ``gaussian`` calls."""
        return self.gaussian_layout(rng.normal(size=(m, 2 * self.dim)))

    def gaussian_layout(self, z: np.ndarray) -> tuple[np.ndarray, ...]:
        """The batch whose term i reads row i of ``z`` as ``gaussian`` reads
        its draw: per block, d*d real parts and then d*d imaginary parts."""
        m = len(z)
        z = z.take(self._gauss_order, axis=1).view(complex)
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
        """The ideal of every block, one object per algebra."""
        return self._ideals[0]

    def zero_ideal(self) -> "Ideal":
        return self._ideals[1]

    @cached_property
    def _ideals(self) -> tuple["Ideal", "Ideal"]:
        return Ideal(self, range(self.nblocks)), Ideal(self, ())


class _Blocks:
    """The blocks of an element as a list-like view, in block order.

    Reading block j gives a view into its class array, so writing into it
    (``x.mats[j][p, q] = 1``, or ``x.mats[j][...] = m`` for a whole block)
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

    def __iter__(self):
        packs = self._packs
        return (packs[c][p] for c, p in self._where)


class FdElement:
    """One complex matrix per block of an :class:`FdAlgebra`.

    Arithmetic is blockwise; ``*`` is the algebra product and ``star()``
    the adjoint; ``op_norm`` gives the operator norm (max block spectral
    norm).
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

    def __repr__(self) -> str:
        return f"FdElement(blocks={self.algebra.blocks}, norm={op_norm(self):.4g})"


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


class _Memo(dict):
    """A dict that fills each missing key once, with ``fill(key)``."""

    def __init__(self, fill: Callable):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


class _Rows:
    """Values of keys kept as the rows of one batch: ``row[key]`` is the
    position of a key's value in ``packs``, one array per size class whose
    first ``n`` rows are filled. ``rows`` sends the keys it finds without a
    row to a batch function, together, and appends their batch; a full
    array is replaced by one twice as long, so appending is amortized
    constant time per row. A store made without its algebra learns it from
    ``start`` before the first batch is appended."""

    __slots__ = ("algebra", "row", "packs", "n")

    def __init__(self, algebra: FdAlgebra | None = None):
        self.row: dict = {}
        self.n = 0
        self.algebra = self.packs = None
        if algebra is not None:
            self.start(algebra)

    def start(self, algebra: FdAlgebra) -> None:
        self.algebra = algebra
        self.packs = tuple(
            np.empty((8, len(m), d, d), dtype=complex)
            for d, m in zip(algebra.sizes, algebra.members)
        )

    def rows(self, keys: Sequence, fill: Callable[[list], Sequence[np.ndarray]]) -> list[int]:
        """The row of every key's value. The distinct keys without a row go
        to ``fill`` in one list, and it returns their values as a batch."""
        row = self.row
        got = [row.get(key) for key in keys]
        if None not in got:
            return got
        missing = [key for key, r in zip(keys, got) if r is None]
        if len(missing) > 1:
            missing = list(dict.fromkeys(missing))
        batch = fill(missing)
        n, k, packs = self.n, len(missing), self.packs
        if len(batch) != len(packs) or any(
            x.shape != (k,) + p.shape[1:] for x, p in zip(batch, packs)
        ):
            raise ValueError("the batch function returned the wrong number of values")
        if packs and n + k > len(packs[0]):
            cap = max(n + k, 2 * n)
            grown = tuple(np.empty((cap,) + p.shape[1:], dtype=complex) for p in packs)
            for q, p in zip(grown, packs):
                q[:n] = p[:n]
            self.packs = packs = grown
        for p, x in zip(packs, batch):
            p[n : n + k] = x
        row.update(zip(missing, range(n, n + k)))
        self.n = n + k
        return [row[key] for key in keys]

    def take(self, rows) -> tuple[np.ndarray, ...]:
        """The batch of the values in ``rows``, a fresh copy."""
        return _take(self.packs, rows)


def batch_norms(batch: Sequence[np.ndarray], m: int) -> np.ndarray:
    """``op_norm`` of every term of a batch: the largest modulus for a class
    of 1 x 1 blocks, otherwise one batched SVD per class, over the blocks
    that are not exactly zero, since a zero block has norm 0."""
    out = np.zeros(m)
    for p in batch:
        if p.shape[-1] == 1:
            np.maximum(out, np.abs(p).max(axis=(1, 2, 3), initial=0.0), out=out)
            continue
        live = p.any(axis=(-2, -1))
        if live.all():
            s = np.linalg.svd(p, compute_uv=False)
            np.maximum(out, s.max(axis=(1, 2)), out=out)
        elif live.any():
            norms = np.zeros(live.shape)
            norms[live] = np.linalg.svd(p[live], compute_uv=False).max(axis=1)
            np.maximum(out, norms.max(axis=1), out=out)
    return out


def _adjoint(p: np.ndarray) -> np.ndarray:
    return p.conj().swapaxes(-1, -2)


def _one_term(a: FdElement) -> tuple[np.ndarray, ...]:
    """The batch whose one term is ``a``."""
    return tuple(p[None] for p in a.packs)


def _take(batch, idx) -> tuple[np.ndarray, ...]:
    """The terms of a batch at ``idx`` (an index array or a slice)."""
    return tuple(p[idx] for p in batch)


def _concat(*batches) -> tuple[np.ndarray, ...]:
    return tuple(np.concatenate(packs) for packs in zip(*batches))


def _parts(batch, k: int, m: int) -> list[tuple[np.ndarray, ...]]:
    """A batch of k * m terms cut into k batches of m."""
    return [_take(batch, slice(i * m, (i + 1) * m)) for i in range(k)]


def _minus(x, y) -> tuple[np.ndarray, ...]:
    return tuple(p - q for p, q in zip(x, y))


def _mul(x, y) -> tuple[np.ndarray, ...]:
    return tuple(p @ q for p, q in zip(x, y))


def _adjoints(x) -> tuple[np.ndarray, ...]:
    return tuple(_adjoint(p) for p in x)


def _distinct(keys) -> tuple[list, np.ndarray]:
    """The distinct keys in order of first appearance, and the position of
    each key among them."""
    seen: dict = {}
    slot = [seen.setdefault(k, len(seen)) for k in keys]
    return list(seen), np.array(slot, dtype=int)


# The batched checks run in chunks of consecutive rows holding at most this
# many terms each (cut by ``_chunks``; a row larger than that is a chunk
# alone), which bounds their batches and memory with them. In the unit law of
# ``unit_identity_residual`` here a row is one t and a term one (t, s) pair. In
# the validators of ``fellap.bundles`` a row is a pass (validate_bundle: one
# per s in the ball; validate_twist: one per s, then one per r of the cocycle
# loop), and a term one (s, t, sample) of validate_bundle (five fiber elements
# and three products per product step) or one basis element of
# validate_twist. The balls of the benchmark and of the acceptance criteria fit
# one chunk (F2's ball of radius 2 at one sample has 289 terms).
_TERM_BUDGET = 512


def _chunks(sizes: Sequence[int], budget: int):
    """Consecutive ranges (lo, hi) of rows, ``sizes`` giving the terms of
    each, whose totals stay within ``budget``; a row larger than the budget
    is a chunk alone."""
    lo = total = 0
    for i, k in enumerate(sizes):
        if total and total + k > budget:
            yield lo, i
            lo, total = i, 0
        total += k
    if lo < len(sizes):
        yield lo, len(sizes)


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
    block = np.arange(algebra.nblocks)[:, None, None, None]
    masks = [block == np.array(mem)[:, None, None] for mem in algebra.members]
    return split_batch(algebra, _units(algebra, masks), algebra.nblocks)


@dataclass(frozen=True)
class Ideal:
    """Closed two-sided ideal, i.e. a subset of block indices."""

    algebra: FdAlgebra
    block_set: frozenset[int]

    def __init__(self, algebra: FdAlgebra, block_set: Iterable[int]):
        bs = frozenset(map(int, block_set))
        if bs and (min(bs) < 0 or max(bs) >= algebra.nblocks):
            raise ValueError("block index out of range")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "block_set", bs)

    @cached_property
    def _by_class(self) -> tuple[tuple[np.ndarray, np.ndarray, bytes], ...]:
        """Per size class: membership of its blocks as a mask of shape
        (n_c, 1, 1), the positions of the blocks outside, and the mask's bytes."""
        got = []
        for m in self.algebra.members:
            inside = np.array([j in self.block_set for j in m])
            got.append((inside[:, None, None], np.flatnonzero(~inside), inside.tobytes()))
        return tuple(got)

    def unit(self) -> FdElement:
        return _packed(self.algebra, _units(self.algebra, [m for m, _, _ in self._by_class]))

    def project(self, x: FdElement) -> FdElement:
        """Compression of ``x`` to the ideal (kill blocks outside it)."""
        return _packed(
            self.algebra,
            tuple(np.where(inside, p, 0) for p, (inside, _, _) in zip(x.packs, self._by_class)),
        )

    def contains(self, x: FdElement, tol: float = DEFAULT_TOL) -> bool:
        for p, (_, outside, _) in zip(x.packs, self._by_class):
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


def _inside_masks(ideals: Sequence[Ideal], c: int, n: int) -> np.ndarray:
    """Membership masks of the n blocks of class c, per term: (m, n, 1, 1), read only."""
    raw = b"".join([ideal._by_class[c][2] for ideal in ideals])
    return np.frombuffer(raw, dtype=bool).reshape(-1, n, 1, 1)


def _masks(algebra: FdAlgebra, ideals: Sequence[Ideal]) -> list[np.ndarray]:
    """``_inside_masks`` of every size class of ``algebra``."""
    return [_inside_masks(ideals, c, len(mem)) for c, mem in enumerate(algebra.members)]


def _units(algebra: FdAlgebra, masks: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
    """The units that per-class block masks describe: ``masks[c]`` of shape
    (..., n_c, 1, 1) says which blocks of class c hold an identity, the rest
    being zero. Every unit is made here, an exact 0/1 matrix."""
    return tuple(np.where(mask, np.eye(d, dtype=complex), 0) for mask, d in zip(masks, algebra.sizes))


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
    class plan (see ``IdealIso._plan``), so the isos may all differ. An iso
    listed more than once (one object: the isos of a pullback action are
    shared by every element with the same image) has its plan stacked once.
    """
    distinct, at = _distinct(isos)
    plans = [iso._plan for iso in distinct]
    slot = at if slot is None else at[np.asarray(slot, dtype=int)]
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

    ``IdealIso(...)`` checks that phi is a bijection of the source blocks
    onto the target blocks, of equal sizes, with one unitary of that size
    per source block. ``_trusted`` skips the checks, for derivations that
    keep them for any input iso: ``inverse``, ``translation_action``,
    ``conjugate_action``, ``restrict_action``, ``testing.matrix_twist``.
    """

    source: Ideal
    target: Ideal
    phi: Mapping[int, int]
    unitaries: Mapping[int, np.ndarray]

    def __post_init__(self):
        s, t, phi, unis = self.source, self.target, self.phi, self.unitaries
        if s.algebra != t.algebra:
            raise ValueError("source and target must be ideals of the same algebra")
        if phi.keys() != s.block_set:
            raise ValueError("phi must be defined exactly on the source blocks")
        values = set(phi.values())
        if values != t.block_set:
            raise ValueError("phi must be onto the target blocks")
        if len(values) != len(phi):
            raise ValueError("phi must be injective")
        if unis.keys() != phi.keys():
            missing, extra = sorted(phi.keys() - unis.keys()), sorted(unis.keys() - phi.keys())
            raise ValueError(
                f"no entry {missing[0]} among the unitaries" if missing
                else f"unitaries given outside the source blocks, at {extra}"
            )
        blocks = s.algebra.blocks
        for j, k in phi.items():
            dj, dk = blocks[j], blocks[k]
            if dj != dk:
                raise ValueError(f"phi maps block {j} (dim {dj}) to block {k} (dim {dk})")
            if unis[j].shape != (dj, dj):
                raise ValueError("unitary shape mismatch")

    @classmethod
    def _trusted(cls, source: Ideal, target: Ideal, phi: Mapping, unitaries: Mapping) -> "IdealIso":
        """The iso of these fields, not checked (see the class docstring)."""
        iso = object.__new__(cls)
        iso.__dict__.update(source=source, target=target, phi=phi, unitaries=unitaries)
        return iso

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
        alg, phi, unis = self.algebra, self.phi, self.unitaries
        plan = []
        for d, mem in zip(alg.sizes, alg.members):
            n = len(mem)
            gather, mats = [n] * n, [np.zeros((d, d), dtype=complex)] * n
            for p, j in enumerate(mem):
                if j in phi:
                    q = alg.where[phi[j]][1]
                    gather[q], mats[q] = p, unis[j]
            outside = gather.count(n)
            if outside == n:
                plan.append(None)
                continue
            u = np.array(mats, dtype=complex)
            if d <= _KRON_MAX:
                u = np.einsum("nik,njl->nijkl", u, u.conj()).reshape(n, d * d, d * d)
            plan.append((np.array(gather), u, outside > 0))
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
            inv = IdealIso._trusted(self.target, self.source, phi_inv, unis)
            object.__setattr__(inv, "_inverse", self)
            object.__setattr__(self, "_inverse", inv)
        return inv

    def map_distance(self, other: "IdealIso") -> float:
        """How far apart two isos are as maps; infinite block structure
        mismatch is reported as inf."""
        if dict(self.phi) != dict(other.phi):
            return float("inf")
        if not self.phi:
            return 0.0
        return max(
            conjugation_distance(self.unitaries[j], other.unitaries[j]) for j in self.phi
        )

    @staticmethod
    def identity_on(ideal: Ideal) -> "IdealIso":
        phi = {j: j for j in ideal.block_set}
        unis = {j: np.eye(ideal.algebra.blocks[j], dtype=complex) for j in ideal.block_set}
        return IdealIso(ideal, ideal, phi, unis)


def unitarity_residuals(isos: Sequence[IdealIso]) -> list[float]:
    """The largest ||U*U - 1|| over the block unitaries of each iso, 0.0
    for an iso without any.

    Each distinct unitary (by identity: the isos of an envelope share those
    of the input action) is checked once, in one batched SVD per block size
    and dtype; every value is the one ``np.linalg.norm(U*U - 1, ord=2)``
    gives for that block alone.
    """
    at: dict[int, int] = {}  # id of a distinct unitary -> its position in mats
    mats, owners, where = [], [], []
    for i, iso in enumerate(isos):
        for u in iso.unitaries.values():
            p = at.setdefault(id(u), len(mats))
            if p == len(mats):
                mats.append(u)
            owners.append(i)
            where.append(p)
    # the distinct unitaries by (size, dtype): their positions in mats
    groups: dict = {}
    for p, u in enumerate(mats):
        groups.setdefault((u.shape[0], u.dtype), []).append(p)
    res = np.zeros(len(mats))
    for (d, _), ps in groups.items():
        u = np.array([mats[p] for p in ps])
        res[ps] = np.linalg.svd(_adjoint(u) @ u - np.eye(d), compute_uv=False).max(axis=1)
    out = np.zeros(len(isos))
    np.maximum.at(out, owners, res[where])
    return out.tolist()


class PartialAction:
    """A partial action of a group on a block algebra.

    ``iso(t)`` returns the isomorphism alpha_t from the ideal A_{t^-1} onto
    A_t, and ``isos(ts)`` the isos of a list of elements. The map may be
    given as an explicit dict (finite groups), as a callable on one element
    (lazy, for infinite groups), or, through ``PartialAction.batched``, as a
    callable on a list of elements. Results are cached per element either
    way. The elements a call finds missing from the cache go to the batch
    function together, in one call (a dict or a one-element callable is run
    in a loop as the batch function); each of them is checked to belong to
    the group, and each iso returned to be over the algebra, before any is
    cached.
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
            self._many = lambda ts: [table[t] for t in ts]
        else:
            self._many = lambda ts: [iso_fn(t) for t in ts]
        self._cache: dict[Elem, IdealIso] = {}

    @classmethod
    def batched(
        cls, group: Group, algebra: FdAlgebra, isos_fn: Callable[[list[Elem]], list[IdealIso]]
    ) -> "PartialAction":
        """The partial action whose isos ``isos_fn`` makes for a list of
        distinct elements at a time."""
        pa = cls(group, algebra, {})
        pa._many = isos_fn
        return pa

    def iso(self, t: Elem) -> IdealIso:
        got = self._cache.get(t)
        if got is None:
            self._fill([t])
            got = self._cache[t]
        return got

    def isos(self, ts: Sequence[Elem]) -> list[IdealIso]:
        """``iso(t)`` for every t of ``ts``, filling the cache in one batch."""
        cache = self._cache
        missing = [t for t in ts if t not in cache]
        if missing:
            self._fill(list(dict.fromkeys(missing)) if len(missing) > 1 else missing)
        return [cache[t] for t in ts]

    def _fill(self, missing: list[Elem]) -> None:
        """Make and cache the isos of distinct elements missing from the cache."""
        check, alg = self.group.check, self.algebra
        for t in missing:
            check(t)
        got = self._many(missing)
        if len(got) != len(missing):
            raise ValueError("iso_fn returned the wrong number of isos")
        for iso in got:
            if iso.algebra is not alg and iso.algebra != alg:
                raise ValueError("iso_fn returned an iso over the wrong algebra")
        self._cache.update(zip(missing, got))

    def domain(self, t: Elem) -> Ideal:
        """The ideal A_t, the range of alpha_t."""
        return self.iso(t).target

    def apply(self, t: Elem, x: FdElement) -> FdElement:
        return self.iso(t).apply(x)


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
    agree there. Unitarity of every stored block unitary is also checked,
    for the whole ball in one ``unitarity_residuals`` call. Violations are
    data in the report, not exceptions.
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

    isos = pa.isos(ball)
    inverses = pa.isos([g.inv(t) for t in ball])
    for t, iso_t, iso_tinv, unitarity in zip(ball, isos, inverses, unitarity_residuals(isos)):
        rep.add("unitarity", g.format_elem(t), unitarity, tol)
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
    # every block unitary is an identity, one matrix per base block, in one
    # mapping that all isos share
    unis = dict(enumerate([np.eye(d, dtype=complex) for d in base.blocks] * n))

    def fn(s: Elem) -> IdealIso:
        row = group.table[s.data]
        phi = {t * nb + j: row[t] * nb + j for t in range(n) for j in range(nb)}
        return IdealIso._trusted(full, full, phi, unis)

    return PartialAction(group, algebra, fn)


def pullback_action(
    pa: PartialAction, hom: Callable[[Elem], Elem], group: Group
) -> PartialAction:
    """Pull a partial action back along a group homomorphism.

    ``hom`` must send ``group`` into ``pa.group`` multiplicatively; the
    pulled-back action is alpha'_t = alpha_{hom(t)} on the same algebra.
    """
    return PartialAction.batched(group, pa.algebra, lambda ts: pa.isos([hom(t) for t in ts]))


def conjugate_action(pa: PartialAction, w: FdElement) -> PartialAction:
    """Conjugate every alpha_t by a fixed unitary w of the algebra: block j,
    sent to block k, gets W_k U_j W_j*. Per size class, a fill stacks its
    U_j and makes two stacked products (the bits of two per block). The isos
    keep the ideals and phi of ``pa``'s, so they are ``IdealIso._trusted``.
    """
    alg, where = pa.algebra, pa.algebra.where
    if w.algebra != alg:
        raise ValueError("w belongs to a different algebra")

    def conjugated(ts: list) -> list[IdealIso]:
        isos = pa.isos(ts)
        # per size class: the fill's U_j, and the class positions of its j's and k's
        us, js, ks = ([[] for _ in alg.sizes] for _ in range(3))
        for iso in isos:
            for j, k in iso.phi.items():
                c, p = where[j]
                us[c].append(iso.unitaries[j])
                js[c].append(p)
                ks[c].append(where[k][1])
        made = [
            iter(wc[k] @ np.array(u) @ _adjoint(wc[j])) if u else None
            for wc, u, j, k in zip(w.packs, us, js, ks)
        ]
        return [
            IdealIso._trusted(iso.source, iso.target, iso.phi, {j: next(made[where[j][0]]) for j in iso.phi})
            for iso in isos
        ]

    return PartialAction.batched(pa.group, alg, conjugated)


def restrict_action(pa: PartialAction, J: Ideal) -> PartialAction:
    """Restriction of a partial action to an ideal.

    The carrier becomes the block algebra of J (blocks in sorted order); the
    new domains are J_t = J n alpha_t(A_{t^-1} n J), realized blockwise by
    keeping exactly the source blocks of alpha_t that lie in J and map into J.
    A part of a block bijection is one, so the isos are ``IdealIso._trusted``,
    and the action hands out one ``Ideal`` per block set.
    """
    if J.algebra != pa.algebra:
        raise ValueError("ideal belongs to a different algebra")
    old_blocks = sorted(J.block_set)
    new_index = {j: i for i, j in enumerate(old_blocks)}
    sub = FdAlgebra([pa.algebra.blocks[j] for j in old_blocks])
    ideals = _Memo(lambda blocks: Ideal(sub, blocks))  # block set -> its one Ideal

    def restricted(iso: IdealIso) -> IdealIso:
        phi, unis = {}, {}
        for j, k in iso.phi.items():
            if j in new_index and k in new_index:
                phi[new_index[j]] = new_index[k]
                unis[new_index[j]] = iso.unitaries[j]
        return IdealIso._trusted(ideals[frozenset(phi)], ideals[frozenset(phi.values())], phi, unis)

    return PartialAction.batched(
        pa.group, sub, lambda ts: [restricted(iso) for iso in pa.isos(ts)]
    )


def unit_identity_residual(pa: PartialAction, elements: Sequence[Elem] | None = None) -> float:
    """Max residual of alpha_t(1_{t^-1} 1_s) = 1_t 1_{ts} over the given
    elements (the whole group when omitted and finite).

    The pairs (t, s) run as batches, in chunks of consecutive t holding at
    most ``_TERM_BUDGET`` pairs (a row of more pairs is a chunk alone). Per
    chunk, the block masks of each distinct element's domain are read once;
    a product of two unit projections is exactly the unit of the
    intersection of their blocks, so both products are made from the
    intersected masks, entry for entry what the matrix products give. Every
    alpha_t runs in one ``apply_many`` call with a slot per pair, and the
    norms come from one ``batch_norms`` call. Each pair's norm is the one
    ``op_norm`` gives on that pair alone, and the maximum is taken in pair
    order as ``max(res, norm)`` takes it.
    """
    g = pa.group
    if elements is None:
        if not g.is_finite:
            raise UnsupportedGroupError("provide a window for infinite groups")
        elements = g.ball(0)
    elements = list(elements)
    n = len(elements)
    alg = pa.algebra
    res = 0.0
    for lo, hi in _chunks([n] * n, _TERM_BUDGET):
        rows = elements[lo:hi]
        h = hi - lo
        # the factors 1_{t^-1}, 1_s, 1_t and 1_{ts} of the pairs, as slots
        # into the domains of the distinct elements
        keys = [g.inv(t) for t in rows] + elements + rows
        keys += [g.mul(t, s) for t in rows for s in elements]
        distinct, slot = _distinct(keys)
        masks = _masks(alg, [iso.target for iso in pa.isos(distinct)])
        at_tinv = np.repeat(slot[:h], n)
        at_s = np.tile(slot[h : h + n], h)
        at_t = np.repeat(slot[h + n : 2 * h + n], n)
        at_ts = slot[2 * h + n :]
        lhs = apply_many(
            pa.isos(rows),
            _units(alg, [m[at_tinv] & m[at_s] for m in masks]),
            np.repeat(np.arange(h), n),
        )
        rhs = _units(alg, [m[at_t] & m[at_ts] for m in masks])
        norms = batch_norms(tuple(x - y for x, y in zip(lhs, rhs)), h * n)
        res = max([res, *norms.tolist()])
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

    ``embed`` copies each size-class array of its argument into precomputed
    positions of the envelope's class array, and refuses elements of any
    other algebra. ``structure_residual`` is the largest unitarity residual
    over the envelope isos, from one ``unitarity_residuals`` call, which
    checks each stored input unitary they share once.
    """
    g = pa.group
    if not isinstance(g, FiniteGroup):
        raise UnsupportedGroupError("globalization is implemented for finite groups")
    A = pa.algebra
    if A.nblocks == 0:
        raise ValueError("cannot globalize an action on the zero algebra")
    # Elements are read by position, their index in the group table.
    els, tab = g.elements(), g.table
    e, inv, nb = g.identity.data, [g.inv(t).data for t in els], A.nblocks
    isos = pa.isos(els)

    # K[j]: the pairs (t^-1, alpha_t(j)) as (position, block)
    K = [[] for _ in range(nb)]
    for t, iso in enumerate(isos):
        for j, k in iso.phi.items():
            K[j].append((inv[t], k))

    class_of: dict[tuple[int, int], int] = {}
    reps: list[tuple[int, int]] = []
    lowest: list[int] = []
    for r in [e] + [t for t in range(len(els)) if t != e]:
        for j in range(nb):
            if (r, j) in class_of:
                continue
            members = [(tab[r][p], k) for p, k in K[j]]
            for m in members:
                class_of[m] = len(reps)
            reps.append((r, j))
            lowest.append(min(p * nb + k for p, k in members))

    order = sorted(range(len(reps)), key=lambda c: (A.blocks[reps[c][1]], -lowest[c]))
    index = {c: i for i, c in enumerate(order)}
    n_alg = FdAlgebra([A.blocks[reps[c][1]] for c in order])
    full = n_alg.full_ideal()

    iso_table: dict[Elem, IdealIso] = {}
    for s, row in zip(els, tab):
        phi, unis = {}, {}
        for i, c in enumerate(order):
            r, j = reps[c]
            target = class_of[(row[r], j)]
            phi[i] = index[target]
            unis[i] = isos[tab[inv[reps[target][0]]][row[r]]].unitaries[j]
        iso_table[s] = IdealIso(full, full, phi, unis)
    global_action = PartialAction(g, n_alg, iso_table)

    block_of = {j: index[class_of[(e, j)]] for j in range(nb)}
    # Envelope blocks have the sizes of their input blocks, so size class c
    # of A and of the envelope hold blocks of one size; dest[c] gives the
    # envelope position of each input block of the class.
    dest = [np.array([n_alg.where[block_of[j]][1] for j in mem]) for mem in A.members]
    shapes = [(len(mem), d, d) for d, mem in zip(n_alg.sizes, n_alg.members)]

    def embed(x: FdElement) -> FdElement:
        if x.algebra is not A and x.algebra != A:
            raise ValueError("embed takes elements of the input algebra")
        packs = []
        for shape, at, p in zip(shapes, dest, x.packs):
            out = np.zeros(shape, dtype=complex)
            out[at] = p
            packs.append(out)
        return _packed(n_alg, tuple(packs))

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
        structure_residual=max(unitarity_residuals(list(iso_table.values()))),
    )
