"""Finitely supported matrix kernels over a Fell bundle.

A kernel assigns to each pair (s, t) of group elements a coefficient in the
fiber over s t^{-1}; only finitely many entries are nonzero.  Kernels form a
*-algebra: the product is

    (h * k)(r, s) = sum_t k(r, t) h(t, s)

with k's entry written first inside each summand, and the involution is
k*(r, s) = k(s, r)*.  The convention makes the left regular representation

    (pi(k) f)(s) = sum_t k(s, t) f(t)

product reversing, pi(h * k) = pi(k) pi(h), while pi(k*) = pi(k)*.  The
reversal is deliberate and pinned by tests; do not "fix" the product order.

A kernel is stored packed: its support pairs (s, t) in insertion order
(``keys``), the fiber coordinate s t^{-1} of each (``elems``), and all its
values as one read-only batch (``batch``, one (m, n_c, d_c, d_c) array per
size class, row i for ``keys[i]``).  The operations read and write that
batch directly: products gather their factors by row for one
``mul_many`` call, the involution stars the batch at ``elems``, beta moves
only the keys, and differences are one scatter per class.  The windowed
conditional expectation runs on the batch too, through
``SubBundle.expect_many``.

Every kernel supported in a finite window F of the group lives in the matrix
algebra M_F(B) of the bundle, and ``mf_embed_norm`` computes its genuine
C*-norm there by representing M_F(B) on a windowed Hilbert space built from
the unit fiber.  For an infinite group this windowed norm is the norm of the
kernel as an element of M_F(B); as an estimate for the full cross sectional
C*-algebra norm of pi(k) it is a lower bound that grows with the window.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Tuple

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    FdElement,
    _concat,
    _inside_masks,
    _masks,
    _minus,
    _parts,
    _singular_values,
    _take,
    _units,
    batch_norms,
    outside_mass,
    project_batch,
    stack_elements,
)
from .bundles import Section, SubBundle, TwistedBundle
from .groups import Elem, Group


class Window:
    """Ordered finite list of distinct group elements.

    The order is part of the data: matrix representations index rows and
    columns by position in the window, and deterministic output (CSV rows,
    cached representations) relies on it.
    """

    __slots__ = ("group", "elements", "_index")

    def __init__(self, group: Group, elements: Iterable[Elem]):
        elems = tuple(elements)
        seen: Dict[Elem, int] = {}
        for pos, t in enumerate(elems):
            group.check(t)
            if t in seen:
                raise ValueError(f"window element repeated at positions {seen[t]} and {pos}")
            seen[t] = pos
        self.group = group
        self.elements = elems
        self._index = seen

    @staticmethod
    def ball(group: Group, radius: int) -> "Window":
        return Window(group, group.ball(radius))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Elem]:
        return iter(self.elements)

    def __repr__(self) -> str:
        names = ", ".join(self.group.format_elem(t) for t in self.elements)
        return f"Window[{names}]"


class Kernel:
    """Finitely supported map (s, t) -> fiber over s t^{-1}, stored packed.

    ``keys`` lists the support pairs (s, t) in insertion order, ``elems``
    the fiber coordinate s t^{-1} of each, and ``batch`` their values as one
    batch (see ``fellap.algebra.stack_elements``): row i of every class
    array belongs to ``keys[i]``.  The batch is read-only, since kernels
    share it (``beta_act`` and ``cond_expectation_pf`` may pass it on as it
    is).

    Fiber membership of every entry is checked at construction, by
    ``Kernel(...)`` and ``_of``; exact zero entries are dropped so that
    support bookkeeping stays meaningful.  With ``project`` set, entries
    are projected into their fibers instead of checked.  ``_trusted`` does
    neither; only ``beta_act`` uses it (see there).  For as long as it
    lives a kernel keeps its involution in ``_star`` and its window
    products per rep in ``_products`` (see ``k_star`` and ``_WindowRep``);
    neither holds the kernel.
    """

    __slots__ = ("bundle", "keys", "elems", "batch", "_star", "_products")

    def __init__(
        self,
        bundle: TwistedBundle,
        entries: Mapping[Tuple[Elem, Elem], FdElement],
        project: bool = False,
    ):
        g = bundle.group
        keys = list(entries)
        elems = [g.mul(s, g.inv(t)) for s, t in keys]
        batch = stack_elements(bundle.coeff_algebra, list(entries.values()))
        self._settle(bundle, keys, elems, batch, project)

    @classmethod
    def _of(cls, bundle: TwistedBundle, keys, elems, batch, project: bool = False) -> "Kernel":
        """The kernel with rows ``batch`` at ``keys``, whose fiber
        coordinates the caller gives as ``elems``."""
        k = object.__new__(cls)
        k._settle(bundle, keys, elems, batch, project)
        return k

    @classmethod
    def _trusted(cls, bundle: TwistedBundle, keys, elems, batch) -> "Kernel":
        """The kernel of these fields, not checked (see the class docstring)."""
        k = object.__new__(cls)
        k.bundle, k.keys, k.elems, k.batch = bundle, tuple(keys), elems, batch
        k._star, k._products = None, {}
        return k

    def _settle(self, bundle, keys, elems, batch, project) -> None:
        # the per-row verdicts are read as Python lists: a kernel has few
        # rows, and a numpy reduction costs more than the loop over them
        fibers = bundle.fiber_ideals(elems)
        if project:
            batch = project_batch(fibers, batch)
        else:
            for (s, t), mass in zip(keys, outside_mass(fibers, batch).tolist()):
                if not mass <= 1e-9:
                    g = bundle.group
                    raise ValueError(
                        f"entry at ({g.format_elem(s)}, {g.format_elem(t)}) lies outside its fiber"
                    )
        nonzero = np.zeros(len(keys), dtype=bool)
        for p in batch:
            nonzero |= p.any(axis=(1, 2, 3))
        live = nonzero.tolist()
        if not all(live):
            keep = [i for i, x in enumerate(live) if x]
            keys = [keys[i] for i in keep]
            elems = [elems[i] for i in keep]
            batch = _take(batch, keep)
        for p in batch:
            p.flags.writeable = False
        self.bundle, self.keys, self.elems = bundle, tuple(keys), tuple(elems)
        self.batch, self._star, self._products = tuple(batch), None, {}

    @staticmethod
    def diagonal_unit(bundle: TwistedBundle, window: Window) -> "Kernel":
        """The unit of M_F(B): the unit of B_e at every (t, t) of the window."""
        n = len(window)
        units = tuple(np.repeat(p[None], n, axis=0) for p in bundle.coeff_algebra.one().packs)
        return Kernel._of(bundle, [(t, t) for t in window], [bundle.group.identity] * n, units)

    def support(self) -> set:
        return set(self.keys)

    def __sub__(self, other: "Kernel") -> "Kernel":
        """The rows of self, then those keys of other that self lacks, in
        other's order, negated; a shared key gets one subtraction."""
        if self.keys == other.keys:
            batch = _minus(self.batch, other.batch)
            return Kernel._of(self.bundle, self.keys, self.elems, batch)
        at = dict(zip(self.keys, range(len(self.keys))))
        shared, theirs, fresh = [], [], []
        for j, key in enumerate(other.keys):
            i = at.get(key)
            if i is None:
                fresh.append(j)
            else:
                shared.append(i)
                theirs.append(j)
        batch = []
        for p, q in zip(self.batch, other.batch):
            out = np.concatenate((p, -q[fresh]))
            out[shared] -= q[theirs]
            batch.append(out)
        keys = self.keys + tuple(other.keys[j] for j in fresh)
        elems = self.elems + tuple(other.elems[j] for j in fresh)
        return Kernel._of(self.bundle, keys, elems, tuple(batch))


def k_mul(h: Kernel, k: Kernel) -> Kernel:
    """Kernel product (h * k)(r, s) = sum_t k(r, t) h(t, s).

    Inside each summand k's entry multiplies from the left in the bundle.
    The support of the result is contained in rows(k) x cols(h).  The terms
    are gathered from the two batches by row, in one ``mul_many`` call, and
    summed into their keys in term order; the key (r, s) takes the fiber
    coordinate (r t^-1)(t s^-1) of its first term.
    """
    if h.bundle is not k.bundle:
        raise ValueError("kernel product needs a common bundle")
    bundle = h.bundle
    g = bundle.group
    by_col: Dict[Elem, List[int]] = {}
    for i, (_, t) in enumerate(k.keys):
        by_col.setdefault(t, []).append(i)
    by_row: Dict[Elem, List[int]] = {}
    for j, (t, _) in enumerate(h.keys):
        by_row.setdefault(t, []).append(j)
    slots: Dict[Tuple[Elem, Elem], int] = {}
    elems: List[Elem] = []
    slot, left, right = [], [], []
    for t, lefts in by_col.items():
        rights = by_row.get(t)
        if rights is None:
            continue
        for i in lefts:
            r = k.keys[i][0]
            for j in rights:
                key = (r, h.keys[j][1])
                at = slots.get(key)
                if at is None:
                    at = slots[key] = len(elems)
                    elems.append(g.mul(k.elems[i], h.elems[j]))
                slot.append(at)
                left.append(i)
                right.append(j)
    terms = bundle.mul_many(
        [k.elems[i] for i in left],
        _take(k.batch, left),
        [h.elems[j] for j in right],
        _take(h.batch, right),
    )
    sums = tuple(np.zeros((len(elems),) + p.shape[1:], dtype=complex) for p in terms)
    for total, p in zip(sums, terms):
        np.add.at(total, slot, p)
    return Kernel._of(bundle, list(slots), elems, sums)


def k_star(k: Kernel) -> Kernel:
    """Involution k*(r, s) = k(s, r)* taken in the bundle: the batch is
    starred at ``elems``, and the key (r, s) sits at (s r^-1)^-1.  Made
    once and kept on k (``k._star``), so every call returns that kernel;
    not kept back on it, since k** need not be k bit for bit."""
    if k._star is None:
        g = k.bundle.group
        stars = k.bundle.star_many(list(k.elems), k.batch)
        keys = [(r, s) for s, r in k.keys]
        k._star = Kernel._of(k.bundle, keys, [g.inv(x) for x in k.elems], stars)
    return k._star


def norm2(k: Kernel) -> float:
    """Hilbert-Schmidt style norm: square root of the sum of squared fiber norms."""
    fibers = k.bundle.fiber_ideals(k.elems)
    batch = project_batch(fibers, k.batch)
    total = 0.0
    for n in batch_norms(batch, len(fibers)).tolist():
        total += n**2
    return float(np.sqrt(total))


def beta_act(t: Elem, k: Kernel) -> Kernel:
    """Right translation beta_t(k)(r, s) = k(r t, s t).

    Pure index arithmetic: entries are moved, never transformed, so norm2
    is preserved exactly and beta is a group action by *-automorphisms.
    The batch and ``elems`` carry over as they are, because
    (r t^-1)(s t^-1)^-1 = r s^-1; the parent's entries were fiber checked
    and zero filtered, so the translate is ``Kernel._trusted``.
    """
    g = k.bundle.group
    g.check(t)
    tinv = g.inv(t)
    moved = [(g.mul(r, tinv), g.mul(s, tinv)) for r, s in k.keys]
    return Kernel._trusted(k.bundle, moved, k.elems, k.batch)


def rank_one(xi: Section, eta: Section) -> Kernel:
    """Rank one kernel k(s, t) = xi(s) eta(t)*."""
    if xi.bundle is not eta.bundle:
        raise ValueError("rank one kernel needs sections of one bundle")
    bundle = xi.bundle
    g = bundle.group
    alg = bundle.coeff_algebra
    cols = list(eta.data)
    invs = [g.inv(t) for t in cols]
    stars = bundle.star_many(cols, stack_elements(alg, list(eta.data.values())))
    keys = [(s, t) for s in xi.data for t in cols]
    col = np.tile(np.arange(len(cols)), len(xi.data))
    row = np.repeat(np.arange(len(xi.data)), len(cols))
    ss = [s for s, _ in keys]
    ts = [invs[c] for c in col.tolist()]
    terms = bundle.mul_many(
        ss,
        _take(stack_elements(alg, list(xi.data.values())), row),
        ts,
        _take(stars, col),
    )
    return Kernel._of(bundle, keys, [g.mul(s, u) for s, u in zip(ss, ts)], terms)


def mf_dim(bundle: TwistedBundle, window: Window) -> int:
    """Linear dimension of the windowed matrix algebra M_F(B)."""
    g = bundle.group
    return sum(
        bundle.fiber_dim(g.mul(s, g.inv(t))) for s in window for t in window
    )


class _WindowRep:
    """Concrete *-representation of the windowed matrix algebra.

    The Hilbert space is the direct sum over t in F of B_t (x)_{B_e} C^V,
    where B_e acts on C^V by the defining block representation; kernels
    act by (pi(k) f)(s) = sum_t k(s, t) f(t).  Each slot is identified with
    a coordinate subspace of C^V through the unit section of its fiber.

    For a slot t let u_t = 1_t d_t, the unit of the fiber ideal, and write
    <u_t, x> = u_t* x, a product landing in the unit fiber.  In a Fell
    bundle of a (twisted) partial action <u_t, u_t> = 1_{t^-1} and
    u_t <u_t, x> = x for every x in B_t.  Hence x* y = <u_t, x>* <u_t, y>,
    so x (x) v -> <u_t, x> v is isometric, and it is onto 1_{t^-1} C^V
    because <u_t, u_t a> = a there.  It is therefore a unitary from the
    slot onto 1_{t^-1} C^V, whose coordinates are those of the blocks of
    the fiber ideal at t^-1.  In these coordinates the (s, t) block of
    pi(k) is the block representation of <u_s, k(s, t) u_t>, cut down to
    the rows of slot s and the columns of slot t.  Nothing is recovered
    numerically, so operator norms computed here are the C*-norms of
    M_F(B) up to rounding.

    The representation is block diagonal.  <u_s, k(s, t) u_t> lies in B_e,
    so it maps the block-j coordinates of slot t to the block-j
    coordinates of slot s and nothing else.  Hence H_j, the block-j
    coordinates of the n_j slots that hold block j, is invariant under
    every pi(k) and pi(k)*, H is the orthogonal sum of the H_j, and
    ||pi(k)|| = max_j ||pi_j(k)|| with pi_j(k) the (n_j d_j)-square
    compression of pi(k) to H_j.  ``norm`` takes those per-block norms,
    one batched SVD per (d_j, n_j), and never forms the dense matrix.

    The layout is fixed per rep.  ``coords[t]`` lists the coordinates of
    C^V that slot t holds.  For size class c of the coefficient algebra,
    ``held[c]`` (slot, position q) says whether the slot holds block
    ``members[c][q]``, ``spans[c]`` (q, coordinate) gives the block's
    coordinates in C^V, ``rows[c]`` (slot, q, coordinate) the row of a held
    coordinate in the dense matrix (chunks in window order, blocks in index
    order inside a chunk), and ``local[c]`` its row in pi_j(k) (slots
    holding j in window order).

    A kernel's window products (``_inner``) are kept read-only in its
    ``_products`` under the rep, so ``matrix`` and ``norm`` take them once;
    the rep holds no kernel, so they go with the kernel.
    """

    def __init__(self, bundle: TwistedBundle, window: Window):
        self.bundle = bundle
        self.window = window
        g = bundle.group
        alg = bundle.coeff_algebra
        elems = list(window)
        self.inverses = [g.inv(t) for t in elems]
        fibers = bundle.fiber_ideals(elems)
        corners = bundle.fiber_ideals(self.inverses)
        classes = list(enumerate(zip(alg.sizes, alg.members)))
        # the units of the fibers, and their involutions, as batches
        self.units = _units(alg, _masks(alg, fibers))
        self.unit_stars = bundle.star_many(elems, self.units)
        # which slots hold which blocks, and which coordinates of C^V
        held = np.zeros((len(elems), alg.nblocks), dtype=bool)
        for c, (_, mem) in classes:
            held[:, list(mem)] = _inside_masks(corners, c, len(mem))[:, :, 0, 0]
        coords = np.repeat(held, alg.blocks, axis=1)
        dense_row = np.cumsum(coords.ravel()).reshape(coords.shape) - 1
        self.vdim = coords.shape[1]
        self.dim = int(coords.sum())
        self.coords: Dict[Elem, np.ndarray] = {
            t: np.flatnonzero(row) for t, row in zip(elems, coords)
        }
        self.occupied = coords.any(axis=1).tolist()
        starts = np.cumsum((0,) + alg.blocks)
        self.held, self.spans, self.rows, self.local, self.groups = [], [], [], [], []
        for c, (d, mem) in classes:
            held_c = held[:, list(mem)]
            span = starts[list(mem)][:, None] + np.arange(d)
            self.held.append(held_c)
            self.spans.append(span)
            self.rows.append(dense_row[:, span])
            self.local.append((np.cumsum(held_c, axis=0) - 1)[:, :, None] * d + np.arange(d))
            # the blocks held by n slots form one group for each n > 0: the
            # (count, side) of its stack of pi_j, the group of each position
            # q and the place of q in its group (counted in Python: the first
            # np.unique call of a process imports numpy.ma, about 1 MB)
            count = held_c.sum(axis=0).tolist()
            sizes = sorted(set(count) - {0})
            group = np.array([sizes.index(n) if n else -1 for n in count], dtype=int)
            place = np.zeros(len(count), dtype=int)
            shapes = []
            for i, n in enumerate(sizes):
                members = np.flatnonzero(group == i)
                place[members] = np.arange(len(members))
                shapes.append((len(members), n * d))
            self.groups.append((shapes, group, place))

    def _inner(self, k: Kernel):
        """<u_s, k(s, t) u_t> for every entry of k between occupied slots,
        in two batched product steps, with the window positions of s and t;
        None when there is no such entry.  Kept in ``k._products``."""
        if self in k._products:
            return k._products[self]
        index = self.window._index
        occupied = self.occupied
        rows, si, ti = [], [], []
        for row, (s, t) in enumerate(k.keys):
            i = index.get(s)
            j = index.get(t)
            if i is None or j is None:
                raise ValueError("kernel support leaves the window")
            if occupied[i] and occupied[j]:
                rows.append(row)
                si.append(i)
                ti.append(j)
        if not rows:
            k._products[self] = None
            return None
        values = k.batch if len(rows) == len(k.keys) else _take(k.batch, rows)
        srow, tcol = np.array(si, dtype=int), np.array(ti, dtype=int)
        moved = self.bundle.mul_many(
            [k.elems[r] for r in rows],
            values,
            [k.keys[r][1] for r in rows],
            _take(self.units, tcol),
        )
        inner = self.bundle.mul_many(
            [self.inverses[i] for i in si],
            _take(self.unit_stars, srow),
            [k.keys[r][0] for r in rows],
            moved,
        )
        for p in (*inner, srow, tcol):
            p.flags.writeable = False
        got = k._products[self] = inner, srow, tcol
        return got

    def _blocks(self, inner, si, ti):
        """Per size class c: the blocks of ``inner`` held by both slots of
        their entry, as (c, blocks, class positions, row slots, column
        slots)."""
        for c, p in enumerate(inner):
            held = self.held[c]
            term, q = np.nonzero(held[si] & held[ti])
            yield c, p[term, q], q, si[term], ti[term]

    def matrix(self, k: Kernel) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=complex)
        got = self._inner(k)
        if got is None:
            return out
        # support keys are distinct, so every block is written once
        for c, y, q, s, t in self._blocks(*got):
            rows = self.rows[c]
            out[rows[s, q][:, :, None], rows[t, q][:, None, :]] = y
        return out

    def norm(self, k: Kernel) -> float:
        got = self._inner(k)
        if got is None:
            return 0.0
        worst = 0.0
        for c, y, q, s, t in self._blocks(*got):
            local = self.local[c]
            r, col = local[s, q][:, :, None], local[t, q][:, None, :]
            shapes, group, place = self.groups[c]
            of = group[q]
            for i, (m, side) in enumerate(shapes):
                pick = of == i
                if not pick.any():
                    continue
                mats = np.zeros((m, side, side), dtype=complex)
                mats[place[q[pick]][:, None, None], r[pick], col[pick]] = y[pick]
                worst = np.maximum(worst, _singular_values(mats).max())
        return float(worst)

    def vector(self, f: Section, v: np.ndarray) -> np.ndarray:
        """Coordinates of f (x) v: the chunk of slot t is <u_t, f(t)> v.

        The inner products take one batched product step. Each is applied
        to v as a block-diagonal matrix over the whole of C^V, in one
        stacked product, so every coordinate is summed over the full row as
        a dense product sums it, bit for bit.
        """
        vv = np.asarray(v, dtype=complex).reshape(self.vdim)
        out = np.zeros(self.dim, dtype=complex)
        index = self.window._index
        slots = []
        for t in f.data:
            i = index.get(t)
            if i is None:
                raise ValueError("section support leaves the window")
            slots.append(i)
        if not slots:
            return out
        alg = self.bundle.coeff_algebra
        ti = np.array(slots, dtype=int)
        inner = self.bundle.mul_many(
            [self.inverses[i] for i in slots],
            _take(self.unit_stars, ti),
            list(f.data),
            stack_elements(alg, list(f.data.values())),
        )
        dense = np.zeros((len(slots), self.vdim, self.vdim), dtype=complex)
        for span, p in zip(self.spans, inner):
            dense[:, span[:, :, None], span[:, None, :]] = p
        moved = dense @ vv
        for c, span in enumerate(self.spans):
            term, q = np.nonzero(self.held[c][ti])
            out[self.rows[c][ti[term], q]] = moved[term[:, None], span[q]]
        return out


def window_rep(bundle: TwistedBundle, window: Window) -> _WindowRep:
    """Cached representation of M_F(B) for the given bundle and window.

    The cache lives on the bundle itself, so it goes when the bundle does.
    """
    per_bundle = vars(bundle).setdefault("_window_reps", {})
    key = window.elements
    rep = per_bundle.get(key)
    if rep is None:
        rep = _WindowRep(bundle, window)
        per_bundle[key] = rep
    return rep


def pi_matrix(k: Kernel, window: Window) -> np.ndarray:
    """Matrix of pi(k) on the windowed Hilbert space, in unit-section coordinates.

    Row and column chunks follow the window order; the chunk of t holds the
    coordinates of 1_{t^-1} C^V (see ``_WindowRep``).  The map is linear in k,
    sends k_mul(h, k) to pi(k) pi(h), and sends k_star(k) to the conjugate
    transpose.
    """
    return window_rep(k.bundle, window).matrix(k)


def mf_embed_norm(k: Kernel, window: Window) -> float:
    """C*-norm of the kernel in the windowed matrix algebra M_F(B).

    Computed as the largest norm of the block compressions pi_j(k), each on
    the block-j coordinates of the slots that hold block j, with one batched
    SVD per block size and slot count (see ``_WindowRep``); the matrix of
    ``pi_matrix`` is never formed.  Monotone under window enlargement.  For a finite group with F = G this
    is the full cross sectional norm; for infinite groups it is a certified
    lower bound for it.
    """
    return window_rep(k.bundle, window).norm(k)


def section_vector(f: Section, window: Window, v: np.ndarray) -> np.ndarray:
    """Orthonormal coordinates of the elementary tensor f (x) v.

    The windowed Hilbert space is spanned by tensors of a section with a
    vector of the block representation space; this returns the coordinate
    vector that ``pi_matrix`` acts on, whose chunk at t is <u_t, f(t)> v.
    Support of ``f`` must lie in the window and ``v`` must have one entry
    per coefficient block dimension.
    """
    return window_rep(f.bundle, window).vector(f, v)


def validate_sub_expectation(
    sub: SubBundle,
    window: Window,
    samples: int = 8,
    seed: int = 0,
) -> float:
    """Largest sampled violation of the conditional expectation laws.

    Checks, on random fiber elements with indices drawn from the window:
    idempotence P_g(P_g(b)) = P_g(b), star compatibility P_{g^-1}(b*) =
    P_g(b)*, and both module laws P_{gh}(b a) = P_g(b) a and
    P_{hg}(a b) = a P_g(b) for a in the expected range at h.
    """
    bundle = sub.bundle
    g = bundle.group
    rng = np.random.default_rng(seed)
    elems = list(window.elements)
    alg = bundle.coeff_algebra

    # A fiber element takes, block by block in ``block_set`` order, d * d
    # real parts and then d * d imaginary parts from one draw: the stream of
    # two ``standard_normal((d, d))`` calls per block. That is the layout
    # ``FdAlgebra.gaussian_layout`` reads from a row of 2 * dim draws, so
    # each draw goes to its blocks' places in such a row (``places[t]``), and
    # the rows become the batch of draws in one call at the end.
    starts = np.cumsum((0,) + tuple(2 * d * d for d in alg.blocks))
    places: Dict[Elem, np.ndarray] = {}
    n = samples
    # rows 0..n-1 hold b, drawn over g; rows n..2n-1 the raw draws over h
    rows = np.zeros((2 * n, 2 * alg.dim))

    def rand_fiber(row: int, t: Elem) -> None:
        at = places.get(t)
        if at is None:
            spans = [np.arange(starts[j], starts[j + 1]) for j in bundle.fiber_ideal(t).block_set]
            at = places[t] = np.concatenate([np.zeros(0, dtype=int)] + spans)
        rows[row, at] = rng.standard_normal(len(at))

    gs, hs = [], []
    for i in range(n):
        gg = elems[rng.integers(len(elems))]
        hh = elems[rng.integers(len(elems))]
        rand_fiber(i, gg)
        rand_fiber(n + i, hh)
        gs.append(gg)
        hs.append(hh)
    bs, raw = _parts(alg.gaussian_layout(rows), 2, n)
    pbs = sub.expect_many(gs, bs)
    As = sub.expect_many(hs, raw)
    stars = _parts(bundle.star_many(gs + gs, _concat(bs, pbs)), 2, n)
    prods = _parts(
        bundle.mul_many(
            gs + gs + hs + hs,
            _concat(bs, pbs, As, As),
            hs + hs + gs + gs,
            _concat(As, As, bs, pbs),
        ),
        4,
        n,
    )
    # the four laws, one block of n terms each: idempotence, star
    # compatibility, and the two module laws
    ginvs = [g.inv(x) for x in gs]
    ghs = [g.mul(x, y) for x, y in zip(gs, hs)]
    hgs = [g.mul(y, x) for x, y in zip(gs, hs)]
    fibers = gs + ginvs + ghs + hgs
    lhs = sub.expect_many(fibers, _concat(pbs, stars[0], prods[0], prods[2]))
    gaps = _minus(lhs, _concat(pbs, stars[1], prods[1], prods[3]))
    ideals = bundle.fiber_ideals(fibers)
    return float(batch_norms(project_batch(ideals, gaps), len(ideals)).max(initial=0.0))


def cond_expectation_pf(
    sub: SubBundle,
    k: Kernel,
    window: Window,
    validate: bool = True,
    samples: int = 8,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> Kernel:
    """Windowed conditional expectation: entrywise expectation then compression.

    Entries outside window x window are dropped (compression by the window
    projection); surviving entries pass through the sub-bundle expectation.
    Idempotent by construction.  When ``validate`` is set the module laws of
    the expectation are sampled first and a violation raises ValueError.
    """
    if validate:
        worst = validate_sub_expectation(sub, window, samples=samples, seed=seed)
        if worst > tol:
            raise ValueError(
                f"conditional expectation violates its module laws (residual {worst:.3e})"
            )
    inside = window._index
    rows = [i for i, (s, t) in enumerate(k.keys) if s in inside and t in inside]
    ts = [k.elems[i] for i in rows]
    values = k.batch if len(rows) == len(k.keys) else _take(k.batch, rows)
    return Kernel._of(sub.bundle, [k.keys[i] for i in rows], ts, sub.expect_many(ts, values))
