"""Approximation-property witnesses, defects, and convexification.

A witness is a finitely supported map from the group into the unit fiber.
Its quality is measured two ways: the bound ``|sum_r a(r)* a(r)|`` must stay
capped along a family, and for each target b in the fiber over t the defect

    | b - sum_r a(tr)* b a(r) |

must become small.  ``convexify`` implements the translate-and-mix step that
turns a family of witnesses with convex weights into a single witness whose
inner product and defect sums split exactly over the inputs; the split is an
algebraic consequence of support disjointness, so its residuals double as a
certificate that the chosen translates really are disjoint.

A witness whose values are central in the unit fiber is read as block
scalars xi(r)_k: its positive-type function c_{t,k} = sum_r conj(xi(tr)_k)
xi(r)_{phi_t^-1(k)} is index arithmetic (``ad_function``), and
``ap_certify`` reads its defects over t from c_t and two products per
distinct t; ``ap_defects`` stays the independent route.

Norm convergence is the only mode certified here.  Weak-topology variants
are documented as out of scope: a norm-small defect implies the weak one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .algebra import (
    FdElement,
    Ideal,
    PartialAction,
    _adjoints,
    _distinct,
    _masks,
    _minus,
    _take,
    _units,
    apply_many,
    batch_norms,
    op_norm,
    outside_mass,
    project_batch,
    stack_elements,
)
from .bundles import TwistedBundle
from .groups import Elem, LatticeGroup, UnsupportedGroupError


class TranslateSearchError(RuntimeError):
    """No disjoint translate found inside the search ball."""


class APWitness:
    """Finitely supported map from the group into the unit fiber: ``data``
    maps each element of the support to its nonzero value."""

    __slots__ = ("bundle", "data")

    def __init__(self, bundle: TwistedBundle, data: Mapping[Elem, FdElement]):
        alg = bundle.coeff_algebra
        clean: Dict[Elem, FdElement] = {}
        for r, a in data.items():
            bundle.group.check(r)
            if a.algebra is not alg:
                raise ValueError("witness value from a foreign algebra")
            if any(p.any() for p in a.packs):
                clean[r] = a
        self.bundle = bundle
        self.data = clean

    @staticmethod
    def zero(bundle: TwistedBundle) -> "APWitness":
        return APWitness(bundle, {})

    def translated(self, r: Elem) -> "APWitness":
        """Right translate s -> a(s r^{-1})."""
        g = self.bundle.group
        return APWitness(self.bundle, {g.mul(s, r): a for s, a in self.data.items()})

    def scaled(self, lam: complex) -> "APWitness":
        return APWitness(self.bundle, {s: lam * a for s, a in self.data.items()})

    def merged(self, other: "APWitness") -> "APWitness":
        data = dict(self.data)
        for s, a in other.data.items():
            data[s] = data[s] + a if s in data else a
        return APWitness(self.bundle, data)


def witness_gram(a: APWitness) -> FdElement:
    """The unit-fiber element sum_r a(r)* a(r)."""
    total = a.bundle.coeff_algebra.zero()
    for v in a.data.values():
        total = total + v.star() * v
    return total


def witness_bound(a: APWitness) -> float:
    return op_norm(witness_gram(a))


def _terms(a: APWitness, ts: Sequence[Elem]) -> Tuple[np.ndarray, List[Elem], List[int], List[int]]:
    """The terms of sum_r a(tr)* ... a(r) for each t of ``ts``, r running
    over the support with tr in it: the position of t, t itself, and the
    positions of tr and r in ``a.data``."""
    g = a.bundle.group
    at = {r: i for i, r in enumerate(a.data)}
    owner, steps, left, right = [], [], [], []
    for i, t in enumerate(ts):
        for r, k in at.items():
            j = at.get(g.mul(t, r))
            if j is not None:
                owner.append(i)
                steps.append(t)
                left.append(j)
                right.append(k)
    return np.asarray(owner, dtype=int), steps, left, right


def _sums(owner: np.ndarray, terms: np.ndarray, n: int) -> np.ndarray:
    """The sums of the terms of owners 0..n-1, added in order."""
    total = np.zeros((n,) + terms.shape[1:], dtype=complex)
    np.add.at(total, owner, terms)
    return total


def _defect_sums(a: APWitness, ts: Sequence[Elem], bs: Tuple[np.ndarray, ...]) -> Tuple[np.ndarray, ...]:
    """Batch of sum_r a(tr)* b a(r), one term per target (t, b): t from
    ``ts`` and b the matching term of the batch ``bs``.

    The summands of all targets are evaluated together, in two
    ``mul_many`` calls, and added per target in the order of ``a.data``.
    """
    bundle = a.bundle
    e = bundle.group.identity
    owner, steps, left, right = _terms(a, ts)
    values = stack_elements(bundle.coeff_algebra, list(a.data.values()))
    es = [e] * len(steps)
    mid = bundle.mul_many(es, _adjoints(_take(values, left)), steps, _take(bs, owner))
    terms = bundle.mul_many(steps, mid, es, _take(values, right))
    return tuple(_sums(owner, p, len(ts)) for p in terms)


def _fiber_targets(
    bundle: TwistedBundle, targets: Sequence[Tuple[Elem, FdElement]]
) -> Tuple[List[Elem], List[Ideal], Tuple[np.ndarray, ...]]:
    """The elements t of targets (t, b), their fiber ideals and the batch of
    the b's; ValueError when some b lies outside the fiber over its t."""
    ts = [t for t, _ in targets]
    ideals = bundle.fiber_ideals(ts)
    bs = stack_elements(bundle.coeff_algebra, [b for _, b in targets])
    if not (outside_mass(ideals, bs) <= 1e-9).all():
        raise ValueError("target lies outside the fiber over t")
    return ts, ideals, bs


def ap_defects(a: APWitness, targets: Sequence[Tuple[Elem, FdElement]]) -> List[float]:
    """Defects | b - sum_r a(tr)* b a(r) | of the witness at targets (t, b)."""
    return _direct_defects(a, *_fiber_targets(a.bundle, targets))


def _direct_defects(a: APWitness, ts, ideals, bs) -> List[float]:
    """``ap_defects`` at the targets ``_fiber_targets`` read."""
    gaps = _minus(bs, _defect_sums(a, ts, bs))
    return batch_norms(project_batch(ideals, gaps), len(ts)).tolist()


def _block_scalars(a: APWitness) -> Optional[np.ndarray]:
    """The scalars xi(r)_k of a(r) on each block k, one row per r of
    ``a.data``; None unless every block of every value is exactly a finite
    scalar multiple of the identity (no tolerance)."""
    alg = a.bundle.coeff_algebra
    xi = np.zeros((len(a.data), alg.nblocks), dtype=complex)
    for d, members, p in zip(alg.sizes, alg.members, stack_elements(alg, list(a.data.values()))):
        diag = np.diagonal(p, axis1=-2, axis2=-1)
        scalar = np.isfinite(diag) & (diag == diag[..., :1])
        if p[..., ~np.eye(d, dtype=bool)].any() or not scalar.all():
            return None
        xi[:, list(members)] = diag[..., 0]
    return xi


def _scalar_sums(a: APWitness, xi: np.ndarray, ts: Sequence[Elem]) -> np.ndarray:
    """c_{t,k} = sum_r conj(xi(tr)_k) xi(r)_{phi_t^-1(k)} on the blocks k
    of D_t, 0 elsewhere, one row per t of ``ts``: xi from ``_block_scalars``,
    phi_t the block map of alpha_t: D_{t^-1} -> D_t."""
    owner, _, left, right = _terms(a, ts)
    src = np.zeros((len(ts), xi.shape[1]), dtype=int)
    held = np.zeros(src.shape, dtype=bool)
    for i, iso in enumerate(a.bundle.family.isos(list(ts))):
        for j, k in iso.phi.items():
            src[i, k], held[i, k] = j, True
    moved = np.where(held[owner], np.take_along_axis(xi[right], src[owner], axis=1), 0)
    return _sums(owner, xi[left].conj() * moved, len(ts))


def _central_defects(a: APWitness, xi: np.ndarray, ts, ideals, bs) -> List[float]:
    """``_direct_defects`` of a witness with central values, xi its
    ``_block_scalars``, from two products per distinct t.

    By (x d_s)(y d_t) = x alpha_s(y) omega(s, t), the summand of r at a
    target (t, b) is a(tr)* alpha_e(b) omega(e, t) alpha_t(a(r)) omega(t, e).
    a(tr)* and alpha_t(a(r)) are central, with block scalars conj(xi(tr)_k)
    and xi(r)_{phi_t^-1(k)} on D_t, so the sum is alpha_e(b) S_t with C_t
    the central element of scalars c_{t,k} (``_scalar_sums``), u_t the unit
    of D_t (b = b u_t, C_t = C_t u_t) and
    S_t = (C_t d_e)(u_t d_t)(1 d_e) = C_t alpha_e(u_t) omega(e, t) u_t omega(t, e).
    The defect is | proj_t(b - alpha_e(b) S_t) |. Neither alpha_e = id nor
    a normalized twist is used.
    """
    bundle = a.bundle
    alg = bundle.coeff_algebra
    e = bundle.group.identity
    elems, slot = _distinct(ts)
    c = _scalar_sums(a, xi, elems)
    es = [e] * len(elems)
    scalars = tuple(c[:, list(m), None, None] * np.eye(d) for d, m in zip(alg.sizes, alg.members))
    mid = bundle.mul_many(es, scalars, elems, _units(alg, _masks(alg, bundle.fiber_ideals(elems))))
    sums = bundle.mul_many(elems, mid, es, _units(alg, _masks(alg, [alg.full_ideal()] * len(elems))))
    moved = apply_many([bundle.family.iso(e)], bs, np.zeros(len(ts), dtype=int))
    gaps = tuple(b - x @ s[slot] for b, x, s in zip(bs, moved, sums))
    return batch_norms(project_batch(ideals, gaps), len(ts)).tolist()


def ad_function(a: APWitness, t: Elem) -> np.ndarray:
    """The block scalars c_{t,k} = sum_r conj(xi(tr)_k) xi(r)_{phi_t^-1(k)}
    of a witness with central values, xi(r)_k the scalar of a(r) on block
    k, phi_t the block map of alpha_t: D_{t^-1} -> D_t; 0 off D_t.

    t -> c_t is the positive-type function of the witness. Where alpha_e
    is the identity and the twist is normalized at e, as for every bundle
    ``fellap.testing`` builds, the defect at a basis target in block k over
    t is |1 - c_{t,k}| (see ``_central_defects``); for the side-N box on Z,
    c_t = 1 - |t|/N. ValueError for a witness whose values are not central.
    """
    xi = _block_scalars(a)
    if xi is None:
        raise ValueError("the witness values are not central")
    return _scalar_sums(a, xi, [t])[0]


def ap_defect(a: APWitness, t: Elem, b: FdElement) -> float:
    """Defect | b - sum_r a(tr)* b a(r) | of the witness at one target."""
    return ap_defects(a, [(t, b)])[0]


def ap_defect_partial(
    pa: PartialAction,
    witness: Union[APWitness, Mapping[Elem, FdElement]],
    t: Elem,
    b: FdElement,
) -> float:
    """Defect evaluated through the partial action alone.

    Computes | b - sum_s a(ts)* alpha_t(alpha_{t^-1}(b) a(s)) | with plain
    algebra products; no bundle structure is touched, so the value serves
    as an independent route against ap_defect over the semidirect bundle.
    """
    data = witness.data if isinstance(witness, APWitness) else dict(witness)
    g = pa.group
    if not pa.domain(t).contains(b, tol=1e-9):
        raise ValueError("target lies outside the domain ideal at t")
    pulled = pa.apply(g.inv(t), b)
    total = pa.algebra.zero()
    for s, a_s in data.items():
        left = data.get(g.mul(t, s))
        if left is None:
            continue
        total = total + left.star() * pa.apply(t, pulled * a_s)
    return op_norm(b - total)


def _box(group: LatticeGroup, n: int) -> List[Elem]:
    if n < 1:
        raise ValueError("box side must be at least 1")
    coords = [()]
    for _ in range(group.dim):
        coords = [c + (i,) for c in coords for i in range(n)]
    return [group.vector(c) for c in coords]


def folner_witness(bundle: TwistedBundle, n: int = 1) -> APWitness:
    """Normalized indicator witness over a Folner-style set.

    Finite groups use the whole group; lattices use the box {0..n-1}^d.
    Free groups are rejected: no Folner sets exist there, use the witness
    nets built from the boundary action instead.
    """
    g = bundle.group
    if g.is_finite:
        window = list(g.elements())
    elif isinstance(g, LatticeGroup):
        window = _box(g, n)
    else:
        raise UnsupportedGroupError(
            f"no Folner witness for {g.label}; use boundary-action witnesses"
        )
    scale = 1.0 / np.sqrt(len(window))
    one = bundle.coeff_algebra.one()
    return APWitness(bundle, {r: scale * one for r in window})


def uniform_witness(bundle: TwistedBundle) -> APWitness:
    """Whole-group normalized unit witness; finite groups only."""
    if not bundle.group.is_finite:
        raise UnsupportedGroupError("uniform witness needs a finite group")
    return folner_witness(bundle)


@dataclass(frozen=True)
class Target:
    t: Elem
    b: FdElement
    label: str


def default_targets(bundle: TwistedBundle, radius: int = 1, max_per_fiber: int = 0) -> List[Target]:
    """Basis targets of every nonzero fiber over the ball of the given radius."""
    return _basis_targets(bundle, bundle.group.ball(radius), max_per_fiber)


def _basis_targets(bundle: TwistedBundle, ts: Sequence[Elem], max_per_fiber: int = 0) -> List[Target]:
    """The basis targets of the fibers over ``ts``, the first
    ``max_per_fiber`` of each when that is positive, labelled ``t#bi``."""
    g = bundle.group
    out: List[Target] = []
    for t, fiber in zip(ts, bundle.fiber_ideals(ts)):
        basis = fiber.basis()
        if max_per_fiber > 0:
            basis = basis[:max_per_fiber]
        for i, b in enumerate(basis):
            out.append(Target(t, b, f"{g.format_elem(t)}#b{i}"))
    return out


@dataclass(frozen=True)
class ConvexCertificate:
    """Record of a successful convexification.

    The two residuals are exact-zero identities granted by translate
    disjointness; anything visibly nonzero means the translates overlap.
    """

    translates: Tuple[Elem, ...]
    gram_residual: float
    defect_residuals: Tuple[float, ...]
    bound: float


def convexify(
    witnesses: Sequence[Tuple[APWitness, float]],
    targets: Sequence[Target],
    search_radius: int = 4,
) -> Tuple[APWitness, ConvexCertificate]:
    """Mix witnesses with convex weights after moving them apart.

    The combined support set F and its translates by the target inverses
    form F'; the greedy scan walks the deterministic ball order and keeps
    the first translates r_k making the sets F' r_k pairwise disjoint.
    Two translates F' r and F' c meet exactly when c r^{-1} lies in the
    clash set F'^{-1} F', so the set is built once and each candidate c is
    tested against the chosen r_k only.
    The returned witness is s -> sum_k sqrt(lambda_k) a_k(s r_k^{-1}).

    Raises TranslateSearchError when the ball is exhausted; retry with a
    larger radius.  Finite groups are rejected: there is no room to move.
    """
    if not witnesses:
        raise ValueError("need at least one witness")
    bundle = witnesses[0][0].bundle
    g = bundle.group
    if g.is_finite:
        raise UnsupportedGroupError("convexification needs an infinite group")
    lams = [float(lam) for _, lam in witnesses]
    if any(lam < 0 for lam in lams) or sum(lams) > 1.0 + 1e-12:
        raise ValueError("weights must be nonnegative with sum at most 1")
    for a, _ in witnesses:
        if a.bundle is not bundle:
            raise ValueError("witnesses live over different bundles")

    support: set = set()
    for a, _ in witnesses:
        support.update(a.data.keys())
    fprime = set(support)
    for tgt in targets:
        tinv = g.inv(tgt.t)
        fprime.update(g.mul(tinv, s) for s in support)

    clash = {g.mul(y_inv, x) for y_inv in map(g.inv, fprime) for x in fprime}
    chosen: List[Elem] = []
    chosen_inv: List[Elem] = []
    for c in g.walk(search_radius):
        if any(g.mul(c, r_inv) in clash for r_inv in chosen_inv):
            continue
        chosen.append(c)
        chosen_inv.append(g.inv(c))
        if len(chosen) == len(witnesses):
            break
    if len(chosen) < len(witnesses):
        raise TranslateSearchError(
            f"found {len(chosen)} of {len(witnesses)} disjoint translates "
            f"within radius {search_radius}"
        )

    mixed = APWitness.zero(bundle)
    for (a, lam), r in zip(witnesses, chosen):
        mixed = mixed.merged(a.scaled(np.sqrt(lam)).translated(r))

    gram_target = bundle.coeff_algebra.zero()
    for (a, lam) in witnesses:
        gram_target = gram_target + lam * witness_gram(a)
    gram_res = op_norm(witness_gram(mixed) - gram_target)
    ts = [tgt.t for tgt in targets]
    bs = stack_elements(bundle.coeff_algebra, [tgt.b for tgt in targets])
    want = tuple(np.zeros(p.shape, dtype=complex) for p in bs)
    for (a, lam) in witnesses:
        want = tuple(p + complex(lam) * q for p, q in zip(want, _defect_sums(a, ts, bs)))
    gaps = _minus(_defect_sums(mixed, ts, bs), want)
    defect_res = batch_norms(project_batch(bundle.fiber_ideals(ts), gaps), len(ts)).tolist()
    cert = ConvexCertificate(
        translates=tuple(chosen),
        gram_residual=gram_res,
        defect_residuals=tuple(defect_res),
        bound=witness_bound(mixed),
    )
    return mixed, cert


# The cap on the bound |sum_r a(r)* a(r)| of every witness of a certified
# family: 1 up to rounding.
BOUND_CAP = 1.0 + 1e-8


@dataclass(frozen=True)
class APRow:
    index: int
    t_label: str
    target_label: str
    bound: float
    defect: float


@dataclass(frozen=True)
class APVerdict:
    rows: Tuple[APRow, ...]
    passed: bool
    tolerance: float
    bound_cap: float

    def final_defects(self) -> Dict[str, float]:
        last = max((r.index for r in self.rows), default=-1)
        return {r.target_label: r.defect for r in self.rows if r.index == last}


def ap_certify(
    bundle: TwistedBundle,
    witness_family: Sequence[APWitness],
    targets: Optional[Sequence[Target]] = None,
    tolerance: float = 1e-8,
) -> APVerdict:
    """Evaluate a witness family against targets and give a verdict.

    Emits the full defect trace, one row per (witness index, target); the
    verdict passes when every bound stays at or below ``BOUND_CAP`` and the
    last witness meets the tolerance on every target.  No extrapolation:
    only the computed values speak. The targets are read once (their fiber
    ideals, the batch of their elements and the check that each lies in its
    fiber) and serve every witness.

    A witness whose values are all central (every block exactly a scalar
    multiple of the identity, as for the uniform and box witnesses) takes
    the central route: its block scalars, read once, give c_{t,k} by index
    arithmetic, and the defects over t follow from two products per
    distinct t (``_central_defects``). Every other witness goes the route
    of ``ap_defects``, which stays the independent one; the two agree up
    to rounding.
    """
    if targets is None:
        targets = default_targets(bundle)
    read = _fiber_targets(bundle, [(tgt.t, tgt.b) for tgt in targets])
    t_labels = [bundle.group.format_elem(t) for t in read[0]]
    rows: List[APRow] = []
    bounds_ok = True
    for i, a in enumerate(witness_family):
        bound = witness_bound(a)
        bounds_ok = bounds_ok and bound <= BOUND_CAP
        xi = _block_scalars(a)
        defects = _direct_defects(a, *read) if xi is None else _central_defects(a, xi, *read)
        for tgt, t_label, defect in zip(targets, t_labels, defects):
            rows.append(
                APRow(
                    index=i,
                    t_label=t_label,
                    target_label=tgt.label,
                    bound=bound,
                    defect=defect,
                )
            )
    last = len(witness_family) - 1
    final_ok = last >= 0 and all(
        r.defect <= tolerance for r in rows if r.index == last
    )
    return APVerdict(
        rows=tuple(rows),
        passed=bool(bounds_ok and final_ok),
        tolerance=tolerance,
        bound_cap=BOUND_CAP,
    )

