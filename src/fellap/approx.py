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

A witness whose values are central in the unit fiber is certified from
one sum per group element instead of one per target: the defect sum at
(t, b) is alpha_e(b) S_t, with S_t the sum at the unit of the fiber over t
(``ap_certify``, ``ad_function``).

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
    _take,
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


def _defect_sums(a: APWitness, targets: Sequence[Tuple[Elem, FdElement]]) -> Tuple[np.ndarray, ...]:
    """Batch of sum_r a(tr)* b a(r), one term per target (t, b).

    The summands of all targets are evaluated together, in two
    ``mul_many`` calls, and added per target in the order of ``a.data``.
    """
    bundle = a.bundle
    g = bundle.group
    e = g.identity
    alg = bundle.coeff_algebra
    at = {r: i for i, r in enumerate(a.data)}
    owner, ts, left, right = [], [], [], []
    for i, (t, _) in enumerate(targets):
        for r, k in at.items():
            j = at.get(g.mul(t, r))
            if j is not None:
                owner.append(i)
                ts.append(t)
                left.append(j)
                right.append(k)
    values = stack_elements(alg, list(a.data.values()))
    bs = stack_elements(alg, [b for _, b in targets])
    es = [e] * len(ts)
    mid = bundle.mul_many(es, _adjoints(_take(values, left)), ts, _take(bs, owner))
    terms = bundle.mul_many(ts, mid, es, _take(values, right))
    # The terms of a target are consecutive. With the targets ordered by
    # their number of terms, most first, the targets that have a k-th term
    # are a prefix, and adding the k-th terms of that prefix at once,
    # k = 0, 1, ..., makes every target's additions in the order
    # np.add.at(total, owner, term) makes them: the sums are the same to the
    # bit, from slices instead of a scatter.
    counts = np.bincount(np.asarray(owner, dtype=int), minlength=len(targets))
    order = np.argsort(-counts, kind="stable")
    ranks = np.arange(counts.max(initial=0))[:, None]
    held = counts[order] > ranks
    pick = ((np.cumsum(counts) - counts)[order] + ranks)[held]
    widths = held.sum(axis=1).tolist()
    sums = []
    for b, p in zip(bs, terms):
        ranked = p[pick]
        total = np.zeros(b.shape, dtype=complex)
        lo = 0
        for w in widths:
            total[:w] += ranked[lo : lo + w]
            lo += w
        out = np.empty_like(total)
        out[order] = total
        sums.append(out)
    return tuple(sums)


def _fiber_targets(
    bundle: TwistedBundle, targets: Sequence[Tuple[Elem, FdElement]]
) -> Tuple[List[Ideal], Tuple[np.ndarray, ...]]:
    """The fiber ideals of targets (t, b) and the batch of their b's;
    ValueError when some b lies outside the fiber over its t."""
    ideals = bundle.fiber_ideals([t for t, _ in targets])
    bs = stack_elements(bundle.coeff_algebra, [b for _, b in targets])
    if not (outside_mass(ideals, bs) <= 1e-9).all():
        raise ValueError("target lies outside the fiber over t")
    return ideals, bs


def ap_defects(a: APWitness, targets: Sequence[Tuple[Elem, FdElement]]) -> List[float]:
    """Defects | b - sum_r a(tr)* b a(r) | of the witness at targets (t, b)."""
    ideals, bs = _fiber_targets(a.bundle, targets)
    sums = _defect_sums(a, targets)
    gaps = project_batch(ideals, tuple(p - q for p, q in zip(bs, sums)))
    return batch_norms(gaps, len(targets)).tolist()


def _is_central(a: APWitness) -> bool:
    """Whether every block of every value of the witness is exactly a
    finite scalar multiple of the identity: off-diagonal entries exactly 0
    and the diagonal constant, with no tolerance."""
    for p in stack_elements(a.bundle.coeff_algebra, list(a.data.values())):
        d = p.shape[-1]
        diag = np.diagonal(p, axis1=-2, axis2=-1)
        scalar = np.isfinite(diag) & (diag == diag[..., :1])
        if p[..., ~np.eye(d, dtype=bool)].any() or not scalar.all():
            return False
    return True


def _unit_target_sums(a: APWitness, ts: Sequence[Elem]) -> Tuple[np.ndarray, ...]:
    """Batch of the sums S_t = sum_r a(tr)* u_t a(r), u_t the unit of the
    fiber ideal over t, one term per element of ``ts``."""
    units = [ideal.unit() for ideal in a.bundle.fiber_ideals(ts)]
    return _defect_sums(a, list(zip(ts, units)))


def _central_defects(a: APWitness, targets: Sequence[Tuple[Elem, FdElement]]) -> List[float]:
    """``ap_defects`` of a witness with central values, read off one sum
    S_t per distinct t of the targets (see ``_unit_target_sums``).

    By the module product (x d_s)(y d_t) = x alpha_s(y) omega(s, t), the
    summand of r at a target (t, b) is

        a(tr)* alpha_e(b) omega(e, t) alpha_t(a(r)) omega(t, e).

    Since b = b u_t and alpha_e is multiplicative, alpha_e(b) =
    alpha_e(b) alpha_e(u_t), and the central a(tr)* commutes with
    alpha_e(b). So the summand is alpha_e(b) times the summand at the
    target (t, u_t), and the sum is alpha_e(b) S_t. The defect is
    | proj_t(b - alpha_e(b) S_t) |. Neither alpha_e = id nor a normalized
    twist is used; the two routes agree up to rounding.
    """
    bundle = a.bundle
    ideals, bs = _fiber_targets(bundle, targets)
    elems, slot = _distinct([t for t, _ in targets])
    sums = _unit_target_sums(a, elems)
    e = bundle.group.identity
    moved = apply_many([bundle.family.iso(e)], bs, np.zeros(len(targets), dtype=int))
    gaps = tuple(b - x @ s[slot] for b, x, s in zip(bs, moved, sums))
    return batch_norms(project_batch(ideals, gaps), len(targets)).tolist()


def ad_function(a: APWitness, t: Elem) -> np.ndarray:
    """The block scalars c_{t,j} of S_t = sum_r a(tr)* u_t a(r), u_t the
    unit of the fiber over t, for a witness with central values: the
    normalized trace of S_t on each block j, 0 outside the fiber D_t.

    t -> S_t is the positive-type function of the witness on the group.
    Where alpha_e is the identity and S_t is a scalar on block j, as for
    every bundle ``fellap.testing`` builds, the defect at a basis target
    in block j over t is |1 - c_{t,j}|; for the side-N box witness on Z
    this is c_t = 1 - |t|/N. ValueError for a witness whose values are
    not central.
    """
    if not _is_central(a):
        raise ValueError("the witness values are not central")
    alg = a.bundle.coeff_algebra
    out = np.zeros(alg.nblocks, dtype=complex)
    for d, members, p in zip(alg.sizes, alg.members, _unit_target_sums(a, [t])):
        out[list(members)] = np.trace(p[0], axis1=-2, axis2=-1) / d
    return out


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
    out: List[Target] = []
    g = bundle.group
    ball = g.ball(radius)
    for t, fiber in zip(ball, bundle.fiber_ideals(ball)):
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
    pairs = [(tgt.t, tgt.b) for tgt in targets]
    want = stack_elements(bundle.coeff_algebra, [bundle.coeff_algebra.zero()] * len(pairs))
    for (a, lam) in witnesses:
        want = tuple(p + complex(lam) * q for p, q in zip(want, _defect_sums(a, pairs)))
    gaps = tuple(p - q for p, q in zip(_defect_sums(mixed, pairs), want))
    ideals = bundle.fiber_ideals([t for t, _ in pairs])
    defect_res = batch_norms(project_batch(ideals, gaps), len(pairs)).tolist()
    cert = ConvexCertificate(
        translates=tuple(chosen),
        gram_residual=gram_res,
        defect_residuals=tuple(defect_res),
        bound=witness_bound(mixed),
    )
    return mixed, cert


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
    bound_cap: float = 1.0 + 1e-8,
) -> APVerdict:
    """Evaluate a witness family against targets and give a verdict.

    Emits the full defect trace, one row per (witness index, target); the
    verdict passes when every bound stays at or below the cap and the last
    witness meets the tolerance on every target.  No extrapolation: only
    the computed values speak.

    A witness whose values are all central (every block exactly a scalar
    multiple of the identity, as for the uniform and box witnesses) takes
    the central route: one sum S_t = sum_r a(tr)* u_t a(r) per distinct t,
    u_t the unit of the fiber over t, and the defect of a target (t, b)
    read as | proj_t(b - alpha_e(b) S_t) | (derived in
    ``_central_defects``). That costs |support| products per t instead of
    |support| per target. Every other witness goes through ``ap_defects``,
    which stays the independent route; the two agree up to rounding.
    """
    if targets is None:
        targets = default_targets(bundle)
    g = bundle.group
    rows: List[APRow] = []
    bounds_ok = True
    pairs = [(tgt.t, tgt.b) for tgt in targets]
    for i, a in enumerate(witness_family):
        bound = witness_bound(a)
        bounds_ok = bounds_ok and bound <= bound_cap
        defects = _central_defects(a, pairs) if _is_central(a) else ap_defects(a, pairs)
        for tgt, defect in zip(targets, defects):
            rows.append(
                APRow(
                    index=i,
                    t_label=g.format_elem(tgt.t),
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
        bound_cap=bound_cap,
    )

