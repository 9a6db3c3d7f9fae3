"""Fell bundles over discrete groups with finite-dimensional fibers.

A bundle here is a family of fibers B_t indexed by group elements, each
realized as an ideal of one coefficient block algebra, together with a
bilinear product B_s x B_t -> B_st and an involution B_t -> B_{t^-1}.
Two constructions are provided: the semidirect bundle of a partial action,
with product (a d_s)(b d_t) = gamma_s(gamma_s^-1(a) b) d_st, and its twisted
refinement, whose product picks up the unitary corner multiplier
omega(s, t) on the right:

    (a d_s)(b d_t) = gamma_s(gamma_s^-1(a) b) omega(s, t) d_st
    (a d_t)*       = omega(t^-1, t)* gamma_{t^-1}(a*) d_{t^-1}

Right placement of omega is forced: associativity of this product reduces
exactly to the cocycle law gamma_s(omega(t, u)) omega(s, tu) =
omega(s, t) omega(st, u), while left placement demands an identity the
cocycle conditions do not grant (the difference is invisible for central
twists and fatal for matrix-valued ones). Note also that the product uses
the inverse of the map gamma_s, which for a genuinely twisted family is not
the map attached to s^-1; conflating the two is the classic sign error this
module's validator is designed to catch. The code evaluates the product as
a gamma_s(b) omega(s, t), the same element (see ``TwistedBundle``).

Products and involutions are evaluated in batches (``TwistedBundle.mul_many``,
``star_many``): many terms, each with its own group elements, in one
gather and one batched product per block-size class. ``mul`` and ``star``
are the one-term views of these; the validator, the sections, the kernel
algebra and the approximation-property sums evaluate each product step on
a whole batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .algebra import (
    ActionReport,
    FdAlgebra,
    FdElement,
    Ideal,
    IdealIso,
    PartialAction,
    _Rows,
    _TERM_BUDGET,
    _adjoint,
    _adjoints,
    _chunks,
    _concat,
    _distinct,
    _minus,
    _mul,
    _one_term,
    _packed,
    _parts,
    _take,
    apply_many,
    batch_norms,
    center_basis,
    identity_action,
    op_norm,
    outside_mass,
    project_batch,
    split_batch,
    stack_elements,
    unitarity_residuals,
)
from .groups import Elem, Group

__all__ = [
    "TwistedBundle",
    "Twist",
    "Section",
    "SubBundle",
    "make_semidirect",
    "make_twisted",
    "group_bundle",
    "trivial_twist",
    "validate_twist",
    "validate_bundle",
    "fiber_norm",
    "central_partial_action",
    "restrict_to_subgroup",
    "subgroup_sub_bundle",
    "mask_sub_bundle",
    "trace_sub_bundle",
]


def fiber_norm(bundle: TwistedBundle, t: Elem, a: FdElement) -> float:
    """Norm of a d_t in the bundle; equals the coefficient operator norm."""
    return op_norm(bundle.fiber_ideal(t).project(a))


class Twist:
    """Unitary corner multipliers omega(s, t), lazily evaluated and cached.

    omega(s, t) must be a unitary of the corner ideal A_s n A_st of the
    underlying family; validate_twist checks that together with the cocycle
    laws.

    The values are kept as the rows of one batch (see
    ``fellap.algebra.stack_elements``): ``rows(pairs)`` gives the row of
    each pair's value and ``take(rows)`` the batch of those rows, which is
    how the products, the validator and other batched readers gather them.
    The pairs a call finds missing go to the twist's batch function
    together, in one call, and their values are appended to the batch.
    ``omega(s, t)`` returns one value, as a view into the rows, made on
    first read and kept, so a repeated read returns the same object. A
    twist is built from a function of one pair, ``Twist(fn)``, whose values
    are stacked once per fill, or from a function of a list of distinct
    pairs that returns their values as one batch of the algebra,
    ``Twist.batched(algebra, fn_many)``.
    """

    def __init__(self, fn: Callable[[Elem, Elem], FdElement]):
        def many(pairs: list) -> tuple[np.ndarray, ...]:
            values = [fn(s, t) for s, t in pairs]
            if self._rows.algebra is None:
                self._rows.start(values[0].algebra)
            return stack_elements(self._rows.algebra, values)

        self._many = many
        self._rows = _Rows()
        self._views: dict[tuple[Elem, Elem], FdElement] = {}

    @classmethod
    def batched(
        cls, algebra: FdAlgebra, fn_many: Callable[[list], tuple[np.ndarray, ...]]
    ) -> "Twist":
        """The twist whose values ``fn_many`` makes for a list of distinct
        pairs (s, t) at a time, as a batch of ``algebra``."""
        tw = cls(None)
        tw._many = fn_many
        tw._rows.start(algebra)
        return tw

    def omega(self, s: Elem, t: Elem) -> FdElement:
        key = (s, t)
        got = self._views.get(key)
        if got is None:
            (r,) = self._rows.rows([key], self._many)
            got = self._views[key] = self._view(r)
        return got

    def _view(self, r: int) -> FdElement:
        """The value in row r, as a view into the rows."""
        return _packed(self._rows.algebra, tuple(p[r] for p in self._rows.packs))

    def rows(self, pairs: list) -> np.ndarray:
        """The row of every pair's value, filling the missing ones in one
        batch."""
        return np.array(self._rows.rows(pairs, self._many), dtype=int)

    def take(self, rows) -> tuple[np.ndarray, ...]:
        """The batch of the values in ``rows`` (see ``rows``), a fresh copy."""
        return self._rows.take(rows)


def _corner_units(pa: PartialAction) -> Callable[[list, list], tuple[np.ndarray, ...]]:
    """The function of two lists of elements s and u that gives the batch of
    the units of the corners A_s n A_u. The corners are read from the
    ``isos`` lists of the two lists; a unit is made once per pair of iso
    objects (and shared by equal corners), and the distinct units of a call
    are stacked once."""
    alg = pa.algebra
    by_isos: dict[tuple[IdealIso, IdealIso], FdElement] = {}
    by_blocks: dict[frozenset[int], FdElement] = {}

    def units(ss: list, us: list) -> tuple[np.ndarray, ...]:
        isos = pa.isos(ss + us)
        seen: dict = {}
        slot = [seen.setdefault(key, len(seen)) for key in zip(isos[: len(ss)], isos[len(ss) :])]
        values = []
        for key in seen:
            unit = by_isos.get(key)
            if unit is None:
                blocks = key[0].target.block_set & key[1].target.block_set
                unit = by_blocks.get(blocks)
                if unit is None:
                    unit = by_blocks[blocks] = Ideal(alg, blocks).unit()
                by_isos[key] = unit
            values.append(unit)
        stacked = stack_elements(alg, values)
        return stacked if len(seen) == len(slot) else _take(stacked, slot)

    return units


def trivial_twist(pa: PartialAction) -> Twist:
    """The twist whose every value is the unit of the relevant corner
    A_s n A_st, gathered from the distinct corner units of a fill (see
    ``_corner_units``)."""
    units = _corner_units(pa)
    mul = pa.group.mul
    return Twist.batched(
        pa.algebra, lambda pairs: units([s for s, _ in pairs], [mul(s, t) for s, t in pairs])
    )


class TwistedBundle:
    """Semidirect bundle of a (possibly twisted) family of ideal isos.

    With the trivial twist this is the plain semidirect bundle of a partial
    action. The family need not satisfy the untwisted composition law on its
    own; the twist is what repairs it, and validate_twist is the check.

    Fibers are ideals of ``coeff_algebra``; a fiber element is an FdElement
    supported on that ideal, tagged externally by its group coordinate.

    The product is evaluated as (a d_s)(b d_t) = a gamma_s(b) omega(s, t),
    one conjugation instead of two. This is the module formula: gamma_s is
    a *-isomorphism of A_{s^-1} onto A_s, so for b (cut down to A_{s^-1},
    which gamma_s does anyway) gamma_s(gamma_s^-1(a) b) =
    gamma_s(gamma_s^-1(a)) gamma_s(b) = 1_s a gamma_s(b), and 1_s may be
    dropped because gamma_s(b) lies in A_s. Mass of a outside A_s is still
    killed, by the same factor gamma_s(b). Nothing here uses the
    composition law, so the identity holds for twisted families too.

    ``mul_many`` and ``star_many`` evaluate many products or involutions at
    once on batches (see ``fellap.algebra.stack_elements``); they are the
    one implementation of the product and the involution, and ``mul`` and
    ``star`` are their one-term views.
    """

    def __init__(self, family: PartialAction, twist: Twist):
        self.family = family
        self.twist = twist
        self.group = family.group
        self.coeff_algebra = family.algebra

    def fiber_ideal(self, t: Elem) -> Ideal:
        """``fiber_ideals([t])[0]``, read through the family's one-element
        lookup."""
        return self.family.iso(t).target

    def fiber_ideals(self, ts) -> list[Ideal]:
        """The fiber ideals over the elements of ``ts``, from one ``isos``
        call of the family."""
        return [iso.target for iso in self.family.isos(ts)]

    def fiber_dim(self, t: Elem) -> int:
        return self.fiber_ideal(t).dim()

    def mul(self, s: Elem, a: FdElement, t: Elem, b: FdElement) -> FdElement:
        """Coefficient of (a d_s)(b d_t), an element of the fiber at st:
        ``mul_many`` on one term."""
        got = self.mul_many([s], _one_term(a), [t], _one_term(b))
        return split_batch(self.coeff_algebra, got, 1)[0]

    def star(self, t: Elem, a: FdElement) -> FdElement:
        """Coefficient of (a d_t)*, an element of the fiber at t^-1:
        ``star_many`` on one term."""
        return split_batch(self.coeff_algebra, self.star_many([t], _one_term(a)), 1)[0]

    def mul_many(self, ss, xs, ts, ys) -> tuple[np.ndarray, ...]:
        """Batch of the products (xs_i d_{ss_i})(ys_i d_{ts_i}); ``xs`` and
        ``ys`` are batches of len(ss) terms."""
        pairs, slot = _distinct(zip(ss, ts))
        moved = apply_many(self.family.isos([s for s, _ in pairs]), ys, slot)
        omegas = self._omegas(pairs, slot)
        return tuple(x @ y @ w for x, y, w in zip(xs, moved, omegas))

    def star_many(self, ts, xs) -> tuple[np.ndarray, ...]:
        """Batch of the involutions (xs_i d_{ts_i})*."""
        elems, slot = _distinct(ts)
        inv = self.group.inv
        pairs = [(inv(t), t) for t in elems]
        moved = apply_many(
            self.family.isos([u for u, _ in pairs]), tuple(_adjoint(x) for x in xs), slot
        )
        omegas = self._omegas(pairs, slot)
        return tuple(_adjoint(w) @ y for w, y in zip(omegas, moved))

    def _omegas(self, pairs: list, slot: np.ndarray) -> tuple[np.ndarray, ...]:
        """omega(pairs[slot[i]]) for every term, as a batch gathered from
        the twist's rows, or as the class arrays of the one value when there
        is one pair (they broadcast)."""
        if len(pairs) == 1:
            return self.twist.omega(*pairs[0]).packs
        if not pairs:
            return stack_elements(self.coeff_algebra, [])
        return self.twist.take(self.twist.rows(pairs)[slot])


def make_semidirect(pa: PartialAction) -> TwistedBundle:
    """The Fell bundle of a partial action, fibers B_t = A_t d_t."""
    return TwistedBundle(pa, trivial_twist(pa))


def make_twisted(family: PartialAction, twist: Twist) -> TwistedBundle:
    return TwistedBundle(family, twist)


def group_bundle(group: Group, algebra: FdAlgebra) -> TwistedBundle:
    """Constant-fiber bundle of a group over one algebra, trivial action."""
    return make_semidirect(identity_action(group, algebra))


def restrict_to_subgroup(bundle: TwistedBundle, member: Callable[[Elem], bool]) -> TwistedBundle:
    """Bundle over the same group with fibers zeroed outside a subgroup.

    ``member`` must pick out a subgroup; products and stars of surviving
    fibers then never leave the subgroup, so the result is a Fell bundle.
    """
    family = bundle.family
    alg = family.algebra
    zero = alg.zero_ideal()
    zero_iso = IdealIso(zero, zero, {}, {})

    def isos(ts: list) -> list[IdealIso]:
        inside = [member(t) for t in ts]
        kept = iter(family.isos([t for t, i in zip(ts, inside) if i]))
        return [next(kept) if i else zero_iso for i in inside]

    return TwistedBundle(PartialAction.batched(family.group, alg, isos), bundle.twist)


class _Checks:
    """The checks of a validator, queued in report order. A check's residual
    is a number, or the largest norm among some terms of the batches queued
    with ``norms``; ``flush`` takes all queued norms in one ``batch_norms``
    call and adds the checks to the report, in order."""

    def __init__(self, rep: ActionReport, tol: float):
        self.rep, self.tol = rep, tol
        self.checks: list = []
        self.batches: list = []
        self.m = 0

    def norms(self, batch, m: int) -> int:
        """Queue the m terms of a batch; the index of the first is returned."""
        if m:
            self.batches.append(batch)
            self.m += m
        return self.m - m

    def add(self, axiom: str, context: str, value: float = 0.0, at=None) -> None:
        """A check of residual ``value``, or, when ``at`` is given, of the
        norm of queued term ``at`` (the largest one for a tuple)."""
        self.checks.append((axiom, context, value, at))

    def flush(self) -> None:
        norms = batch_norms(_concat(*self.batches), self.m).tolist()
        add, tol = self.rep.add, self.tol
        for axiom, context, value, at in self.checks:
            if at is not None:
                value = norms[at] if type(at) is int else max(norms[i] for i in at)
            add(axiom, context, value, tol)
        self.checks, self.batches, self.m = [], [], 0


def validate_twist(
    family: PartialAction,
    twist: Twist,
    window: int = 2,
    tol: float = 1e-10,
) -> ActionReport:
    """Check the twisted partial action conditions on a ball.

    Covered: identity behaviour of the family and the twist, domain
    compatibility gamma_s(A_{s^-1} n A_t) = A_s n A_st, unitarity of each
    omega(s, t) on its corner, the composition law gamma_s gamma_t =
    Ad(omega(s, t)) gamma_st, and the cocycle relation
    gamma_r(a omega(s, t)) omega(r, st) = gamma_r(a) omega(r, s) omega(rs, t).
    The two laws are checked on each basis element of their domains.

    The residuals are norms of batches, taken chunk by chunk: the twist
    units go with the first chunk of consecutive s (see ``_TERM_BUDGET``),
    whose chunks hold the twist unitarity and composition terms of every
    (s, t); the chunks of consecutive r follow, with the cocycle terms of
    every (r, s, t). A chunk builds its basis elements as batches, runs each
    iso step as one ``apply_many`` call with a slot per term and takes one
    ``batch_norms`` call. The report then gets one ``add`` per check, in the
    order of the loops over t, over (s, t) and over (r, s, t), each running
    over its basis. The unitarity rows of the family's isos, one per s, come
    from one ``unitarity_residuals`` call over the ball.
    """
    g = family.group
    alg = family.algebra
    rep = ActionReport()
    ball = g.ball(window)
    e = g.identity
    mul = g.mul

    iso_e = family.iso(e)
    full = alg.full_ideal()
    if iso_e.source.block_set != full.block_set:
        rep.add("identity-domain", "e", float("inf"), tol)
    rep.add("identity-map", "e", iso_e.map_distance(IdealIso.identity_on(full)), tol)

    def domains_of(elems: list) -> list[frozenset]:
        """The blocks of the domains A_u of the elements u, in order."""
        return [iso.target.block_set for iso in family.isos(elems)]

    label = [g.format_elem(t) for t in ball]
    isos = family.isos(ball)
    inside = [iso.target.block_set for iso in isos]  # A_t
    inv_inside = domains_of([g.inv(t) for t in ball])  # A_{t^-1}
    one = _one_term(alg.one())
    ideals: dict[frozenset, Ideal] = {}
    bases: dict[frozenset, tuple] = {}

    def ideal(blocks: frozenset) -> Ideal:
        got = ideals.get(blocks)
        if got is None:
            got = ideals[blocks] = Ideal(alg, blocks)
        return got

    def span(blocks: frozenset) -> int:
        return sum(alg.blocks[j] ** 2 for j in blocks)

    def basis(domains: list) -> tuple[np.ndarray, ...]:
        """The bases of ``domains``, one after another, as one batch."""
        for blocks in domains:
            if blocks not in bases:
                bases[blocks] = ideal(blocks).basis_batch()
        return _concat(*(bases[blocks] for blocks in domains))

    def values(keys: list, repeat=None) -> tuple[np.ndarray, ...]:
        """omega(*key) for every key, ``repeat[i]`` times for key i, as a
        batch gathered from the twist's rows."""
        distinct, slot = _distinct(keys)
        rows = twist.rows(distinct)[slot]
        return twist.take(rows if repeat is None else np.repeat(rows, repeat))

    def moved(elems: list, repeat, batch) -> tuple[np.ndarray, ...]:
        """The iso of ``elems[i]`` on the next ``repeat[i]`` terms of the batch."""
        distinct, slot = _distinct(elems)
        return apply_many(family.isos(distinct), batch, np.repeat(slot, repeat))

    checks = _Checks(rep, tol)
    ends = [key for t in ball for key in ((e, t), (t, e))]
    corners = [
        ideal(a & b)
        for a, b in zip(domains_of([s for s, _ in ends]), domains_of([mul(s, t) for s, t in ends]))
    ]
    at = checks.norms(_minus(values(ends), project_batch(corners, one)), len(ends))
    for i, text in enumerate(label):
        checks.add("twist-unit-left", text, at=at + 2 * i)
        checks.add("twist-unit-right", text, at=at + 2 * i + 1)

    # Per s, per t: (s, t, st, the corner A_s n A_st, and the domain
    # A_{t^-1} n A_{(st)^-1} of the composition law, None when the domains
    # are not compatible), with s and t as positions in the ball.
    n = len(ball)
    sts = [mul(s, t) for s in ball for t in ball]  # pair k is (ball[k // n], ball[k % n])
    corner_of = [inside[k // n] & a for k, a in enumerate(domains_of(sts))]
    compatible = [
        {isos[k // n].phi[j] for j in inv_inside[k // n] & inside[k % n]} == corner
        for k, corner in enumerate(corner_of)
    ]
    back = iter(domains_of([g.inv(st) for st, ok in zip(sts, compatible) if ok]))
    pairs = []
    for si in range(n):
        row = []
        for ti in range(n):
            k = si * n + ti
            comp = inv_inside[ti] & next(back) if compatible[k] else None
            row.append((si, ti, sts[k], corner_of[k], comp))
        pairs.append(row)

    unitarity = unitarity_residuals(isos)
    sizes = [sum(3 + span(comp or ()) for *_, comp in row) for row in pairs]
    for lo, hi in _chunks(sizes, _TERM_BUDGET):
        terms = [p for row in pairs[lo:hi] for p in row]
        m = len(terms)
        om = values([(ball[si], ball[ti]) for si, ti, *_ in terms])
        corners = [ideal(corner) for *_, corner, _ in terms]
        units = project_batch(corners, one)
        at = checks.norms(
            _concat(
                _minus(_mul(_adjoints(om), om), units),
                _minus(_mul(om, _adjoints(om)), units),
                _minus(om, project_batch(corners, om)),
            ),
            3 * m,
        )
        law = [p for p in terms if p[4]]
        ks = [span(comp) for *_, comp in law]
        x = basis([comp for *_, comp in law])
        lhs = moved(
            [ball[si] for si, *_ in law], ks, moved([ball[ti] for _, ti, *_ in law], ks, x)
        )
        w = values([(ball[si], ball[ti]) for si, ti, *_ in law], ks)
        rhs = _mul(_mul(w, moved([st for _, _, st, *_ in law], ks, x)), _adjoints(w))
        first = checks.norms(_minus(lhs, rhs), sum(ks))
        for si in range(lo, hi):
            checks.add("unitarity", label[si], unitarity[si])
            for _, ti, _, _, comp in pairs[si]:
                ctx = f"(s={label[si]}, t={label[ti]})"
                checks.add("twist-unitary", ctx, at=(at, at + m, at + 2 * m))
                at += 1
                if comp is None:
                    checks.add("domain-compat", ctx, float("inf"))
                    continue
                for _ in range(span(comp)):
                    checks.add("composition", ctx, at=first)
                    first += 1
        checks.flush()

    sizes = [
        sum(span(inv_inside[ri] & corner) for row in pairs for *_, corner, _ in row)
        for ri in range(len(ball))
    ]
    for lo, hi in _chunks(sizes, _TERM_BUDGET):
        # (r, s, t, st, rs, A_{r^-1} n A_s n A_st) where that domain is not
        # empty, with r, s and t as positions in the ball
        law = []
        for ri in range(lo, hi):
            r = ball[ri]
            for si, row in enumerate(pairs):
                rs = mul(r, ball[si])
                for _, ti, st, corner, _ in row:
                    dom = inv_inside[ri] & corner
                    if dom:
                        law.append((ri, si, ti, st, rs, dom))
        ks = [span(dom) for *_, dom in law]
        x = basis([dom for *_, dom in law])
        rr = [ball[ri] for ri, *_ in law]
        w_st = values([(ball[si], ball[ti]) for _, si, ti, *_ in law], ks)
        w_r_st = values([(ball[ri], st) for ri, _, _, st, *_ in law], ks)
        w_rs = values([(ball[ri], ball[si]) for ri, si, *_ in law], ks)
        w_rs_t = values([(rs, ball[ti]) for _, _, ti, _, rs, _ in law], ks)
        lhs = _mul(moved(rr, ks, _mul(x, w_st)), w_r_st)
        rhs = _mul(_mul(moved(rr, ks, x), w_rs), w_rs_t)
        first = checks.norms(_minus(lhs, rhs), sum(ks))
        for (ri, si, ti, *_), k in zip(law, ks):
            ctx = f"(r={label[ri]}, s={label[si]}, t={label[ti]})"
            for _ in range(k):
                checks.add("cocycle", ctx, at=first)
                first += 1
        checks.flush()
    return rep


def _lowest_eigenvalues(batch, m: int) -> list[float]:
    """Smallest eigenvalue over all blocks of each term (0.0 for the zero
    algebra), read from the lower triangles as ``eigvalsh`` does."""
    if not batch:
        return [0.0] * m
    out = np.full(m, np.inf)
    for p in batch:
        np.minimum(out, np.linalg.eigvalsh(p).min(axis=(1, 2)), out=out)
    return out.tolist()


def validate_bundle(
    bundle: TwistedBundle,
    window: int = 2,
    samples: int = 2,
    seed: int = 0,
    tol: float = 1e-10,
) -> ActionReport:
    """Sampled check of the Fell bundle axioms on a ball.

    Random fiber elements exercise: products landing in the correct fiber,
    associativity, the anti-multiplicative involution, submultiplicativity
    of the norm, the C* identity on each fiber, and positivity of a* a in
    the unit fiber. Structural failures score inf; numerical ones report
    their residual.

    The checks run in passes, one per s in the ball and a last one for the
    involution and the C* identity; the samples are those of the loops over
    s, t and samples, drawn in that order. Consecutive passes over s run
    together, in chunks of at most ``_TERM_BUDGET`` (s, t, sample) terms,
    which hold the whole ball on the balls of the benchmark and of the
    acceptance criteria. A chunk draws its samples in one call, evaluates
    each product step for all of its terms with one ``mul_many`` or
    ``star_many`` call and takes its norms in one ``batch_norms`` call; the
    report then gets its rows in loop order.
    """
    g = bundle.group
    rng = np.random.default_rng(seed)
    rep = ActionReport()
    ball = g.ball(window)
    alg = bundle.coeff_algebra
    inf = float("inf")
    n = len(ball) * samples
    if not n:
        return rep

    def draw(ideals: list) -> tuple[np.ndarray, ...]:
        """One sample from each of ``ideals``, drawn in order."""
        return project_batch(ideals, alg.gaussian_many(rng, len(ideals)))

    def per_term(values: list) -> list:
        """A list over the ball, each entry repeated once per sample."""
        return [v for v in values for _ in range(samples)]

    # One object per product element: the twist and iso caches keep their
    # key objects, so equal products made apart would each stay alive.
    seen: dict[Elem, Elem] = {}

    def canonical(t: Elem) -> Elem:
        return seen.setdefault(t, t)

    label = [g.format_elem(t) for t in ball]
    fibers = bundle.fiber_ideals(ball)
    inverses = [g.inv(t) for t in ball]
    ts, tinvs = per_term(ball), per_term(inverses)
    # A pass over s draws, per t, `samples` pairs (a, b) and then `samples`
    # triples (a, b, c); term j = (position of t) * samples + sample.
    first = 5 * samples * np.repeat(np.arange(len(ball)), samples)
    k = np.tile(np.arange(samples), len(ball))
    pair, triple = first + 2 * k, first + 2 * samples + 3 * k

    for lo, hi in _chunks([n] * len(ball), _TERM_BUDGET):
        ss = [ball[si] for si in range(lo, hi) for _ in range(n)]
        rows = [[canonical(g.mul(ball[si], t)) for t in ball] for si in range(lo, hi)]
        sts = [st for row in rows for st in per_term(row)]
        tsts = per_term([canonical(g.mul(t, st)) for row in rows for t, st in zip(ball, row)])
        m = len(ss)
        flat = bundle.fiber_ideals([st for row in rows for st in row])
        row_fibers = [flat[i : i + len(ball)] for i in range(0, len(flat), len(ball))]
        x = draw(
            [
                f
                for si, row in zip(range(lo, hi), row_fibers)
                for ft, fst in zip(fibers, row)
                for f in [fibers[si], ft] * samples + [fibers[si], ft, fst] * samples
            ]
        )
        start = 5 * n * np.arange(hi - lo)[:, None]
        at2, at3 = (start + pair).ravel(), (start + triple).ravel()
        a, b = _take(x, at2), _take(x, at2 + 1)
        a3, b3, c3 = _take(x, at3), _take(x, at3 + 1), _take(x, at3 + 2)
        tm, tinvm = ts * (hi - lo), tinvs * (hi - lo)
        ab, ab3, bc3 = _parts(
            bundle.mul_many(ss + ss + tm, _concat(a, a3, b3), tm + tm + sts, _concat(b, b3, c3)),
            3,
            m,
        )
        ab_star, b_star, a_star = _parts(bundle.star_many(sts + tm + ss, _concat(ab, b, a)), 3, m)
        anti, left, right = _parts(
            bundle.mul_many(
                tinvm + sts + ss,
                _concat(b_star, ab3, a3),
                [inverses[si] for si in range(lo, hi) for _ in range(n)] + sts + tsts,
                _concat(a_star, c3, bc3),
            ),
            3,
            m,
        )
        norms = batch_norms(_concat(ab, a, b, _minus(ab_star, anti), _minus(left, right)), 5 * m)
        n_ab, n_a, n_b, n_anti, n_assoc = (norms[i * m : (i + 1) * m].tolist() for i in range(5))
        supported = (
            outside_mass([f for row in row_fibers for f in per_term(row)], ab) <= tol
        ).tolist()
        j = 0
        for si in range(lo, hi):
            for ti in range(len(ball)):
                ctx = f"(s={label[si]}, t={label[ti]})"
                terms = range(j, j + samples)
                for i in terms:
                    if not supported[i]:
                        rep.add("fiber-support", ctx, inf, tol)
                    rep.add("submultiplicative", ctx, max(0.0, n_ab[i] - n_a[i] * n_b[i]), tol)
                    rep.add("involution-antihom", ctx, n_anti[i], tol)
                for i in terms:
                    rep.add("associativity", ctx, n_assoc[i], tol)
                j += samples

    a = draw([fibers[i] for i in range(len(ball)) for _ in range(samples)])
    a_star = bundle.star_many(ts, a)
    back = bundle.star_many(tinvs, a_star)
    aa = bundle.mul_many(tinvs, a_star, ts, a)
    norms = batch_norms(_concat(_minus(back, a), aa, a), 3 * n)
    n_inv, n_aa, n_a = (norms[i * n : (i + 1) * n].tolist() for i in range(3))
    in_unit = (outside_mass(bundle.fiber_ideals([g.identity]) * n, aa) <= tol).tolist()
    lowest = _lowest_eigenvalues(aa, n)
    for i, text in enumerate(label):
        for j in range(i * samples, (i + 1) * samples):
            rep.add("involutive", text, n_inv[j], tol)
            rep.add(
                "cstar-identity", text, abs(n_aa[j] - n_a[j] ** 2), max(tol, tol * n_a[j] ** 2)
            )
            if not in_unit[j]:
                rep.add("positivity-support", text, inf, tol)
            rep.add("positivity", text, max(0.0, -lowest[j]), tol)
    return rep


class Section:
    """Finitely supported section of a bundle: one coefficient per element.

    ``data`` maps each element of the support to its coefficient. Entries
    are expected to lie in their fibers; nothing is projected silently.
    """

    __slots__ = ("bundle", "data")

    def __init__(self, bundle: TwistedBundle, data: Mapping[Elem, FdElement]):
        self.bundle = bundle
        self.data = dict(data)

    def right_mul(self, b: FdElement) -> "Section":
        """Right action of a unit-fiber element: (f b)(t) = f(t) b, every
        product in one ``mul_many`` call."""
        bundle = self.bundle
        alg = bundle.coeff_algebra
        ts = list(self.data)
        m = len(ts)
        prods = bundle.mul_many(
            ts,
            stack_elements(alg, list(self.data.values())),
            [bundle.group.identity] * m,
            stack_elements(alg, [b] * m),
        )
        return Section(bundle, dict(zip(ts, split_batch(alg, prods, m))))

    def inner(self, other: "Section") -> FdElement:
        """Unit-fiber valued inner product, the sum of f(t)* g(t) in the
        bundle, with its involutions and products in one ``star_many`` and
        one ``mul_many`` call."""
        bundle = self.bundle
        alg = bundle.coeff_algebra
        ts = [t for t in self.data if t in other.data]
        stars = bundle.star_many(ts, stack_elements(alg, [self.data[t] for t in ts]))
        terms = bundle.mul_many(
            [bundle.group.inv(t) for t in ts],
            stars,
            ts,
            stack_elements(alg, [other.data[t] for t in ts]),
        )
        return _packed(alg, tuple(p.sum(axis=0) for p in terms))


@dataclass
class SubBundle:
    """A sub-Fell-bundle given by a fiberwise conditional expectation.

    ``member`` says which fibers survive.  ``project`` maps a batch of
    fiber elements (see ``fellap.algebra.stack_elements``) to the batch of
    their projections; it must be idempotent, contractive, and a bimodule
    map over the surviving fibers, and the standard examples below all
    qualify.  ``expect_many`` applies it together with the membership
    mask.
    """

    bundle: TwistedBundle
    member: Callable[[Elem], bool]
    project: Callable[[tuple[np.ndarray, ...]], tuple[np.ndarray, ...]]

    def expect_many(self, ts, batch) -> tuple[np.ndarray, ...]:
        """The expectations of the terms of ``batch``, term i over ts[i]:
        its projection where ``member`` holds, zero elsewhere."""
        out = self.project(batch)
        keep = np.array([bool(self.member(t)) for t in ts], dtype=bool)
        if keep.all():
            return tuple(out)
        return tuple(np.where(keep[:, None, None, None], p, 0) for p in out)


def subgroup_sub_bundle(bundle: TwistedBundle, member: Callable[[Elem], bool]) -> SubBundle:
    """Fibers over a subgroup survive whole; everything else dies."""
    return SubBundle(bundle, member, lambda batch: batch)


def mask_sub_bundle(bundle: TwistedBundle, masks: list[np.ndarray]) -> SubBundle:
    """Entrywise mask expectation, e.g. onto block-diagonal subalgebras.

    ``masks`` holds one 0/1 matrix per coefficient block; the mask pattern
    must be closed under multiplication and contain the diagonal for the
    compression to be a conditional expectation.
    """
    per_class = [np.array([masks[j] for j in mem]) for mem in bundle.coeff_algebra.members]

    def project(batch: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
        return tuple(p * m for p, m in zip(batch, per_class))

    return SubBundle(bundle, lambda t: True, project)


def trace_sub_bundle(bundle: TwistedBundle, member: Callable[[Elem], bool]) -> SubBundle:
    """Normalized-trace expectation onto scalars in each surviving fiber."""

    def project(batch: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
        out = []
        for p in batch:
            d = p.shape[-1]
            tr = np.trace(p, axis1=-2, axis2=-1) / d
            out.append(tr[..., None, None] * np.eye(d, dtype=complex))
        return tuple(out)

    return SubBundle(bundle, member, project)


# ---------------------------------------------------------------------------
# Actions recovered from a bundle.
# ---------------------------------------------------------------------------


def _generated_ideal_blocks(bundle: TwistedBundle, t: Elem) -> frozenset[int]:
    """Blocks of the ideal spanned by B_t B_t* inside the unit fiber: the
    blocks where some m m* is not zero, over the basis m of B_t, from one
    ``star_many`` and one ``mul_many`` call."""
    fiber = bundle.fiber_ideal(t)
    basis = fiber.basis_batch()
    n = fiber.dim()
    prods = bundle.mul_many(
        [t] * n, basis, [bundle.group.inv(t)] * n, bundle.star_many([t] * n, basis)
    )
    members = bundle.coeff_algebra.members
    return frozenset(
        j
        for c, p in enumerate(prods)
        for j, hit in zip(members[c], (np.abs(p) > 1e-12).any(axis=(0, 2, 3)))
        if hit
    )


def central_partial_action(bundle: TwistedBundle, tol: float = 1e-9) -> PartialAction:
    """Partial action on the center of the unit fiber induced by the bundle.

    The ideal I_t is generated by B_t B_t*; the map sends a central z of
    I_{t^-1} to the unique central element z' of I_t with m z = z' m for all
    m in B_t. On block algebras both centers are spanned by block units and
    the map is a block permutation, recovered here by least squares with a
    residual gate.
    """
    g = bundle.group
    alg = bundle.coeff_algebra
    z_alg = FdAlgebra([1] * alg.nblocks)
    e = g.identity
    generated: dict[Elem, list[int]] = {}

    def ideal_blocks(t: Elem) -> list[int]:
        """The sorted blocks of I_t, each found once per action, since
        ``solve`` asks for them at t and at t^-1."""
        got = generated.get(t)
        if got is None:
            got = generated[t] = sorted(_generated_ideal_blocks(bundle, t))
        return got

    def solve(t: Elem) -> IdealIso:
        if t == e:
            return IdealIso.identity_on(z_alg.full_ideal())
        src = ideal_blocks(g.inv(t))
        tgt = ideal_blocks(t)
        # Row i holds the entries of the products m p_j (for i < len(src))
        # or p_k m (after) of block (src + tgt)[i], over the basis m of B_t,
        # all from one mul_many call.
        fiber = bundle.fiber_ideal(t)
        n, k = fiber.dim(), len(src) + len(tgt)
        left, right = slice(len(src) * n), slice(len(src) * n, None)
        ms = _take(fiber.basis_batch(), np.tile(np.arange(n), k))
        blocks = np.repeat(np.array(src + tgt, dtype=int), n)
        ps = _take(stack_elements(alg, center_basis(alg)), blocks)
        prods = bundle.mul_many(
            [t] * len(src) * n + [e] * len(tgt) * n,
            _concat(_take(ms, left), _take(ps, right)),
            [e] * len(src) * n + [t] * len(tgt) * n,
            _concat(_take(ps, left), _take(ms, right)),
        )
        rows = np.concatenate(
            [np.zeros((k, 0), dtype=complex)] + [p.reshape(k, -1) for p in prods if k], axis=1
        )
        mat = rows[len(src) :].T
        phi: dict[int, int] = {}
        for j, rhs in zip(src, rows):
            c, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
            resid = float(np.linalg.norm(mat @ c - rhs))
            if resid > tol:
                raise ArithmeticError(
                    f"no central intertwiner at {g.format_elem(t)} block {j}: "
                    f"residual {resid:.3e}"
                )
            hits = [k for k, ck in zip(tgt, c) if abs(ck) > 0.5]
            if len(hits) != 1 or abs(c[tgt.index(hits[0])] - 1.0) > 1e-6:
                raise ArithmeticError(
                    f"central action at {g.format_elem(t)} is not a block permutation"
                )
            phi[j] = hits[0]
        unis = {j: np.ones((1, 1), dtype=complex) for j in phi}
        return IdealIso(
            Ideal(z_alg, phi.keys()), Ideal(z_alg, phi.values()), phi, unis
        )

    return PartialAction(g, z_alg, solve)
