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

Products and involutions also come batched (``TwistedBundle.mul_many``,
``star_many``): many terms, each with its own group elements, in one
gather and one batched product per block-size class. The validator, the
kernel algebra and the approximation-property sums evaluate each product
step that way.
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
    apply_many,
    batch_norms,
    identity_action,
    op_norm,
    outside_mass,
    project_batch,
    split_batch,
    stack_elements,
)
from .groups import Elem, Group

__all__ = [
    "TwistedBundle",
    "Twist",
    "Section",
    "SubBundle",
    "SpectralAction",
    "make_semidirect",
    "make_twisted",
    "group_bundle",
    "trivial_twist",
    "validate_twist",
    "validate_bundle",
    "fiber_norm",
    "canonical_expectation",
    "central_partial_action",
    "spectral_partial_action",
    "restrict_to_subgroup",
    "full_sub_bundle",
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
    """

    def __init__(self, fn: Callable[[Elem, Elem], FdElement]):
        self._fn = fn
        self._cache: dict[tuple[Elem, Elem], FdElement] = {}

    def omega(self, s: Elem, t: Elem) -> FdElement:
        key = (s, t)
        got = self._cache.get(key)
        if got is None:
            got = self._fn(s, t)
            self._cache[key] = got
        return got


def trivial_twist(pa: PartialAction) -> Twist:
    """The twist whose every value is the unit of the relevant corner.

    Corners with the same blocks share one unit element."""
    units: dict[frozenset[int], FdElement] = {}

    def fn(s: Elem, t: Elem) -> FdElement:
        blocks = pa.domain(s).block_set & pa.domain(pa.group.mul(s, t)).block_set
        unit = units.get(blocks)
        if unit is None:
            unit = units[blocks] = Ideal(pa.algebra, blocks).unit()
        return unit

    return Twist(fn)


def _distinct(keys) -> tuple[list, np.ndarray]:
    """The distinct keys in order of first appearance, and the position of
    each key among them."""
    seen: dict = {}
    slot = [seen.setdefault(k, len(seen)) for k in keys]
    return list(seen), np.array(slot, dtype=int)


def _adjoint(p: np.ndarray) -> np.ndarray:
    return p.conj().swapaxes(-1, -2)


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
    once on batches (see ``fellap.algebra.stack_elements``). A subclass
    that overrides ``mul`` or ``star`` gets its own method applied term by
    term there, so a deliberately broken product stays broken in batches.
    """

    def __init__(self, family: PartialAction, twist: Twist):
        self.family = family
        self.twist = twist
        self.group = family.group
        self.coeff_algebra = family.algebra

    def fiber_ideal(self, t: Elem) -> Ideal:
        return self.family.domain(t)

    def fiber_dim(self, t: Elem) -> int:
        return self.fiber_ideal(t).dim()

    def mul(self, s: Elem, a: FdElement, t: Elem, b: FdElement) -> FdElement:
        """Coefficient of (a d_s)(b d_t), an element of the fiber at st."""
        return a * self.family.iso(s).apply(b) * self.twist.omega(s, t)

    def star(self, t: Elem, a: FdElement) -> FdElement:
        """Coefficient of (a d_t)*, an element of the fiber at t^-1."""
        g = self.group
        tinv = g.inv(t)
        return self.twist.omega(tinv, t).star() * self.family.iso(tinv).apply(a.star())

    def mul_many(self, ss, xs, ts, ys) -> tuple[np.ndarray, ...]:
        """Batch of the products (xs_i d_{ss_i})(ys_i d_{ts_i}); ``xs`` and
        ``ys`` are batches of len(ss) terms."""
        if type(self).mul is not TwistedBundle.mul:
            return self._per_term(self.mul, ss, xs, ts, ys)
        pairs, slot = _distinct(zip(ss, ts))
        moved = apply_many([self.family.iso(s) for s, _ in pairs], ys, slot)
        omegas = self._omegas(pairs, slot)
        return tuple(x @ y @ w for x, y, w in zip(xs, moved, omegas))

    def star_many(self, ts, xs) -> tuple[np.ndarray, ...]:
        """Batch of the involutions (xs_i d_{ts_i})*."""
        if type(self).star is not TwistedBundle.star:
            return self._per_term(self.star, ts, xs)
        elems, slot = _distinct(ts)
        inv = self.group.inv
        pairs = [(inv(t), t) for t in elems]
        moved = apply_many(
            [self.family.iso(u) for u, _ in pairs], tuple(_adjoint(x) for x in xs), slot
        )
        omegas = self._omegas(pairs, slot)
        return tuple(_adjoint(w) @ y for w, y in zip(omegas, moved))

    def _omegas(self, pairs: list, slot: np.ndarray) -> tuple[np.ndarray, ...]:
        """omega(pairs[slot[i]]) for every term, as a batch, or as the class
        arrays of the one value when there is one pair (they broadcast)."""
        omega = self.twist.omega
        if len(pairs) == 1:
            return omega(*pairs[0]).packs
        stacked = stack_elements(self.coeff_algebra, [omega(s, t) for s, t in pairs])
        return tuple(p[slot] for p in stacked)

    def _per_term(self, fn, *args) -> tuple[np.ndarray, ...]:
        """``fn`` term by term; its arguments alternate between a list of
        group elements and a batch of elements, as in ``mul`` and ``star``."""
        alg = self.coeff_algebra
        m = len(args[0])
        cols = [a if k % 2 == 0 else split_batch(alg, a, m) for k, a in enumerate(args)]
        return stack_elements(alg, [fn(*row) for row in zip(*cols)])


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

    def fn(t: Elem) -> IdealIso:
        return family.iso(t) if member(t) else zero_iso

    return TwistedBundle(PartialAction(family.group, alg, fn), bundle.twist)


# The validators evaluate their passes (validate_bundle: one per s in the
# ball; validate_twist: one per s, then one per r of the cocycle loop) in
# chunks of consecutive passes holding at most this many terms, a pass larger
# than that being a chunk alone. A term is one (s, t, sample) of
# validate_bundle, five fiber elements and three products per product step,
# or one basis element of validate_twist. The balls of the benchmark and of
# the acceptance criteria fit one chunk (F2's ball of radius 2 at one sample
# has 289 terms); on larger balls the budget bounds the batches, and memory
# with them.
_TERM_BUDGET = 512


def _chunks(sizes: list[int]):
    """Consecutive ranges (lo, hi) of passes, ``sizes`` giving the terms of
    each, whose totals stay within ``_TERM_BUDGET``."""
    lo = total = 0
    for i, k in enumerate(sizes):
        if total and total + k > _TERM_BUDGET:
            yield lo, i
            lo, total = i, 0
        total += k
    if lo < len(sizes):
        yield lo, len(sizes)


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
    over its basis.
    """
    g = family.group
    alg = family.algebra
    rep = ActionReport()
    ball = g.ball(window)
    e = g.identity
    iso, domain, omega, mul = family.iso, family.domain, twist.omega, g.mul

    iso_e = iso(e)
    full = alg.full_ideal()
    if iso_e.source.block_set != full.block_set:
        rep.add("identity-domain", "e", float("inf"), tol)
    rep.add("identity-map", "e", iso_e.map_distance(IdealIso.identity_on(full)), tol)

    label = [g.format_elem(t) for t in ball]
    inside = [domain(t).block_set for t in ball]  # A_t
    inv_inside = [domain(g.inv(t)).block_set for t in ball]  # A_{t^-1}
    one = tuple(p[None] for p in alg.one().packs)  # a batch of one term
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

    def values(fn, keys: list, repeat=None) -> tuple[np.ndarray, ...]:
        """fn(*key) for every key, ``repeat[i]`` times for key i, as a batch."""
        distinct, slot = _distinct(keys)
        if repeat is not None:
            slot = np.repeat(slot, repeat)
        return _take(stack_elements(alg, [fn(*k) for k in distinct]), slot)

    def moved(elems: list, repeat, batch) -> tuple[np.ndarray, ...]:
        """The iso of ``elems[i]`` on the next ``repeat[i]`` terms of the batch."""
        distinct, slot = _distinct(elems)
        return apply_many([iso(u) for u in distinct], batch, np.repeat(slot, repeat))

    checks = _Checks(rep, tol)
    ends = [key for t in ball for key in ((e, t), (t, e))]
    corners = [ideal(domain(s).block_set & domain(mul(s, t)).block_set) for s, t in ends]
    at = checks.norms(_minus(values(omega, ends), project_batch(corners, one)), len(ends))
    for i, text in enumerate(label):
        checks.add("twist-unit-left", text, at=at + 2 * i)
        checks.add("twist-unit-right", text, at=at + 2 * i + 1)

    # Per s, per t: (s, t, st, the corner A_s n A_st, and the domain
    # A_{t^-1} n A_{(st)^-1} of the composition law, None when the domains
    # are not compatible), with s and t as positions in the ball.
    pairs = []
    for si, s in enumerate(ball):
        phi = iso(s).phi
        row = []
        for ti, t in enumerate(ball):
            st = mul(s, t)
            corner = inside[si] & domain(st).block_set
            comp = None
            if {phi[j] for j in inv_inside[si] & inside[ti]} == corner:
                comp = inv_inside[ti] & domain(g.inv(st)).block_set
            row.append((si, ti, st, corner, comp))
        pairs.append(row)

    sizes = [sum(3 + span(comp or ()) for *_, comp in row) for row in pairs]
    for lo, hi in _chunks(sizes):
        terms = [p for row in pairs[lo:hi] for p in row]
        m = len(terms)
        om = values(omega, [(ball[si], ball[ti]) for si, ti, *_ in terms])
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
        w = values(omega, [(ball[si], ball[ti]) for si, ti, *_ in law], ks)
        rhs = _mul(_mul(w, moved([st for _, _, st, *_ in law], ks, x)), _adjoints(w))
        first = checks.norms(_minus(lhs, rhs), sum(ks))
        for si in range(lo, hi):
            checks.add("unitarity", label[si], iso(ball[si]).unitarity_residual())
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
    for lo, hi in _chunks(sizes):
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
        w_st = values(omega, [(ball[si], ball[ti]) for _, si, ti, *_ in law], ks)
        w_r_st = values(omega, [(ball[ri], st) for ri, _, _, st, *_ in law], ks)
        w_rs = values(omega, [(ball[ri], ball[si]) for ri, si, *_ in law], ks)
        w_rs_t = values(omega, [(rs, ball[ti]) for _, _, ti, _, rs, _ in law], ks)
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


def _take(batch, idx) -> tuple[np.ndarray, ...]:
    return tuple(p[idx] for p in batch)


def _concat(*batches) -> tuple[np.ndarray, ...]:
    return tuple(np.concatenate(packs) for packs in zip(*batches))


def _minus(x, y) -> tuple[np.ndarray, ...]:
    return tuple(p - q for p, q in zip(x, y))


def _mul(x, y) -> tuple[np.ndarray, ...]:
    return tuple(p @ q for p, q in zip(x, y))


def _adjoints(x) -> tuple[np.ndarray, ...]:
    return tuple(_adjoint(p) for p in x)


def _parts(batch, k: int, m: int) -> list[tuple[np.ndarray, ...]]:
    """A batch of k * m terms cut into k batches of m."""
    return [_take(batch, slice(i * m, (i + 1) * m)) for i in range(k)]


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
    fiber = bundle.fiber_ideal
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
    fibers = [fiber(t) for t in ball]
    inverses = [g.inv(t) for t in ball]
    ts, tinvs = per_term(ball), per_term(inverses)
    # A pass over s draws, per t, `samples` pairs (a, b) and then `samples`
    # triples (a, b, c); term j = (position of t) * samples + sample.
    first = 5 * samples * np.repeat(np.arange(len(ball)), samples)
    k = np.tile(np.arange(samples), len(ball))
    pair, triple = first + 2 * k, first + 2 * samples + 3 * k

    for lo, hi in _chunks([n] * len(ball)):
        ss = [ball[si] for si in range(lo, hi) for _ in range(n)]
        rows = [[canonical(g.mul(ball[si], t)) for t in ball] for si in range(lo, hi)]
        sts = [st for row in rows for st in per_term(row)]
        tsts = per_term([canonical(g.mul(t, st)) for row in rows for t, st in zip(ball, row)])
        m = len(ss)
        x = draw(
            [
                f
                for si, row in zip(range(lo, hi), rows)
                for ft, st in zip(fibers, row)
                for f in [fibers[si], ft] * samples + [fibers[si], ft, fiber(st)] * samples
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
        supported = (outside_mass([fiber(st) for st in sts], ab) <= tol).tolist()
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
    in_unit = (outside_mass([fiber(g.identity)] * n, aa) <= tol).tolist()
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

    Entries are expected to lie in their fibers; nothing is projected
    silently. Convolution is the algebraic crossed-product multiplication.
    """

    __slots__ = ("bundle", "data")

    def __init__(self, bundle: TwistedBundle, data: Mapping[Elem, FdElement]):
        self.bundle = bundle
        self.data = dict(data)

    @staticmethod
    def zero(bundle: TwistedBundle) -> "Section":
        return Section(bundle, {})

    @staticmethod
    def delta(bundle: TwistedBundle, t: Elem, a: FdElement) -> "Section":
        return Section(bundle, {t: a})

    def value(self, t: Elem) -> FdElement:
        got = self.data.get(t)
        return got if got is not None else self.bundle.coeff_algebra.zero()

    def support(self) -> list[Elem]:
        return list(self.data.keys())

    def __add__(self, other: "Section") -> "Section":
        data = dict(self.data)
        for t, a in other.data.items():
            data[t] = data[t] + a if t in data else a
        return Section(self.bundle, data)

    def __sub__(self, other: "Section") -> "Section":
        return self + (-1.0) * other

    def __rmul__(self, scalar) -> "Section":
        return Section(self.bundle, {t: complex(scalar) * a for t, a in self.data.items()})

    def conv(self, other: "Section") -> "Section":
        g = self.bundle.group
        acc: dict[Elem, FdElement] = {}
        for s, a in self.data.items():
            for t, b in other.data.items():
                r = g.mul(s, t)
                term = self.bundle.mul(s, a, t, b)
                acc[r] = acc[r] + term if r in acc else term
        return Section(self.bundle, acc)

    def star(self) -> "Section":
        g = self.bundle.group
        return Section(
            self.bundle, {g.inv(t): self.bundle.star(t, a) for t, a in self.data.items()}
        )

    def right_mul(self, b: FdElement) -> "Section":
        """Right action of a unit-fiber element: (f b)(t) = f(t) b."""
        g = self.bundle.group
        e = g.identity
        return Section(
            self.bundle,
            {t: self.bundle.mul(t, a, e, b) for t, a in self.data.items()},
        )

    def inner(self, other: "Section") -> FdElement:
        """Unit-fiber valued inner product, sum of f(t)* g(t) in the bundle."""
        g = self.bundle.group
        out = self.bundle.coeff_algebra.zero()
        for t, a in self.data.items():
            b = other.data.get(t)
            if b is None:
                continue
            out = out + self.bundle.mul(g.inv(t), self.bundle.star(t, a), t, b)
        return out

    def sup_norm(self) -> float:
        return max((op_norm(a) for a in self.data.values()), default=0.0)


def canonical_expectation(f: Section) -> FdElement:
    """Coefficient at the identity, the usual expectation onto B_e."""
    return f.value(f.bundle.group.identity)


@dataclass
class SubBundle:
    """A sub-Fell-bundle given by a fiberwise conditional expectation.

    ``project`` must be idempotent, contractive, and a bimodule map over the
    surviving fibers; the standard examples below all qualify.
    """

    bundle: TwistedBundle
    member: Callable[[Elem], bool]
    project: Callable[[Elem, FdElement], FdElement]

    def expect(self, t: Elem, a: FdElement) -> FdElement:
        if not self.member(t):
            return self.bundle.coeff_algebra.zero()
        return self.project(t, a)


def full_sub_bundle(bundle: TwistedBundle) -> SubBundle:
    return SubBundle(bundle, lambda t: True, lambda t, a: a)


def subgroup_sub_bundle(bundle: TwistedBundle, member: Callable[[Elem], bool]) -> SubBundle:
    """Fibers over a subgroup survive whole; everything else dies."""
    return SubBundle(bundle, member, lambda t, a: a)


def mask_sub_bundle(bundle: TwistedBundle, masks: list[np.ndarray]) -> SubBundle:
    """Entrywise mask expectation, e.g. onto block-diagonal subalgebras.

    ``masks`` holds one 0/1 matrix per coefficient block; the mask pattern
    must be closed under multiplication and contain the diagonal for the
    compression to be a conditional expectation.
    """

    def project(t: Elem, a: FdElement) -> FdElement:
        return FdElement(a.algebra, [m * w for m, w in zip(a.mats, masks)])

    return SubBundle(bundle, lambda t: True, project)


def trace_sub_bundle(bundle: TwistedBundle, member: Callable[[Elem], bool]) -> SubBundle:
    """Normalized-trace expectation onto scalars in each surviving fiber."""

    def project(t: Elem, a: FdElement) -> FdElement:
        mats = []
        for m in a.mats:
            d = m.shape[0]
            mats.append(np.trace(m) / d * np.eye(d, dtype=complex) if d else m)
        return FdElement(a.algebra, mats)

    return SubBundle(bundle, member, project)


# ---------------------------------------------------------------------------
# Actions recovered from a bundle.
# ---------------------------------------------------------------------------


def _generated_ideal_blocks(bundle: TwistedBundle, t: Elem) -> frozenset[int]:
    """Blocks of the ideal spanned by B_t B_t* inside the unit fiber."""
    g = bundle.group
    tinv = g.inv(t)
    blocks: set[int] = set()
    basis = bundle.fiber_ideal(t).basis()
    for a in basis:
        prod = bundle.mul(t, a, tinv, bundle.star(t, a))
        for j, m in enumerate(prod.mats):
            if np.abs(m).max(initial=0.0) > 1e-12:
                blocks.add(j)
    return frozenset(blocks)


def central_partial_action(
    bundle: TwistedBundle, window: int = 2, tol: float = 1e-9
) -> PartialAction:
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

    def solve(t: Elem) -> IdealIso:
        if t == e:
            return IdealIso.identity_on(z_alg.full_ideal())
        src = sorted(_generated_ideal_blocks(bundle, g.inv(t)))
        tgt = sorted(_generated_ideal_blocks(bundle, t))
        fiber_basis = bundle.fiber_ideal(t).basis()
        phi: dict[int, int] = {}
        for j in src:
            p_j = alg.zero()
            p_j.mats[j] = np.eye(alg.blocks[j], dtype=complex)
            rhs = np.concatenate([bundle.mul(t, m, e, p_j).flat() for m in fiber_basis])
            cols = []
            for k in tgt:
                p_k = alg.zero()
                p_k.mats[k] = np.eye(alg.blocks[k], dtype=complex)
                cols.append(
                    np.concatenate([bundle.mul(e, p_k, t, m).flat() for m in fiber_basis])
                )
            mat = np.stack(cols, axis=1)
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


@dataclass
class SpectralAction:
    """Partial bijections of the finite spectrum of a commutative unit fiber."""

    group: Group
    npoints: int
    action: PartialAction

    def domain(self, t: Elem) -> frozenset[int]:
        """Points on which t^-1 ... t moves: the source of theta_t."""
        return frozenset(self.action.iso(t).phi.keys())

    def theta(self, t: Elem) -> dict[int, int]:
        return dict(self.action.iso(t).phi)


def spectral_partial_action(bundle: TwistedBundle, window: int = 2) -> SpectralAction:
    """Point-level partial action on the spectrum of a commutative B_e.

    Each block of the coefficient algebra must be one-dimensional; the
    underlying function moves are exactly the central block permutations.
    """
    alg = bundle.coeff_algebra
    if any(d != 1 for d in alg.blocks):
        raise ValueError("spectral action needs a commutative unit fiber")
    central = central_partial_action(bundle, window)
    return SpectralAction(bundle.group, alg.nblocks, central)
