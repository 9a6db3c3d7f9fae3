"""Boundary action of a free group on Cantor space, with its witness net.

Points of X = {1..n}^infinity are infinite letter streams; a function that
only depends on the first d letters is stored as a dense table of n^d
values, one per depth-d cylinder.  All arithmetic refines operands to a
common depth and is exact: refining replicates values, never approximates.

A group element acts iff its reduced word is ab^{-1} with a, b positive:
theta_g maps the cylinder X_b onto X_a by swapping the prefix.  Words with
a positive letter after a negative one act nowhere (zero domain ideal).

The witness net xi_i assigns (1/sqrt(i)) times the cylinder indicator to
every positive word of length 1..i.  Nothing walks that support: the
cylinders of one length partition X, so the bound and the defect at a
symbol g = ab^{-1} are counts of whole length layers, integers over i, in
O(1) arithmetic.  The tests compare both against the word-by-word
enumeration and a brute-force pointwise evaluator at small i.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .algebra import ActionReport
from .groups import Elem, FreeGroup

Word = Tuple[int, ...]


class CantorDomainError(ValueError):
    """Function support sticks out of the domain cylinder."""


def _word_index(n: int, word: Word) -> int:
    idx = 0
    for letter in word:
        idx = idx * n + (letter - 1)
    return idx


class CylFun:
    """Locally constant function on the letter stream space.

    depth counts the letters the function reads; the table holds one value
    per depth-length word, indexed with the first letter most significant.
    """

    __slots__ = ("n", "depth", "table")

    def __init__(self, n: int, depth: int, table: np.ndarray):
        if n < 2:
            raise ValueError("alphabet needs at least two letters")
        table = np.asarray(table, dtype=complex).reshape(n**depth)
        self.n = n
        self.depth = depth
        self.table = table

    @staticmethod
    def constant(n: int, value: complex = 0.0) -> "CylFun":
        return CylFun(n, 0, np.array([value], dtype=complex))

    def refine_to(self, depth: int) -> "CylFun":
        if depth < self.depth:
            raise ValueError("refinement only increases depth")
        if depth == self.depth:
            return self
        reps = self.n ** (depth - self.depth)
        return CylFun(self.n, depth, np.repeat(self.table, reps))

    def _pair(self, other: "CylFun") -> Tuple[np.ndarray, np.ndarray, int]:
        if not isinstance(other, CylFun):
            raise TypeError("expected a cylinder function")
        if other.n != self.n:
            raise ValueError("alphabet size mismatch")
        d = max(self.depth, other.depth)
        return self.refine_to(d).table, other.refine_to(d).table, d

    def __sub__(self, other: "CylFun") -> "CylFun":
        x, y, d = self._pair(other)
        return CylFun(self.n, d, x - y)

    def __mul__(self, other: "CylFun") -> "CylFun":
        x, y, d = self._pair(other)
        return CylFun(self.n, d, x * y)

    def sup_norm(self) -> float:
        return float(np.abs(self.table).max(initial=0.0))


def cyl_indicator(n: int, word: Iterable[int]) -> CylFun:
    w = tuple(int(x) for x in word)
    if any(not (1 <= x <= n) for x in w):
        raise ValueError("letters must lie in 1..n")
    tbl = np.zeros(n ** len(w), dtype=complex)
    tbl[_word_index(n, w)] = 1.0
    return CylFun(n, len(w), tbl)


def cyl_close(f: CylFun, g: CylFun, tol: float = 1e-12) -> bool:
    return (f - g).sup_norm() <= tol


@dataclass(frozen=True)
class PartialSymbol:
    """Reduced decomposition g = a b^{-1} of a free group element.

    ``pos`` is a, ``neg`` is b, both positive words; ``domain_zero`` marks
    elements whose reduced word has a positive letter after a negative one,
    which act on the empty set.
    """

    group: FreeGroup
    elem: Elem
    pos: Word
    neg: Word
    domain_zero: bool


def partial_symbol(group: FreeGroup, g: Elem) -> PartialSymbol:
    group.check(g)
    letters = g.data
    split = 0
    while split < len(letters) and letters[split] > 0:
        split += 1
    tail = letters[split:]
    if any(l > 0 for l in tail):
        return PartialSymbol(group, g, (), (), True)
    pos = tuple(letters[:split])
    neg = tuple(-l for l in reversed(tail))
    return PartialSymbol(group, g, pos, neg, False)


def theta_apply(sym: PartialSymbol, f: CylFun, tol: float = 1e-12) -> CylFun:
    """Push f through theta_g, the prefix swap X_b -> X_a.

    f must vanish outside X_b at its depth; the output depth shifts by
    |a| - |b| and the values are carried over unchanged.
    """
    if sym.domain_zero:
        raise ValueError("symbol acts nowhere")
    n = sym.group.rank
    if f.n != n:
        raise ValueError("alphabet size mismatch")
    a, b = sym.pos, sym.neg
    work = f.refine_to(max(f.depth, len(b)))
    width = n ** (work.depth - len(b))
    start = _word_index(n, b) * width
    outside = np.abs(
        np.concatenate([work.table[:start], work.table[start + width :]])
    )
    if outside.max(initial=0.0) > tol:
        raise CantorDomainError("support leaves the domain cylinder")
    inner = work.table[start : start + width]
    out_depth = work.depth - len(b) + len(a)
    out = np.zeros(n**out_depth, dtype=complex)
    out_start = _word_index(n, a) * width
    out[out_start : out_start + width] = inner
    return CylFun(n, out_depth, out)


def positive_words(n: int, length: int) -> Iterator[Word]:
    return itertools.product(range(1, n + 1), repeat=length)


@dataclass(frozen=True)
class CuntzWitness:
    """The net member xi_i: positive words up to length i, scaled indicators.

    The table of values is never materialized; ``value`` builds single
    indicators on demand, and the bound and defect evaluators count whole
    length layers without visiting a word.  ``include_identity`` adds the
    empty word to the support with the same scale; it is off by default,
    which is what makes the bound come out to exactly 1 instead of (i+1)/i.
    """

    group: FreeGroup
    i: int
    include_identity: bool = False

    def min_length(self) -> int:
        return 0 if self.include_identity else 1

    def value(self, g: Elem) -> CylFun:
        """1/sqrt(i) times the indicator of X_g on a positive word g of
        admissible length, zero elsewhere."""
        self.group.check(g)
        n, word = self.group.rank, g.data
        if any(l <= 0 for l in word) or not self.min_length() <= len(word) <= self.i:
            return CylFun.constant(n, 0.0)
        scale = 1.0 / float(np.sqrt(self.i))
        return CylFun(n, len(word), scale * cyl_indicator(n, word).table)

    def support_size(self) -> int:
        n = self.group.rank
        return sum(n**k for k in range(self.min_length(), self.i + 1))


def xi_witness(i: int, n: int, include_identity: bool = False) -> CuntzWitness:
    if i < 1:
        raise ValueError("witness index starts at 1")
    return CuntzWitness(FreeGroup(n), i, include_identity)


def _layer_count(i: int, a_len: int, b_len: int, min_len: int) -> int:
    """Tail lengths m with min_len <= |a| + m <= i and min_len <= |b| + m <= i."""
    lo = max(0, min_len - a_len, min_len - b_len)
    hi = i - max(a_len, b_len)
    return max(0, hi - lo + 1)


def cantor_witness_bound(w: CuntzWitness) -> float:
    """sup norm of sum_g xi(g)* xi(g), counted by length layers.

    Every summand is (1/i) times the indicator of X_s for a support word
    s, and the words of one length k partition X, so each admissible
    length adds exactly 1 everywhere: the sum is (i - min_len + 1)/i times
    the constant 1.  The integer count is divided once, which gives the
    nearest float to the rational value.
    """
    return float(_layer_count(w.i, 0, 0, w.min_length())) / float(w.i)


def _cylinder_meet(u: Word, v: Word) -> Optional[Word]:
    # X_u and X_v are nested or disjoint; return the deeper word or None.
    short, longer = (u, v) if len(u) <= len(v) else (v, u)
    return longer if longer[: len(short)] == short else None


def cuntz_ap_defect(
    i: int,
    g: Union[Elem, PartialSymbol],
    group: Optional[FreeGroup] = None,
    include_identity: bool = False,
) -> float:
    """Defect sup|1_g - sum_h xi_i(h) theta_g(1_{g^-1} xi_i(g^-1 h))|.

    Write g = a b^{-1} and let l = 0 with ``include_identity``, else 1.
    Substitute s = g^{-1} h, a support word: the term for s survives only
    when s = b t with t a positive tail, since otherwise 1_{X_b} 1_{X_s}
    vanishes or a negative letter survives in h = g s.  Then h = a t, and
    theta_g carries 1_{X_s} = 1_{X_b t} to 1_{X_{a t}}, which meets
    xi_i(h) on the same cylinder: the term is (1/i) 1_{X_{a t}}.  The
    term is kept when both s and h are support words, i.e. for tail
    lengths m = |t| with l <= |a| + m, |b| + m <= i.  For each such m the
    tails run over all n^m words and their cylinders X_{a t} partition
    X_a, so the sum is (N/i) 1_{X_a} with N the number of admissible m:
    from max(0, l - |a|, l - |b|) to i - max(|a|, |b|).  As 1_g = 1_{X_a},
    the defect is |i - N|/i, the integer divided once.  No word is
    visited and no table is built, so the cost does not depend on i.
    """
    if isinstance(g, PartialSymbol):
        sym = g
    else:
        if group is None:
            raise ValueError("group required when passing a raw element")
        sym = partial_symbol(group, g)
    if sym.domain_zero:
        raise ValueError("symbol acts nowhere; no defect to evaluate")
    i = int(i)
    if i < 1:
        raise ValueError("witness index starts at 1")
    count = _layer_count(i, len(sym.pos), len(sym.neg), 0 if include_identity else 1)
    return float(abs(i - count)) / float(i)


@dataclass(frozen=True)
class CuntzRow:
    i: int
    word: str
    defect: float
    predicted: float
    residual: float


def cuntz_defect_table(
    n: int,
    i_max: int,
    targets: Sequence[Elem],
    include_identity: bool = False,
) -> List[CuntzRow]:
    """Defect trace rows (i, word, defect, |word|/i prediction, residual).

    The |word|/i law holds for positive words and the identity once
    i >= |word|; rows outside its reach carry predicted = -1 and a zero
    residual so the applicable checks stay separable downstream.
    """
    grp = FreeGroup(n)
    per_target = [
        (
            partial_symbol(grp, t),
            grp.format_elem(t),
            grp.word_length(t),
            (grp.is_positive(t) or t == grp.identity) and not include_identity,
        )
        for t in targets
    ]
    rows: List[CuntzRow] = []
    for i in range(1, i_max + 1):
        for sym, word, length, positive in per_target:
            defect = cuntz_ap_defect(i, sym, include_identity=include_identity)
            lawful = positive and length <= i
            predicted = length / i if lawful else -1.0
            rows.append(
                CuntzRow(
                    i=i,
                    word=word,
                    defect=defect,
                    predicted=predicted,
                    residual=defect - predicted if lawful else 0.0,
                )
            )
    return rows


def validate_cantor_action(
    n: int,
    window: int = 2,
    samples: int = 2,
    seed: int = 0,
    tol: float = 1e-12,
) -> ActionReport:
    """Axiom check of the prefix-swap action on ball(window).

    Identity, inverse round trips on random domain-supported functions,
    and the composition law theta_g(theta_h(f)) = theta_{gh}(f) whenever
    the left side is defined.
    """
    grp = FreeGroup(n)
    rng = np.random.default_rng(seed)
    report = ActionReport()
    ball = grp.ball(window)
    syms = [partial_symbol(grp, g) for g in ball]
    syms = [s for s in syms if not s.domain_zero]

    def random_in(prefix: Word, extra_depth: int = 2) -> CylFun:
        depth = len(prefix) + extra_depth
        tbl = rng.standard_normal(n**depth) + 1j * rng.standard_normal(n**depth)
        raw = CylFun(n, depth, tbl)
        unit = cyl_indicator(n, prefix) if prefix else CylFun.constant(n, 1.0)
        return raw * unit

    e_sym = partial_symbol(grp, grp.identity)
    for _ in range(samples):
        f = random_in(())
        report.add("identity-map", "e", (theta_apply(e_sym, f) - f).sup_norm(), tol)

    for sym in syms:
        label = grp.format_elem(sym.elem)
        for _ in range(samples):
            f = random_in(sym.neg)
            back = theta_apply(partial_symbol(grp, grp.inv(sym.elem)), theta_apply(sym, f))
            report.add("inverse-map", label, (back - f).sup_norm(), tol)

    for s_g in syms:
        for s_h in syms:
            meet = _cylinder_meet(s_h.pos, s_g.neg)
            if meet is None:
                continue
            label = f"{grp.format_elem(s_g.elem)}∘{grp.format_elem(s_h.elem)}"
            for _ in range(samples):
                mid = random_in(meet)
                f = theta_apply(partial_symbol(grp, grp.inv(s_h.elem)), mid)
                lhs = theta_apply(s_g, mid)
                gh = partial_symbol(grp, grp.mul(s_g.elem, s_h.elem))
                rhs = theta_apply(gh, f)
                report.add("composition-map", label, (lhs - rhs).sup_norm(), tol)
    return report


@dataclass(frozen=True)
class Arrow:
    """Coarsened groupoid arrow: a source cylinder and an acting symbol."""

    source: Word
    g: Elem


@dataclass(frozen=True)
class GroupoidTable:
    """The arrows of a truncated boundary groupoid, with lazy symbol data.

    Each distinct element g met by ``range_word``, ``invert`` or
    ``compose`` is parsed once into its shift (a, |b|) for g = a b^{-1};
    its label is formatted once, and each product g h is formed once.  The
    caches take any element of the group, since a product may leave
    ball(radius).  They are filled on first use and sit outside equality,
    hashing and repr, so a table that has been validated equals a fresh one
    built from the same arguments.
    """

    group: FreeGroup
    depth: int
    radius: int
    arrows: Tuple[Arrow, ...]
    # g -> (a, |b|)
    _shifts: Dict[Elem, Tuple[Word, int]] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )
    _labels: Dict[Elem, str] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )
    _products: Dict[Tuple[Elem, Elem], Elem] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def range_word(self, arrow: Arrow) -> Word:
        shift = self._shifts.get(arrow.g)
        if shift is None:
            sym = partial_symbol(self.group, arrow.g)
            shift = self._shifts[arrow.g] = (sym.pos, len(sym.neg))
        pos, cut = shift
        return pos + arrow.source[cut:]

    @cached_property
    def range_words(self) -> Tuple[Word, ...]:
        """``range_word`` of every arrow, in table order."""
        return tuple(self.range_word(arrow) for arrow in self.arrows)

    def label(self, g: Elem) -> str:
        """``format_elem`` of g."""
        text = self._labels.get(g)
        if text is None:
            text = self._labels[g] = self.group.format_elem(g)
        return text

    def is_unit(self, arrow: Arrow) -> bool:
        return arrow.g == self.group.identity

    def invert(self, arrow: Arrow) -> Arrow:
        return Arrow(self.range_word(arrow), self.group.inv(arrow.g))

    def unit_at(self, word: Word) -> Arrow:
        return Arrow(word, self.group.identity)

    def compose(self, first: Arrow, second: Arrow) -> Optional[Arrow]:
        """first . second, applying second's symbol first.

        Defined on representatives when the range word of ``second``
        matches the source of ``first`` exactly; the composite sits at
        second's source with the product symbol.  This is narrower than
        the composition of germs: the range of a b^{-1} on a depth-d
        cylinder has d + |a| - |b| letters while every source has d, so
        an arrow with |a| != |b| composes with units only, and at radius 1
        no two non-unit arrows compose.  ROADMAP item 5 replaces it with
        the composition of germs on refined cylinders.
        """
        if self.range_word(second) != first.source:
            return None
        key = (first.g, second.g)
        product = self._products.get(key)
        if product is None:
            product = self._products[key] = self.group.mul(first.g, second.g)
        return Arrow(second.source, product)


def spectral_groupoid(n: int, depth: int, radius: int) -> GroupoidTable:
    """Arrows of the truncated boundary groupoid at cylinder coarsening.

    One arrow per pair (depth-d cylinder inside X_b, symbol g = ab^{-1}
    with g in ball(radius)); the uncoarsened unit space is a Cantor set,
    so the table reports exactly what depth-d observables distinguish.
    """
    grp = FreeGroup(n)
    arrows: List[Arrow] = []
    for g in grp.ball(radius):
        sym = partial_symbol(grp, g)
        if sym.domain_zero or len(sym.neg) > depth:
            continue
        # the depth-d words inside X_b, in lexicographic order
        for tail in positive_words(n, depth - len(sym.neg)):
            arrows.append(Arrow(sym.neg + tail, g))
    return GroupoidTable(group=grp, depth=depth, radius=radius, arrows=tuple(arrows))


def validate_groupoid(table: GroupoidTable) -> ActionReport:
    """Exhaustive axiom check on the enumerated arrow table.

    Associativity is checked on every composable triple: y composes after
    x when its range word is x's source, so arrows are indexed by range
    word once and each triple is reached from x through that index, in the
    order of an all-pairs scan.  compose(y, z) depends on the pair only,
    so it is formed once per pair, on the first x that reaches y; every
    product still goes through ``table.compose``.

    The check is only as wide as ``compose``: composition needs an exact
    match of range word and source, so arrows with |a| != |b| meet units
    only, and at radius 1 every associativity triple is (x, unit, unit).
    ROADMAP item 5 widens it to the composition of germs.
    """
    report = ActionReport()
    arrows = table.arrows
    ranges = table.range_words
    by_range: Dict[Word, List[int]] = {}
    for k, rng in enumerate(ranges):
        by_range.setdefault(rng, []).append(k)
    for arrow, rng in zip(arrows, ranges):
        label = f"({''.join(map(str, arrow.source))},{table.label(arrow.g)})"
        inv = table.invert(arrow)
        double = table.invert(inv)
        report.add(
            "inversion-involutive", label, 0.0 if double == arrow else 1.0, 0.5
        )
        report.add(
            "inverse-source-is-range",
            label,
            0.0 if inv.source == rng else 1.0,
            0.5,
        )
        left_unit = table.unit_at(rng)
        right_unit = table.unit_at(arrow.source)
        report.add(
            "unit-absorbs",
            label,
            0.0
            if table.compose(left_unit, arrow) == arrow
            and table.compose(arrow, right_unit) == arrow
            else 1.0,
            0.5,
        )
    # after[j]: the pairs (z, compose(y, z)) for y = arrows[j], in index order
    after: List[Optional[List[Tuple[Arrow, Optional[Arrow]]]]] = [None] * len(arrows)
    for x in arrows:
        for j in by_range.get(x.source, ()):
            y = arrows[j]
            xy = table.compose(x, y)
            if xy is None:
                continue
            row = after[j]
            if row is None:
                row = after[j] = [
                    (arrows[k], table.compose(y, arrows[k]))
                    for k in by_range.get(y.source, ())
                ]
            for z, yz in row:
                if yz is None:
                    continue
                lhs = table.compose(xy, z)
                rhs = table.compose(x, yz)
                report.add(
                    "associativity",
                    "assoc",
                    0.0 if lhs is not None and rhs is not None and lhs == rhs else 1.0,
                    0.5,
                )
    return report
