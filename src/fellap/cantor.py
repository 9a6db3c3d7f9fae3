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
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional
from typing import Sequence, Tuple, Union

import numpy as np

from .algebra import ActionReport, _Memo
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


class Arrow(NamedTuple):
    """Coarsened groupoid arrow: a source cylinder and an acting symbol."""

    source: Word
    g: Elem


ArrowIds = Tuple[int, int]  # (word id, symbol id) in one GroupoidTable's ids


class _Ids(dict):
    """``ids[value]`` is value's id, 0, 1, ... in order of first sight;
    ``ids.by_id[k]`` is the value of id k."""

    def __init__(self):
        super().__init__()
        self.by_id: list = []

    def __missing__(self, value) -> int:
        k = self[value] = len(self.by_id)
        self.by_id.append(value)
        return k


@dataclass(frozen=True)
class GroupoidTable:
    """The arrows of a truncated boundary groupoid, with lazy symbol data.

    Each word and symbol met gets a small integer id, once; each symbol
    is parsed, and each range word, product, inverse, label and word text
    formed, once, in caches keyed by ids that take any element of the
    group (a product may leave ball(radius)) and sit outside equality,
    hashing and repr.  ``compose_ids`` is the only composition code;
    ``compose``, ``range_word``, ``invert`` and ``unit_at`` are its
    Arrow-level views.
    """

    group: FreeGroup
    depth: int
    radius: int
    arrows: Tuple[Arrow, ...]
    _words: _Ids = field(default_factory=_Ids, init=False, compare=False, repr=False)
    _symbols: _Ids = field(default_factory=_Ids, init=False, compare=False, repr=False)

    def _range(self, ids: ArrowIds) -> int:
        sym = self._parsed[ids[1]]
        return self._words[sym.pos + self._words.by_id[ids[0]][len(sym.neg) :]]

    def _product(self, key: ArrowIds) -> int:
        elems = self._symbols.by_id
        return self._symbols[self.group.mul(elems[key[0]], elems[key[1]])]

    # made on first use: symbol -> its parse, (word, symbol) -> range word,
    # (symbol, symbol) -> product and symbol -> inverse, by ids; element -> label;
    # word -> its letters as a string, by ids
    _parsed = cached_property(lambda t: _Memo(lambda sid: partial_symbol(t.group, t._symbols.by_id[sid])))
    _ranges = cached_property(lambda t: _Memo(t._range))
    _products = cached_property(lambda t: _Memo(t._product))
    _inverses = cached_property(lambda t: _Memo(lambda sid: t._symbols[t.group.inv(t._symbols.by_id[sid])]))
    _labels = cached_property(lambda t: _Memo(t.group.format_elem))
    _texts = cached_property(lambda t: _Memo(lambda wid: "".join(map(str, t._words.by_id[wid]))))

    def ids(self, arrow: Arrow) -> ArrowIds:
        return self._words[arrow.source], self._symbols[arrow.g]

    def arrow(self, ids: ArrowIds) -> Arrow:
        return Arrow(self._words.by_id[ids[0]], self._symbols.by_id[ids[1]])

    def range_id(self, ids: ArrowIds) -> int:
        return self._ranges[ids]

    def invert_ids(self, ids: ArrowIds) -> ArrowIds:
        return self._ranges[ids], self._inverses[ids[1]]

    def unit_ids(self, word_id: int) -> ArrowIds:
        return word_id, self._symbols[self.group.identity]

    def compose_ids(self, first: ArrowIds, second: ArrowIds) -> Optional[ArrowIds]:
        """first . second on ids, applying second's symbol first.

        Defined when the range word of ``second`` is the source of
        ``first`` exactly; the composite sits at second's source with the
        product symbol, found in two dict lookups on pairs of small ints.
        Germs compose more widely: an arrow a b^{-1} with |a| != |b| meets
        units only here.  ROADMAP item 8 replaces this with the
        composition of germs on refined cylinders.
        """
        if self._ranges[second] != first[0]:
            return None
        return second[0], self._products[first[1], second[1]]

    def range_word(self, arrow: Arrow) -> Word:
        return self._words.by_id[self.range_id(self.ids(arrow))]

    @cached_property
    def range_words(self) -> Tuple[Word, ...]:
        """``range_word`` of every arrow, in table order."""
        return tuple(self.range_word(arrow) for arrow in self.arrows)

    def label(self, g: Elem) -> str:
        """``format_elem`` of g."""
        return self._labels[g]

    def text(self, word: Word) -> str:
        """The letters of ``word`` as one string, joined once per word id."""
        return self._texts[self._words[word]]

    def is_unit(self, arrow: Arrow) -> bool:
        return arrow.g == self.group.identity

    def invert(self, arrow: Arrow) -> Arrow:
        return self.arrow(self.invert_ids(self.ids(arrow)))

    def unit_at(self, word: Word) -> Arrow:
        return self.arrow(self.unit_ids(self._words[word]))

    def compose(self, first: Arrow, second: Arrow) -> Optional[Arrow]:
        """``compose_ids`` on the ids of two arrows."""
        out = self.compose_ids(self.ids(first), self.ids(second))
        return None if out is None else self.arrow(out)


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
    """Exhaustive axiom check on the enumerated arrow table, on its ids.

    Every composite goes through ``table.compose_ids``, so a table that
    overrides it is checked as it composes.  Associativity is checked on
    every composable triple, reached through an index of arrows by range
    id in the order of an all-pairs scan, with compose(y, z) formed once
    per pair.  A triple costs two ``compose_ids`` calls and one report
    entry; no Arrow is built and no element hashed.  The check is as
    narrow as ``compose_ids``: at radius 1 every associativity triple is
    (x, unit, unit).  ROADMAP item 8 widens it to the composition of germs.
    """
    report = ActionReport()
    add = report.add
    compose = table.compose_ids
    ids = [table.ids(arrow) for arrow in table.arrows]
    ranges = [table.range_id(a) for a in ids]
    by_range: Dict[int, List[int]] = {}
    for k, rng in enumerate(ranges):
        by_range.setdefault(rng, []).append(k)
    for arrow, a, rng in zip(table.arrows, ids, ranges):
        label = f"({table._texts[a[0]]},{table.label(arrow.g)})"
        inv = table.invert_ids(a)
        add("inversion-involutive", label, 0.0 if table.invert_ids(inv) == a else 1.0, 0.5)
        add("inverse-source-is-range", label, 0.0 if inv[0] == rng else 1.0, 0.5)
        absorbs = compose(table.unit_ids(rng), a) == a and compose(a, table.unit_ids(a[0])) == a
        add("unit-absorbs", label, 0.0 if absorbs else 1.0, 0.5)
    # after[j]: the pairs (z, compose(y, z)) for y = ids[j], in index order
    after: List[Optional[List[Tuple[ArrowIds, Optional[ArrowIds]]]]] = [None] * len(ids)
    for x in ids:
        for j in by_range.get(x[0], ()):
            y = ids[j]
            xy = compose(x, y)
            if xy is None:
                continue
            row = after[j]
            if row is None:
                row = after[j] = [(ids[k], compose(y, ids[k])) for k in by_range.get(y[0], ())]
            for z, yz in row:
                if yz is None:
                    continue
                lhs = compose(xy, z)
                rhs = compose(x, yz)
                add("associativity", "assoc", 0.0 if lhs == rhs and lhs is not None else 1.0, 0.5)
    return report
