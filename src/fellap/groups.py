"""Discrete groups the rest of the package is parameterized over.

Three kinds of group are supported: finite groups given by an explicit
multiplication table, free groups of finite rank with elements stored as
reduced words, and integer lattices Z^d. Groups are interned values:
``FreeGroup(2)`` built twice is one object, and a table group is one object
per (table, label). Groups therefore compare and hash by identity. Elements
are opaque handles tied to the group that created them; mixing elements
across groups raises :class:`ContextMismatchError`.

Enumeration of word-length balls is deterministic (length first, then a
fixed lexicographic letter order), so every downstream report that iterates
a ball is byte-reproducible.
"""

from __future__ import annotations

import itertools
import operator
import weakref
from collections import namedtuple
from typing import Iterable, Iterator, Sequence

__all__ = [
    "ContextMismatchError",
    "UnsupportedGroupError",
    "Elem",
    "Group",
    "FiniteGroup",
    "FreeGroup",
    "LatticeGroup",
    "cyclic_group",
    "symmetric_group",
]


class ContextMismatchError(ValueError):
    """An element was used with a group other than the one that owns it."""


class UnsupportedGroupError(ValueError):
    """The requested operation is not defined for this kind of group."""


class Elem(namedtuple("Elem", ["group", "data"])):
    """Opaque group element: an index (finite), a reduced word (free),
    or an integer vector (lattice), always paired with its group.

    A named pair, so hashing and equality are the tuple's: equal elements
    have the same group and equal data. Groups hash by identity, so hashing
    or comparing an element runs in C throughout.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return f"Elem({self.group.label}:{self.group.format_elem(self)})"


class Group:
    """Common interface for the three group kinds. Each kind keeps its live
    groups in a weak-value table ``_live`` keyed by value."""

    label: str

    def __reduce__(self):  # a copy or an unpickled group is the live one
        return type(self), self._args

    def check(self, a: Elem) -> None:
        if a.group is not self:
            raise ContextMismatchError(
                f"element of {getattr(a.group, 'label', a.group)!r} used with {self.label!r}"
            )

    @property
    def identity(self) -> Elem:
        raise NotImplementedError

    def mul(self, a: Elem, b: Elem) -> Elem:
        raise NotImplementedError

    def inv(self, a: Elem) -> Elem:
        raise NotImplementedError

    def ball(self, radius: int) -> list[Elem]:
        """All elements of word length <= radius, deterministically ordered."""
        raise NotImplementedError

    def walk(self, radius: int) -> Iterator[Elem]:
        """The elements of ``ball(radius)`` one at a time, in its order, for
        a caller that may stop early."""
        return iter(self.ball(radius))

    def word_length(self, a: Elem) -> int:
        raise NotImplementedError

    @property
    def is_finite(self) -> bool:
        return False

    def format_elem(self, a: Elem) -> str:
        raise NotImplementedError

    def parse_elem(self, text: str) -> Elem:
        raise NotImplementedError


class FiniteGroup(Group):
    """Group given by an explicit multiplication table on indices 0..n-1.

    The table is verified at construction: a unique two-sided identity must
    exist, every row/column must be a permutation (Latin square), every
    element must have a two-sided inverse, and associativity is checked
    exhaustively. Ball enumeration returns the whole group in index order
    regardless of the radius, since no generating set is declared. The |G|
    elements are made once; the methods hand out those stored objects.
    """

    _live: weakref.WeakValueDictionary = weakref.WeakValueDictionary()

    def __new__(cls, table: Sequence[Sequence[int]], label: str = "finite"):
        n = len(table)
        if n == 0:
            raise ValueError("empty multiplication table")
        tab = tuple(tuple(int(x) for x in row) for row in table)
        self = cls._live.get((tab, label))
        if self is not None:
            return self
        for row in tab:
            if len(row) != n or any(not (0 <= x < n) for x in row):
                raise ValueError("table is not square over 0..n-1")
        self = super().__new__(cls)
        self._table, self._args = tab, (tab, label)
        self._n = n
        self.label = label

        id_candidates = [
            e
            for e in range(n)
            if all(tab[e][x] == x and tab[x][e] == x for x in range(n))
        ]
        if len(id_candidates) != 1:
            raise ValueError("table has no unique two-sided identity")
        self._id = id_candidates[0]

        inv = [-1] * n
        for a in range(n):
            matches = [b for b in range(n) if tab[a][b] == self._id and tab[b][a] == self._id]
            if len(matches) != 1:
                raise ValueError(f"element {a} has no unique two-sided inverse")
            inv[a] = matches[0]
        self._inv = tuple(inv)
        self._elems = tuple(Elem(self, i) for i in range(n))

        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if tab[tab[a][b]][c] != tab[a][tab[b][c]]:
                        raise ValueError(f"table is not associative at ({a},{b},{c})")
        cls._live[tab, label] = self
        return self

    def __repr__(self) -> str:
        return f"FiniteGroup({self.label!r}, order={self._n})"

    @property
    def is_finite(self) -> bool:
        return True

    @property
    def order(self) -> int:
        return self._n

    @property
    def table(self) -> tuple[tuple[int, ...], ...]:
        return self._table

    @property
    def identity(self) -> Elem:
        return self._elems[self._id]

    def elem(self, index: int) -> Elem:
        if not (0 <= index < self._n):
            raise ValueError(f"index {index} out of range for group of order {self._n}")
        return self._elems[index]

    def elements(self) -> list[Elem]:
        return list(self._elems)

    def mul(self, a: Elem, b: Elem) -> Elem:
        if a.group is not self or b.group is not self:
            self.check(a)
            self.check(b)
        return self._elems[self._table[a.data][b.data]]

    def inv(self, a: Elem) -> Elem:
        if a.group is not self:
            self.check(a)
        return self._elems[self._inv[a.data]]

    def ball(self, radius: int) -> list[Elem]:
        return self.elements()

    def word_length(self, a: Elem) -> int:
        # No generating set is declared for table groups; only the identity
        # has a well-defined length.
        self.check(a)
        return 0 if a.data == self._id else 1

    def format_elem(self, a: Elem) -> str:
        return str(a.data)

    def parse_elem(self, text: str) -> Elem:
        return self.elem(int(text.strip()))


def _letter_sort_key(letter: int) -> tuple[int, int]:
    # generator index first, positive letter before its inverse
    return (abs(letter), 0 if letter > 0 else 1)


def _reduce_word(letters: Iterable[int]) -> tuple[int, ...]:
    out: list[int] = []
    for l in letters:
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


class FreeGroup(Group):
    """Free group of rank n; elements are reduced words over letters
    {1..n} u {-1..-n}, a negative letter being the inverse generator."""

    _live: weakref.WeakValueDictionary = weakref.WeakValueDictionary()

    def __new__(cls, rank: int):
        if rank < 1:
            raise ValueError("rank must be >= 1")
        self = cls._live.get(rank)
        if self is None:
            self = cls._live[rank] = super().__new__(cls)
            self.rank, self.label, self._args = rank, f"F{rank}", (rank,)
        return self

    def __repr__(self) -> str:
        return f"FreeGroup({self.rank})"

    @property
    def identity(self) -> Elem:
        return tuple.__new__(Elem, (self, ()))

    def word(self, letters: Iterable[int]) -> Elem:
        ls = tuple(int(l) for l in letters)
        for l in ls:
            if l == 0 or abs(l) > self.rank:
                raise ValueError(f"letter {l} outside +-1..+-{self.rank}")
        return tuple.__new__(Elem, (self, _reduce_word(ls)))

    def generator(self, i: int) -> Elem:
        if not (1 <= i <= self.rank):
            raise ValueError(f"generator index {i} outside 1..{self.rank}")
        return tuple.__new__(Elem, (self, (i,)))

    def mul(self, a: Elem, b: Elem) -> Elem:
        """Both words are reduced, so letters cancel only where they meet:
        strip the cancelling pairs at the junction and join the rest."""
        if a.group is not self or b.group is not self:
            self.check(a)
            self.check(b)
        x, y = a.data, b.data
        if not x or not y or x[-1] != -y[0]:
            return tuple.__new__(Elem, (self, x + y))
        k, n = 1, min(len(x), len(y))
        while k < n and x[-1 - k] == -y[k]:
            k += 1
        return tuple.__new__(Elem, (self, x[: len(x) - k] + y[k:]))

    def inv(self, a: Elem) -> Elem:
        if a.group is not self:
            self.check(a)
        return tuple.__new__(Elem, (self, tuple(-l for l in reversed(a.data))))

    def word_length(self, a: Elem) -> int:
        self.check(a)
        return len(a.data)

    def is_positive(self, a: Elem) -> bool:
        """True for nonempty words in positive generators only.

        The identity is not positive: the explicit witness nets downstream
        normalize exactly because their supports run over lengths 1..i.
        """
        self.check(a)
        return len(a.data) > 0 and all(l > 0 for l in a.data)

    def ball(self, radius: int) -> list[Elem]:
        return list(self.walk(radius))

    def walk(self, radius: int) -> Iterator[Elem]:
        """The words of ``ball(radius)`` in its order, a layer made only
        when the caller reads past the one before."""
        if radius < 0:
            raise ValueError("radius must be >= 0")
        yield self.identity
        for layer in self._layers(radius):
            for w in layer:
                yield tuple.__new__(Elem, (self, w))

    def _layers(self, radius: int) -> Iterator[list[tuple[int, ...]]]:
        """The reduced words of lengths 1..radius, one sorted layer at a
        time: extending a sorted layer by the sorted letters gives the next
        layer sorted, since words of one length compare letter by letter."""
        letters = sorted(
            [i for i in range(1, self.rank + 1)] + [-i for i in range(1, self.rank + 1)],
            key=_letter_sort_key,
        )
        frontier: list[tuple[int, ...]] = [()]
        for _ in range(radius):
            frontier = [w + (l,) for w in frontier for l in letters if not (w and w[-1] == -l)]
            yield frontier

    def format_elem(self, a: Elem) -> str:
        if not a.data:
            return "e"
        return " ".join(str(l) for l in a.data)

    def parse_elem(self, text: str) -> Elem:
        text = text.strip()
        if text in ("", "e"):
            return self.identity
        return self.word(int(tok) for tok in text.replace(",", " ").split())


class LatticeGroup(Group):
    """The integer lattice Z^d with generators +-e_i; word length is the
    l1 norm."""

    _live: weakref.WeakValueDictionary = weakref.WeakValueDictionary()

    def __new__(cls, dim: int):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self = cls._live.get(dim)
        if self is None:
            self = cls._live[dim] = super().__new__(cls)
            self.dim, self.label, self._args = dim, f"Z^{dim}", (dim,)
        return self

    def __repr__(self) -> str:
        return f"LatticeGroup({self.dim})"

    @property
    def identity(self) -> Elem:
        return tuple.__new__(Elem, (self, (0,) * self.dim))

    def vector(self, coords: Iterable[int]) -> Elem:
        v = tuple(int(c) for c in coords)
        if len(v) != self.dim:
            raise ValueError(f"expected {self.dim} coordinates, got {len(v)}")
        return tuple.__new__(Elem, (self, v))

    def mul(self, a: Elem, b: Elem) -> Elem:
        if a.group is not self or b.group is not self:
            self.check(a)
            self.check(b)
        return tuple.__new__(Elem, (self, tuple(map(operator.add, a.data, b.data))))

    def inv(self, a: Elem) -> Elem:
        if a.group is not self:
            self.check(a)
        return tuple.__new__(Elem, (self, tuple(-x for x in a.data)))

    def word_length(self, a: Elem) -> int:
        self.check(a)
        return sum(abs(x) for x in a.data)

    def ball(self, radius: int) -> list[Elem]:
        if radius < 0:
            raise ValueError("radius must be >= 0")
        vecs = [
            v
            for v in itertools.product(range(-radius, radius + 1), repeat=self.dim)
            if sum(abs(x) for x in v) <= radius
        ]
        vecs.sort(key=lambda v: (sum(abs(x) for x in v), v))
        return [tuple.__new__(Elem, (self, v)) for v in vecs]

    def format_elem(self, a: Elem) -> str:
        return ",".join(str(x) for x in a.data)

    def parse_elem(self, text: str) -> Elem:
        return self.vector(int(tok) for tok in text.strip().split(","))


def cyclic_group(m: int) -> FiniteGroup:
    """Z_m as a table group, elements 0..m-1 under addition mod m."""
    if m < 1:
        raise ValueError("m must be >= 1")
    table = [[(i + j) % m for j in range(m)] for i in range(m)]
    return FiniteGroup(table, label=f"Z{m}")


def symmetric_group(n: int) -> FiniteGroup:
    """S_n as a table group (n <= 4 keeps tables small).

    Elements are permutations of 0..n-1 enumerated in lexicographic one-line
    order; index 0 is the identity. Composition convention: (p*q)(x) = p(q(x)).
    """
    if not (1 <= n <= 4):
        raise ValueError("symmetric_group supports 1 <= n <= 4")
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(p[q[x]] for x in range(n))] for q in perms]
        for p in perms
    ]
    return FiniteGroup(table, label=f"S{n}")
