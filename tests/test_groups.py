"""Group arithmetic and ball enumeration."""

import copy
import gc
import itertools
import pickle
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fellap.groups import (
    ContextMismatchError,
    Elem,
    FiniteGroup,
    FreeGroup,
    LatticeGroup,
    _reduce_word,
    cyclic_group,
    symmetric_group,
)

F2 = FreeGroup(2)
Z = LatticeGroup(1)
Z2 = LatticeGroup(2)
S3 = symmetric_group(3)


def free_ball_size(n: int, radius: int) -> int:
    # closed form: 1 + sum_{k=1..R} 2n(2n-1)^(k-1), frozen before the
    # implementation existed
    return 1 + sum(2 * n * (2 * n - 1) ** (k - 1) for k in range(1, radius + 1))


words = st.lists(
    st.integers(min_value=-2, max_value=2).filter(lambda l: l != 0),
    max_size=6,
).map(lambda ls: F2.word(ls))


class TestFiniteGroups:
    def test_cyclic_arithmetic(self):
        g = cyclic_group(5)
        a, b = g.elem(2), g.elem(4)
        assert g.mul(a, b) == g.elem(1)
        assert g.inv(a) == g.elem(3)
        assert g.mul(g.identity, a) == a

    def test_symmetric_group_order(self):
        assert symmetric_group(3).order == 6
        assert symmetric_group(4).order == 24

    def test_table_validation_rejects_broken_tables(self):
        from fellap.groups import FiniteGroup

        with pytest.raises(ValueError):
            FiniteGroup([[0, 1], [1, 1]])  # not a Latin square
        with pytest.raises(ValueError):
            FiniteGroup([[1, 0], [1, 0]])  # no identity

    def test_group_axioms_exhaustive(self):
        for g in (cyclic_group(4), S3):
            els = g.elements()
            e = g.identity
            for a in els:
                assert g.mul(a, g.inv(a)) == e
                assert g.mul(e, a) == a == g.mul(a, e)
            for a, b, c in itertools.product(els, repeat=3):
                assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))

    def test_ball_is_whole_group_any_radius(self):
        for r in (0, 1, 17):
            assert len(S3.ball(r)) == 6


class TestFreeGroup:
    def test_reduction(self):
        a = F2.generator(1)
        assert F2.mul(a, F2.inv(a)) == F2.identity
        assert F2.word([1, -2, 2, 1]).data == (1, 1)

    def test_inverse_reverses_word(self):
        w = F2.word([1, -2])  # a b^-1
        assert F2.inv(w).data == (2, -1)  # b a^-1

    def test_ball_sizes_match_closed_form(self):
        # F_2 radius 2: 1 + 4 + 12 = 17
        assert len(F2.ball(2)) == 17
        for n in (1, 2, 3):
            g = FreeGroup(n)
            for radius in range(7):
                assert len(g.ball(radius)) == free_ball_size(n, radius)

    def test_ball_nesting_and_determinism(self):
        b2, b3 = F2.ball(2), F2.ball(3)
        assert b2 == b3[: len(b2)]
        assert b2 == F2.ball(2)
        # fixed letter order at radius 1: e, a, a^-1, b, b^-1
        assert [w.data for w in F2.ball(1)] == [(), (1,), (-1,), (2,), (-2,)]

    def test_ball_is_sorted_by_length_then_letters(self):
        # letter order: generator index first, positive before inverse
        for n in (1, 2, 3):
            words = [w.data for w in FreeGroup(n).ball(5)]
            assert len(set(words)) == len(words) == free_ball_size(n, 5)
            assert words == sorted(words, key=lambda w: (len(w), [(abs(l), l < 0) for l in w]))

    def test_walk_is_the_ball_read_lazily(self):
        for n in (1, 2, 3):
            g = FreeGroup(n)
            for radius in range(5):
                assert list(g.walk(radius)) == g.ball(radius)
        # a walk of radius 40 has about 3^40 words; reading five makes five
        assert [w.data for w in itertools.islice(F2.walk(40), 5)] == [(), (1,), (-1,), (2,), (-2,)]
        with pytest.raises(ValueError):
            F2.ball(-1)

    def test_positive_words(self):
        assert F2.is_positive(F2.word([1, 2]))
        assert not F2.is_positive(F2.word([1, -2]))
        assert not F2.is_positive(F2.identity)

    def test_word_length(self):
        assert F2.word_length(F2.identity) == 0
        assert F2.word_length(F2.word([1, -2, 1])) == 3

    @pytest.mark.parametrize("rank, radius", [(2, 3), (3, 2)])
    def test_mul_cancels_at_the_junction(self, rank, radius):
        """The product of reduced words, made by cancelling only where they
        meet, is the full reduction of their concatenation."""
        g = FreeGroup(rank)
        ball = g.ball(radius)
        for a in ball:
            for b in ball:
                assert g.mul(a, b) == Elem(g, _reduce_word(a.data + b.data))

    @given(words, words, words)
    @settings(max_examples=150)
    def test_associativity(self, a, b, c):
        assert F2.mul(F2.mul(a, b), c) == F2.mul(a, F2.mul(b, c))

    @given(words)
    def test_inverse_law(self, a):
        assert F2.mul(a, F2.inv(a)) == F2.identity
        assert F2.inv(F2.inv(a)) == a

    def test_is_positive_requires_free_context(self):
        with pytest.raises(AttributeError):
            Z.is_positive(Z.identity)  # lattice groups have no positivity


class TestLattice:
    def test_arithmetic(self):
        v, w = Z2.vector([1, 2]), Z2.vector([3, -1])
        assert Z2.mul(v, w) == Z2.vector([4, 1])
        assert Z.inv(Z.vector([5])) == Z.vector([-5])

    def test_ball(self):
        assert [v.data[0] for v in Z.ball(3)] == [0, -1, 1, -2, 2, -3, 3]
        assert len(Z.ball(3)) == 7
        # l1 ball in Z^2: 1 + 4 + 8 = 13 points at radius 2
        assert len(Z2.ball(2)) == 13

    def test_walk_is_the_ball(self):
        for g in (Z, Z2, cyclic_group(4)):
            assert list(g.walk(3)) == g.ball(3)

    @given(
        st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
        st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
    )
    def test_commutativity(self, x, y):
        a, b = Z2.vector(x), Z2.vector(y)
        assert Z2.mul(a, b) == Z2.mul(b, a)


def test_context_mismatch_raises():
    with pytest.raises(ContextMismatchError):
        F2.mul(F2.identity, Z.identity)
    with pytest.raises(ContextMismatchError):
        cyclic_group(3).inv(cyclic_group(4).elem(0))


def test_equal_groups_interoperate():
    assert cyclic_group(4).mul(cyclic_group(4).elem(3), cyclic_group(4).elem(2)).data == 1


def test_elem_parsing_round_trip():
    for g, e in [
        (F2, F2.word([1, -2, 1])),
        (Z2, Z2.vector([3, -4])),
        (S3, S3.elem(4)),
    ]:
        assert g.parse_elem(g.format_elem(e)) == e


class TestInterning:
    """A group is an interned value: one live object per value, compared
    and hashed by identity."""

    MAKERS = [
        lambda: FreeGroup(2),
        lambda: LatticeGroup(2),
        lambda: cyclic_group(4),
        lambda: symmetric_group(3),
        lambda: FiniteGroup([[0, 1], [1, 0]], label="pair"),
    ]

    @pytest.mark.parametrize("make", MAKERS, ids=["free", "lattice", "cyclic", "symmetric", "table"])
    def test_building_twice_gives_one_object(self, make):
        assert make() is make()

    def test_table_groups_are_keyed_by_table_and_label(self):
        g = FiniteGroup(((0, 1), (1, 0)), label="pair")
        assert FiniteGroup([[0, 1], [1, 0]], label="pair") is g
        assert FiniteGroup([[0, 1], [1, 0]], label="other") is not g
        assert FiniteGroup([[0, 1], [1, 0]], label="Z2") is cyclic_group(2)
        assert g.elem(1) != cyclic_group(2).elem(1)

    def test_groups_hash_by_identity(self):
        for g in (FreeGroup(2), LatticeGroup(1), cyclic_group(3)):
            assert type(g).__hash__ is object.__hash__
            assert type(g).__eq__ is object.__eq__

    @pytest.mark.parametrize(
        "make",
        [
            lambda: FreeGroup(0),
            lambda: LatticeGroup(0),
            lambda: FiniteGroup([[0, 1], [1]]),
            lambda: FiniteGroup([[1, 0], [1, 0]]),
            lambda: FiniteGroup([[0, 1], [1, 1]]),
            lambda: FiniteGroup([[0, 1, 2], [1, 2, 0], [2, 1, 1]]),
        ],
        ids=["rank", "dim", "not-square", "no-identity", "no-inverse", "not-latin"],
    )
    def test_invalid_values_raise_on_every_attempt(self, make):
        for _ in range(3):
            with pytest.raises(ValueError):
                make()

    @pytest.mark.parametrize("make", MAKERS, ids=["free", "lattice", "cyclic", "symmetric", "table"])
    def test_copies_and_pickles_are_the_live_group(self, make):
        g = make()
        a = g.ball(1)[-1]
        assert copy.copy(g) is g and copy.deepcopy(g) is g
        assert pickle.loads(pickle.dumps(g)) is g
        b = copy.deepcopy({a: 1})
        assert list(b) == [a] and next(iter(b)).group is g

    def test_unreferenced_groups_are_dropped(self):
        ref = weakref.ref(FreeGroup(11))
        gc.collect()
        assert ref() is None
        assert FreeGroup(11).rank == 11


class TestElementKeys:
    def test_equal_groups_give_one_key(self):
        """Built twice, a group is one object, so equal data gives equal
        elements and one dict key."""
        for make, data in [(lambda: FreeGroup(2), (1, -2)), (lambda: cyclic_group(3), 2)]:
            g, h = make(), make()
            assert g is h
            a, b = Elem(g, data), Elem(h, data)
            assert a is not b
            assert a == b and hash(a) == hash(b)
            keys = {a: "first"}
            keys[b] = "second"
            assert keys == {a: "second"}

    def test_equal_data_in_other_groups_differ(self):
        assert LatticeGroup(1).vector([1]) != FreeGroup(1).word([1])
        assert len({LatticeGroup(1).vector([1]), FreeGroup(1).word([1])}) == 2
        assert cyclic_group(3).elem(1) != cyclic_group(4).elem(1)
        assert len({cyclic_group(3).elem(1), cyclic_group(4).elem(1)}) == 2

    def test_check_and_repr(self):
        with pytest.raises(ContextMismatchError):
            FreeGroup(2).check(LatticeGroup(1).identity)
        with pytest.raises(ContextMismatchError):
            cyclic_group(3).check(cyclic_group(4).elem(0))
        FreeGroup(2).check(F2.word([1]))
        assert repr(F2.word([1, -2])) == "Elem(F2:1 -2)"
        assert repr(Z2.vector([3, -4])) == "Elem(Z^2:3,-4)"
        assert repr(S3.elem(4)) == "Elem(S3:4)"
        assert repr(F2.identity) == "Elem(F2:e)"

    def test_value_reprs(self):
        assert repr(FreeGroup(2)) == "FreeGroup(2)"
        assert repr(LatticeGroup(1)) == "LatticeGroup(1)"
        assert repr(cyclic_group(3)) == "FiniteGroup('Z3', order=3)"
        assert repr(symmetric_group(3)) == "FiniteGroup('S3', order=6)"


class TestOwnershipFastPath:
    """``mul`` and ``inv`` check an element only when its group is not the
    one called: a group built again is the same object and skips the check,
    a foreign one is checked and raises."""

    @pytest.mark.parametrize(
        "make, other",
        [
            (lambda: cyclic_group(4), lambda: cyclic_group(5)),
            (lambda: LatticeGroup(2), lambda: LatticeGroup(3)),
            (lambda: FreeGroup(2), lambda: FreeGroup(3)),
        ],
        ids=["finite", "lattice", "free"],
    )
    def test_own_elements_skip_check(self, make, other, monkeypatch):
        g = make()
        a, b = g.ball(1)[1], make().ball(1)[-1]
        checked = []
        monkeypatch.setattr(type(g), "check", lambda self, x: checked.append(x))
        g.mul(a, b)
        g.inv(b)
        assert checked == []
        foreign = other().ball(1)[1]
        g.mul(a, foreign)
        g.inv(foreign)
        assert checked == [a, foreign, foreign]

    def test_foreign_elements_raise(self):
        for g, other in [
            (cyclic_group(3), cyclic_group(4).elem(0)),
            (LatticeGroup(1), LatticeGroup(2).identity),
            (FreeGroup(2), FreeGroup(3).identity),
        ]:
            with pytest.raises(ContextMismatchError):
                g.mul(g.identity, other)
            with pytest.raises(ContextMismatchError):
                g.mul(other, g.identity)
            with pytest.raises(ContextMismatchError):
                g.inv(other)


class TestStoredElements:
    """A finite group makes its elements once; every method hands out the
    stored objects, also for equal elements made outside the group."""

    @pytest.mark.parametrize("make", [lambda: cyclic_group(6), lambda: symmetric_group(3)])
    def test_methods_return_stored_elements(self, make):
        g = make()
        els = g.elements()
        assert [e.data for e in els] == list(range(g.order))
        assert g.identity is els[g.identity.data]
        assert all(x is y for x, y in zip(g.elements(), els))
        assert all(x is y for x, y in zip(g.ball(2), els))
        for a in els:
            assert g.elem(a.data) is a
            assert g.inv(a) is els[g.inv(a).data]
            assert all(g.mul(a, b) is els[g.table[a.data][b.data]] for b in els)
        assert make().elem(1) is els[1]
        a, b = Elem(g, 1), Elem(g, g.order - 1)
        assert a is not els[1] and a == els[1]
        assert g.mul(a, b) is els[g.table[1][g.order - 1]]
        assert g.inv(a) is els[g.inv(els[1]).data]

    def test_elements_is_a_fresh_list(self):
        g = cyclic_group(3)
        g.elements().clear()
        assert len(g.elements()) == 3
