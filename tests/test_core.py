import pytest
from hypothesis import given, strategies as st

from atomlat.core import (
    Atom,
    Duple,
    Signature,
    Term,
    canonical_key,
    pinning,
    zero_atom,
)
from atomlat.errors import (
    DuplicateConstant,
    EmptySignature,
    InvalidConstantName,
    UnknownConstant,
    ZeroAtomHasNoPinningTerm,
)

ABCDE = Signature.of("a b c d e")

masks = st.integers(min_value=1, max_value=(1 << 5) - 1)


def test_signature_round_trips_names():
    assert ABCDE.names == ("a", "b", "c", "d", "e")
    assert Signature.of(["x1", "y"]).names == ("x1", "y")
    assert ABCDE.index_of("c") == 2
    assert ABCDE.full_mask == 0b11111


def test_signature_rejects_bad_input():
    with pytest.raises(EmptySignature):
        Signature.of("")
    with pytest.raises(DuplicateConstant):
        Signature.of("a b a")
    with pytest.raises(InvalidConstantName):
        Signature.of(["a", "b c"])
    with pytest.raises(InvalidConstantName):
        Signature.of(["a", ""])
    with pytest.raises(UnknownConstant):
        ABCDE.index_of("q")
    # primes are legal here: the join construction mints primed copies
    # internally, so only the script layer rejects them in user input
    assert Signature.of(["a", "a'"]).names == ("a", "a'")


def test_atom_and_term_require_a_member():
    with pytest.raises(ValueError):
        Atom(0)
    with pytest.raises(ValueError):
        Term(0)


def test_atom_accessors():
    phi = ABCDE.atom("b c")
    assert phi.mask == 0b00110
    assert phi.indices() == (1, 2)
    assert phi.names(ABCDE) == ("b", "c")
    assert len(phi) == 2


def test_term_join_is_componentwise_union():
    t = ABCDE.term("a b").join(ABCDE.term("b d"))
    assert t == ABCDE.term("a b d")


def test_duple_signing():
    r = Duple(ABCDE.term("b"), ABCDE.term("a d"))
    assert r.signed(True).duple == r
    assert r.signed(False).positive is False


def test_atom_union_golden():
    assert ABCDE.atom("a b").union(ABCDE.atom("b c")) == ABCDE.atom("a b c")
    assert ABCDE.atom("a").union(ABCDE.atom("a")) == ABCDE.atom("a")


def test_is_wider_golden():
    assert ABCDE.atom("a b c").wider_than(ABCDE.atom("a c"))
    assert not ABCDE.atom("a c").wider_than(ABCDE.atom("a c"))
    assert not ABCDE.atom("a b").wider_than(ABCDE.atom("c"))


def test_zero_atom_spans_signature():
    assert zero_atom(ABCDE).mask == ABCDE.full_mask
    assert zero_atom(Signature.of("x")).mask == 0b1


def test_canonical_key_orders_lexicographically():
    atoms = [ABCDE.atom("c"), ABCDE.atom("a b c"), ABCDE.atom("a"), ABCDE.atom("b")]
    atoms.sort(key=canonical_key)
    assert [a.names(ABCDE) for a in atoms] == [
        ("a",),
        ("a", "b", "c"),
        ("b",),
        ("c",),
    ]


def test_pinning_golden():
    term, sentences = pinning(ABCDE.atom("b e"), ABCDE)
    assert term == ABCDE.term("a c d")
    assert [s.positive for s in sentences] == [False, False]
    assert {s.left for s in sentences} == {ABCDE.term("b"), ABCDE.term("e")}
    assert all(s.right == term for s in sentences)


def test_pinning_rejects_zero_atom():
    with pytest.raises(ZeroAtomHasNoPinningTerm):
        pinning(zero_atom(ABCDE), ABCDE)


@given(masks, masks)
def test_union_is_commutative(x, y):
    assert Atom(x).union(Atom(y)) == Atom(y).union(Atom(x))


@given(masks, masks, masks)
def test_union_is_associative(x, y, z):
    a, b, c = Atom(x), Atom(y), Atom(z)
    assert a.union(b).union(c) == a.union(b.union(c))


@given(masks)
def test_union_is_idempotent(x):
    assert Atom(x).union(Atom(x)) == Atom(x)


@given(masks, masks)
def test_wider_is_strict(x, y):
    a, b = Atom(x), Atom(y)
    if a.wider_than(b):
        assert not b.wider_than(a)
        assert a != b


@given(masks, masks, masks)
def test_wider_is_transitive(x, y, z):
    a, b, c = Atom(x), Atom(y), Atom(z)
    if a.wider_than(b) and b.wider_than(c):
        assert a.wider_than(c)


@given(masks, masks)
def test_wider_or_equal_means_union_absorbs(x, y):
    a, b = Atom(x), Atom(y)
    absorbs = a.union(b) == a
    assert absorbs == (a == b or a.wider_than(b))
