import pytest

from atomlat.core import (
    Atom,
    Signature,
    Term,
    _in_order,
    canonical_key,
    canonical_masks,
    canonical_terms,
    pinning,
    zero_atom,
)
from atomlat.errors import (
    DuplicateConstant,
    EmptySignature,
    InvalidConstantName,
    SignatureMismatch,
    UnknownConstant,
    ZeroAtomHasNoPinningTerm,
)

from conftest import ODD_NAMES, seeded

ABCDE = Signature.of("a b c d e")


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
    with pytest.raises(InvalidConstantName):
        Signature.of(["a", 1])
    # a non-string name fails the same way in a lookup as in a signature
    with pytest.raises(InvalidConstantName):
        ABCDE.atom(["a", 1])
    with pytest.raises(InvalidConstantName):
        ABCDE.term([["a"]])
    assert 1 not in ABCDE and ["a"] not in ABCDE
    with pytest.raises(UnknownConstant):
        ABCDE.index_of("q")
    # primes are legal here: the join construction mints primed copies
    # internally, so only the script layer rejects them in user input
    assert Signature.of(["a", "a'"]).names == ("a", "a'")


def test_mask_of_names_splits_strings_on_whitespace_only():
    ab = Signature.of("a b")
    assert ab.mask_of_names("a b") == ab.mask_of_names(["a", "b"]) == 0b11
    assert ab.mask_of_names("") == 0
    # a string is split on whitespace, never into characters, and a list
    # element is a name as it stands, here one that no signature may declare
    for names, error, name in [("ab", UnknownConstant, "ab"),
                               (["a b"], InvalidConstantName, "a b")]:
        with pytest.raises(error) as info:
            ab.mask_of_names(names)
        assert info.value.name == name
    with pytest.raises(InvalidConstantName):
        ab.index_of("a b")


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


def test_zero_atom_spans_signature():
    assert zero_atom(ABCDE).mask == ABCDE.full_mask
    assert zero_atom(Signature.of("x")).mask == 0b1


def test_canonical_key_orders_lexicographically():
    atoms = [ABCDE.atom("c"), ABCDE.atom("a b c"), ABCDE.atom("a"), ABCDE.atom("b")]
    atoms.sort(key=lambda a: canonical_key(a.mask))
    assert [a.names(ABCDE) for a in atoms] == [
        ("a",),
        ("a", "b", "c"),
        ("b",),
        ("c",),
    ]


def masks_with_prefixes(rng, bits):
    """Distinct masks below ``1 << bits``, with some of their low parts, which
    are prefixes of their index lists."""
    masks = {rng.randrange(1, 1 << bits) for _ in range(rng.randint(1, 12))}
    for mask in list(masks):
        if rng.random() < 0.5:
            masks.add(mask & ((1 << rng.randint(1, mask.bit_length())) - 1) or mask)
    return list(masks)


def test_order_check_matches_the_canonical_sort():
    rng = seeded(2601)
    for _ in range(20000):
        ordered = [a.mask for a in sorted(
            map(Atom, masks_with_prefixes(rng, rng.randint(1, 70))),
            key=lambda a: canonical_key(a.mask))]
        cases = [ordered, rng.sample(ordered, len(ordered))]
        if len(ordered) > 1:
            k = rng.randrange(len(ordered) - 1)
            swapped = ordered[:]
            swapped[k], swapped[k + 1] = swapped[k + 1], swapped[k]
            cases.append(swapped)
        for case in cases:
            assert _in_order(case) == (case == ordered)
            assert canonical_masks(case + case[: rng.randint(0, len(case))]) == tuple(ordered)


@pytest.mark.parametrize("n", range(1, 11))
def test_canonical_terms_walk_is_the_sorted_canonical_order(n):
    sig = Signature(ODD_NAMES[:n])
    expected = sorted(map(Term, range(1, 2**n)), key=lambda t: canonical_key(t.mask))
    walk = list(canonical_terms(sig))
    assert [mask for mask, _ in walk] == [t.mask for t in expected]
    assert [label for _, label in walk] == [t.label(sig) for t in expected]


def test_pinning_golden():
    phi = ABCDE.atom("b e")
    term, sentences = pinning(phi, ABCDE)
    assert term == ABCDE.term("a c d")
    assert all(s.left.mask & phi.mask and not s.right.mask & phi.mask for s in sentences)
    assert {s.left for s in sentences} == {ABCDE.term("b"), ABCDE.term("e")}
    assert all(s.right == term for s in sentences)


def test_pinning_rejects_zero_atom():
    with pytest.raises(ZeroAtomHasNoPinningTerm):
        pinning(zero_atom(ABCDE), ABCDE)
    with pytest.raises(SignatureMismatch):
        pinning(Atom(0b100), Signature.of("a b"))
