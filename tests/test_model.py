import io
import json

import pytest
from hypothesis import given, strategies as st

from atomlat.algebra import RenameMap, map_atoms, rename
from atomlat.core import Atom, Duple, Signature, Term, pinning, zero_atom
from atomlat.errors import CapExceeded, CoverageRepairWarning, SignatureMismatch
from atomlat.model import (
    AtomColumns,
    Model,
    enumerate_elements,
    enumerate_theory,
    holds,
    is_freer,
    is_redundant,
    new_model,
    reduce,
    segment_signatures,
    union_model,
)

from atomlat.crossing import freest_model
from atomlat.script import format_duple, parse_script, run_script
from atomlat.serialize import model_from_json

from conftest import (
    atom_names,
    covered_masks,
    discriminant,
    elements_by_segments,
    lower_atomic_segment,
    mk,
    random_duple,
    random_model,
    random_term,
    seeded,
    sig_of_size,
)

ABCDE = Signature.of("a b c d e")

# The running five-constant example used across the golden tests:
# atoms a | ab | cde | be | c | d.
CROSS_SOURCE = mk("a b c d e", "a", "a b", "c d e", "b e", "c", "d")


def test_new_model_deduplicates():
    sig = Signature.of("a b")
    m = new_model(sig, [sig.atom("a"), sig.atom("b"), sig.atom("a")])
    assert atom_names(m) == {("a",), ("b",)}


def test_new_model_repairs_uncovered_constant():
    sig = Signature.of("a b")
    with pytest.warns(CoverageRepairWarning):
        m = new_model(sig, [sig.atom("a")])
    assert atom_names(m) == {("a",), ("a", "b")}


def test_new_model_empty_atom_set_gets_zero_atom():
    sig = Signature.of("a b c")
    with pytest.warns(CoverageRepairWarning):
        m = new_model(sig, [])
    assert atom_names(m) == {("a", "b", "c")}


def test_coverage_repair_warning_points_at_the_caller():
    # every entry point that can repair coverage reports the caller's line,
    # not a line inside the package
    sig = Signature.of("a b")
    model = mk("a b", "a", "b")
    entry_points = {
        "new_model": lambda: new_model(sig, [sig.atom("a")]),
        "model_from_json": lambda: model_from_json('{"constants": ["a", "b"], "atoms": [["a"]]}'),
        "map_atoms": lambda: map_atoms(model, [0b1, 0b0], sig),
        "rename": lambda: rename(model, RenameMap.of({"a": ["a"], "b": []}, "a b")),
        "run_script": lambda: run_script(parse_script("constants a b\natom a\n")),
    }
    for name, call in entry_points.items():
        with pytest.warns(CoverageRepairWarning) as caught:
            call()
        assert [w.filename for w in caught] == [__file__], name


def test_new_model_rejects_foreign_masks():
    sig = Signature.of("a b")
    message = r"^atom \(2,\) uses constants outside the signature$"
    with pytest.raises(SignatureMismatch, match=message):
        new_model(sig, [Atom(0b100)])
    # a repeated valid atom first, then two foreign ones: the first is named
    with pytest.raises(SignatureMismatch, match=message):
        new_model(sig, [Atom(0b01), Atom(0b11), Atom(0b01), Atom(0b100), Atom(0b1000)])


def test_new_model_dedupes_orders_and_repairs_masks():
    sig = Signature.of("a b c")
    given = [sig.atom("c"), sig.atom("a b"), sig.atom("c")]
    model = new_model(sig, given)
    assert model.masks == (0b011, 0b100)
    assert model.atoms == (Atom(0b011), Atom(0b100))
    assert [atom.mask for atom in given] == [0b100, 0b011, 0b100]
    with pytest.warns(CoverageRepairWarning):
        repaired = new_model(sig, given[:1])
    assert repaired.masks == (0b111, 0b100)
    assert repaired.atoms == (Atom(0b111), Atom(0b100))


def test_atoms_are_a_view_of_the_masks():
    rng = seeded(2604)
    for _ in range(100):
        m = random_model(rng, "a b c d e")
        for model in (m, reduce(m), freest_model(m.sig, [random_duple(rng, 5)])):
            assert model.atoms == tuple(map(Atom, model.masks))
            shuffled = rng.sample(model.atoms, len(model.atoms))
            assert new_model(model.sig, shuffled) == model
            assert hash(new_model(model.sig, shuffled)) == hash(model)
    assert mk("a b", "a", "b") != mk("b a", "a", "b")


def assert_holds_follows_segments(m, t):
    """``holds(m, s <= t)`` exactly when the segment of s lies in that of t."""
    seg = set(lower_atomic_segment(m, t))
    for s in range(1, m.sig.full_mask + 1):
        assert holds(m, Duple(Term(s), t)) == (set(lower_atomic_segment(m, Term(s))) <= seg)


def test_segment_golden():
    seg = lower_atomic_segment(CROSS_SOURCE, ABCDE.term("a d"))
    assert {a.names(ABCDE) for a in seg} == {
        ("a",),
        ("a", "b"),
        ("c", "d", "e"),
        ("d",),
    }
    assert_holds_follows_segments(CROSS_SOURCE, ABCDE.term("a d"))


def test_segment_of_full_term_is_everything():
    seg = lower_atomic_segment(CROSS_SOURCE, ABCDE.term("a b c d e"))
    assert set(seg) == set(CROSS_SOURCE.atoms)
    assert_holds_follows_segments(CROSS_SOURCE, ABCDE.term("a b c d e"))


def test_segment_small_hand_case():
    m = mk("a b c", "c", "a b c")
    seg = lower_atomic_segment(m, m.sig.term("b"))
    assert {a.names(m.sig) for a in seg} == {("a", "b", "c")}
    assert_holds_follows_segments(m, m.sig.term("b"))


def test_discriminant_golden():
    dis = discriminant(CROSS_SOURCE, ABCDE.term("b"), ABCDE.term("a d"))
    assert {a.names(ABCDE) for a in dis} == {("b", "e")}
    assert not holds(CROSS_SOURCE, Duple(ABCDE.term("b"), ABCDE.term("a d")))


def test_discriminant_reflexive_is_empty():
    t = ABCDE.term("b c")
    assert discriminant(CROSS_SOURCE, t, t) == ()
    assert holds(CROSS_SOURCE, Duple(t, t))


def test_discriminant_hand_case():
    m = mk("a b c", "a", "b", "c")
    dis = discriminant(m, m.sig.term("a b"), m.sig.term("c"))
    assert {a.names(m.sig) for a in dis} == {("a",), ("b",)}
    assert not holds(m, Duple(m.sig.term("a b"), m.sig.term("c")))


def test_holds_golden():
    d = Duple(ABCDE.term("b"), ABCDE.term("a d"))
    assert not holds(CROSS_SOURCE, d)


def test_holds_reflexive():
    t = ABCDE.term("a c")
    assert holds(CROSS_SOURCE, Duple(t, t))


def test_holds_collapsed_pair():
    m = mk("a b c", "c", "a b c")
    a, b = m.sig.term("a"), m.sig.term("b")
    assert holds(m, Duple(a, b))
    assert holds(m, Duple(b, a))


def test_holds_and_discriminant_reject_foreign_constants():
    m = mk("a b", "a", "b")
    foreign = Duple(Term(0b100), Term(0b01))
    with pytest.raises(SignatureMismatch):
        holds(m, foreign)
    with pytest.raises(SignatureMismatch):
        holds(m, Duple(Term(0b01), Term(0b100)))


def test_is_redundant_golden():
    crossed = mk(
        "a b c d e", "a", "a b", "c d e", "c", "d", "a b e", "b c d e", "b d e"
    )
    assert is_redundant(crossed, ABCDE.atom("b c d e"))


def test_singleton_atom_never_redundant():
    assert not is_redundant(CROSS_SOURCE, ABCDE.atom("a"))


def test_is_redundant_union_of_singletons():
    m = mk("a b c", "a", "b", "c")
    assert is_redundant(m, m.sig.atom("a b c"))


def test_reduce_golden():
    crossed = mk(
        "a b c d e", "a", "a b", "c d e", "c", "d", "a b e", "b c d e", "b d e"
    )
    assert atom_names(reduce(crossed)) == {
        ("a",),
        ("a", "b"),
        ("c", "d", "e"),
        ("c",),
        ("d",),
        ("a", "b", "e"),
        ("b", "d", "e"),
    }


def test_reduce_drops_covered_zero():
    m = mk("a b c", "a", "b", "c", "a b c")
    assert atom_names(reduce(m)) == {("a",), ("b",), ("c",)}


def test_reduce_keeps_lone_zero():
    m = mk("a b c", "a b c")
    assert reduce(m) == m


def test_reduce_is_idempotent_on_randoms():
    rng = seeded(11)
    for _ in range(50):
        m = random_model(rng, "a b c d")
        once = reduce(m)
        assert reduce(once) == once


def test_reduce_preserves_theory_on_randoms():
    rng = seeded(12)
    for _ in range(50):
        m = random_model(rng, "a b c d")
        assert enumerate_theory(reduce(m)) == enumerate_theory(m)


def test_zero_atom_never_changes_theory():
    rng = seeded(13)
    for _ in range(50):
        m = random_model(rng, "a b c d")
        padded = Model(m.sig, tuple(a.mask for a in sorted(
            set(m.atoms) | {zero_atom(m.sig)},
            key=lambda a: tuple(a.indices()),
        )))
        assert enumerate_theory(padded) == enumerate_theory(m)


def test_union_model_golden():
    a = mk("a b c d e", "c", "a b c")
    b = mk("a b c d e", "c d e")
    u = union_model(a, b)
    assert atom_names(u) == {("c",), ("a", "b", "c"), ("c", "d", "e")}


def test_union_model_is_idempotent():
    u = union_model(CROSS_SOURCE, CROSS_SOURCE)
    assert u == CROSS_SOURCE


def test_union_of_singleton_models_is_free():
    a = mk("a b", "a")
    b = mk("a b", "b")
    assert atom_names(union_model(a, b)) == {("a",), ("b",)}


def test_union_model_signature_mismatch():
    with pytest.raises(SignatureMismatch):
        union_model(mk("a b", "a", "b"), mk("a c", "a", "c"))


def test_union_negative_theory_is_union_of_negatives():
    rng = seeded(14)
    for _ in range(30):
        a = random_model(rng, "a b c")
        b = random_model(rng, "a b c")
        # a pair is negative where it is negative in either operand, that
        # is, positive where both rows hold it
        rows = enumerate_theory(union_model(a, b)).rows
        both = [x & y for x, y in zip(enumerate_theory(a).rows, enumerate_theory(b).rows)]
        assert list(rows) == both


def test_is_freer_golden():
    free3 = mk("a b c", "a", "b", "c")
    chain = mk("a b c", "c", "a b c")
    assert is_freer(free3, chain)
    assert not is_freer(chain, free3)


def test_is_freer_reflexive():
    assert is_freer(CROSS_SOURCE, CROSS_SOURCE)


def test_is_freer_two_constants():
    free = mk("a b", "a", "b")
    glued = mk("a b", "a b")
    assert is_freer(free, glued)
    assert not is_freer(glued, free)


def test_is_freer_matches_negative_theory_inclusion():
    rng = seeded(15)
    for _ in range(40):
        a = random_model(rng, "a b c")
        b = random_model(rng, "a b c")
        by_atoms = is_freer(a, b)
        # the negatives of b lie among those of a: a's positives among b's
        by_theory = set(enumerate_theory(a)) <= set(enumerate_theory(b))
        assert by_atoms == by_theory


def hand_built(rng, n, max_atoms):
    """Atoms over a random lower part of the constants, possibly repeated,
    so that the top constants may stay uncovered; sometimes no atoms."""
    top = rng.randint(1, n)
    atoms = [Atom(rng.randrange(1, 1 << top)) for _ in range(rng.randint(0, max_atoms))]
    return Model(Signature(tuple(f"c{i}" for i in range(n))), tuple(a.mask for a in atoms))


def test_is_freer_matches_pairwise_definition():
    rng = seeded(17)
    for _ in range(500):
        n = rng.randint(1, 7)
        a, b = hand_built(rng, n, 10), hand_built(rng, n, 6)
        if rng.random() < 0.3:
            b = Model(b.sig, b.masks + a.masks[: rng.randint(0, len(a.masks))])
        pairwise = all(
            phi.mask == sum_masks(eta for eta in a.atoms if eta.mask & ~phi.mask == 0)
            for phi in b.atoms
        )
        assert is_freer(a, b) == pairwise


def sum_masks(atoms):
    out = 0
    for atom in atoms:
        out |= atom.mask
    return out


def test_segment_signatures_on_hand_built_models():
    # one segment per requested term mask, in the order asked, repeats included
    rng = seeded(18)
    for _ in range(300):
        n = rng.randint(1, 7)
        m = hand_built(rng, n, 10)
        terms = list(range(1, 1 << n)) + rng.choices(range(1, 1 << n), k=rng.randint(1, 5))
        rng.shuffle(terms)
        segs = segment_signatures(m, terms)
        assert len(segs) == len(terms)
        for t, seg in zip(terms, segs):
            assert seg == sum(1 << k for k, x in enumerate(m.atoms) if x.mask & t)


def test_enumerate_elements_free_pair():
    m = mk("a b", "a", "b")
    classes = enumerate_elements(m)
    assert [c.representative for c in classes] == [
        m.sig.term("a"),
        m.sig.term("a b"),
        m.sig.term("b"),
    ]
    assert all(len(c.terms) == 1 for c in classes)


def test_enumerate_elements_total_collapse():
    m = mk("a b", "a b")
    classes = enumerate_elements(m)
    assert len(classes) == 1
    assert set(classes[0].terms) == {
        m.sig.term("a"),
        m.sig.term("b"),
        m.sig.term("a b"),
    }


def test_enumerate_elements_chain():
    m = mk("a b c", "c", "a b c")
    classes = enumerate_elements(m)
    assert len(classes) == 2
    bottoms = [c for c in classes if len(c.terms) == 3]
    assert len(bottoms) == 1
    assert set(bottoms[0].terms) == {
        m.sig.term("a"),
        m.sig.term("b"),
        m.sig.term("a b"),
    }


def element_lines(model):
    sig = model.sig
    return [
        f"element {c.representative.label(sig)} {{ {', '.join(t.label(sig) for t in c.terms)} }}"
        for c in elements_by_segments(model)
    ]


def test_elements_and_theory_match_the_segment_grouping():
    # reduced and unreduced builds from free and declared starts, and
    # hand-built models with repeated atoms or uncovered constants
    rng = seeded(22)
    for k in range(36):
        n = rng.randint(1, 8)
        sig = Signature(tuple(f"c{i}" for i in range(n)))
        declared = random_model(rng, " ".join(sig.names)) if k % 3 == 0 else None
        duples = [random_duple(rng, n) for _ in range(rng.randint(0, 2 * n))]
        text = "".join(
            [f"constants {' '.join(sig.names)}\n"]
            + [f"atom {atom.label(sig)}\n" for atom in (declared.atoms if declared else ())]
            + ["show elements\n"]
            + [f"assert {format_duple(sig, d)}\n" for d in duples]
            + ["show elements\n"]
        )
        out = io.StringIO()
        policy = ("after_each", "never")[k % 2]
        model, _ = run_script(parse_script(text), policy, emit=out.write)
        start = declared or freest_model(sig)
        assert out.getvalue().splitlines() == element_lines(start) + element_lines(model)
        for m in (start, model, hand_built(rng, n, 10)):
            assert enumerate_elements(m) == elements_by_segments(m)
            rows = enumerate_theory(m).rows
            terms = [Term(t) for t in range(1, sig.full_mask + 1)]
            for s in terms:
                assert rows[s.mask] == sum(1 << t.mask for t in terms if holds(m, Duple(s, t)))


def test_enumerate_theory_free_pair_is_containment():
    m = mk("a b", "a", "b")
    th = enumerate_theory(m)
    for d in th:
        assert d.left.mask | d.right.mask == d.right.mask
    for s in range(1, 4):
        for t in range(1, 4):
            if Duple(Term(s), Term(t)) not in th:
                assert s | t != t


def test_enumerate_theory_one_element_model():
    m = mk("a b", "a b")
    th = enumerate_theory(m)
    assert len(th) == 9
    assert all(Duple(Term(s), Term(t)) in th for s in range(1, 4) for t in range(1, 4))


def test_enumerate_theory_golden_negative():
    th = enumerate_theory(CROSS_SOURCE)
    assert Duple(ABCDE.term("b"), ABCDE.term("a d")) not in th


def test_enumeration_cap():
    sig = Signature.of(" ".join(f"c{i}" for i in range(11)))
    m = new_model(sig, [sig.atom(f"c{i}") for i in range(11)])
    with pytest.raises(CapExceeded):
        enumerate_elements(m)
    with pytest.raises(CapExceeded):
        enumerate_theory(m)
    assert len(enumerate_elements(m, cap=11)) == 2**11 - 1


def test_segment_linearity_on_randoms():
    rng = seeded(16)
    for _ in range(40):
        m = random_model(rng, "a b c d")
        full = m.sig.full_mask
        for s in range(1, full + 1):
            for t in range(1, full + 1):
                joined = set(lower_atomic_segment(m, Term(s | t)))
                split = set(lower_atomic_segment(m, Term(s)))
                split |= set(lower_atomic_segment(m, Term(t)))
                assert joined == split


def test_holds_matches_theory_and_discriminant_on_randoms():
    rng = seeded(19)
    for n in range(1, 5):
        for _ in range(30):
            m = random_model(rng, " ".join(f"c{i}" for i in range(n)))
            theory = enumerate_theory(m)
            for s in range(1, m.sig.full_mask + 1):
                for t in range(1, m.sig.full_mask + 1):
                    d = Duple(Term(s), Term(t))
                    assert holds(m, d) == (d in theory) == (not discriminant(m, d.left, d.right))


def test_pinning_discriminates_only_nonredundant_atom():
    rng = seeded(17)
    for _ in range(40):
        m = reduce(random_model(rng, "a b c d"))
        for atom in m.atoms:
            if atom == zero_atom(m.sig):
                continue
            term, _ = pinning(atom, m.sig)
            hit = False
            for c in atom.indices():
                dis = discriminant(m, Term(1 << c), term)
                if dis == (atom,):
                    hit = True
                    break
            assert hit, (m, atom)


def test_model_json_round_trip():
    from atomlat.serialize import model_from_json, model_to_json

    rng = seeded(18)
    for _ in range(25):
        m = random_model(rng, "a b c d e")
        again = model_from_json(model_to_json(m))
        assert again == m


def test_model_json_shape():
    from atomlat.serialize import model_to_dict

    doc = model_to_dict(mk("a b", "a", "a b"))
    assert doc == {"constants": ["a", "b"], "atoms": [["a"], ["a", "b"]]}
    assert json.dumps(doc)


def reference_reduce(model):
    return Model(model.sig, tuple(a.mask for a in model.atoms if not is_redundant(model, a)))


def test_reduce_matches_pairwise_definition_on_random_unreduced_models():
    rng = seeded(2026)
    for _ in range(1000):
        n = rng.randint(1, 10)
        sig = sig_of_size(n)
        masks = sorted(covered_masks(rng, n, rng.randint(1, 4 * n)))
        m = new_model(sig, map(Atom, masks))
        assert reduce(m) == reference_reduce(m)
        # Models built directly may repeat an atom; a copy is no witness.
        doubled = Model(sig, m.masks + m.masks[: rng.randint(0, len(m.masks))])
        assert reduce(doubled) == reference_reduce(doubled)


def test_live_columns_match_a_fresh_index():
    rng = seeded(2030)
    compacted = 0
    for _ in range(300):
        n = rng.randint(1, 12)
        live = sorted(covered_masks(rng, n, rng.randint(1, 3 * n)))
        index = AtomColumns(live, n)
        for _ in range(rng.randint(1, 12)):
            if live and rng.random() < 0.5:
                gone = rng.sample(live, rng.randint(1, len(live)))
                positions = 0
                for mask in gone:
                    positions |= 1 << index.position[mask]
                slots = len(index.masks)
                index.drop(positions)
                compacted += len(index.masks) < slots
                live = [mask for mask in live if mask not in gone]
            else:
                fresh = list(covered_masks(rng, n, rng.randint(1, n)) - set(live))
                index.extend(fresh)
                live += fresh
            fresh_index = AtomColumns(live, n)
            assert sorted(index.masks_at(index.live)) == sorted(live)
            assert {m: index.masks[p] for m, p in index.position.items()} == {m: m for m in live}
            for term in (random_term(rng, n).mask for _ in range(4)):
                assert sorted(index.masks_at(index.meeting(term))) == sorted(
                    fresh_index.masks_at(fresh_index.meeting(term))
                )
            probes = live + [random_term(rng, n, n).mask for _ in range(4)]
            assert [index.redundant(x) for x in probes] == [
                fresh_index.redundant(x) for x in probes
            ]
    assert compacted >= 100

