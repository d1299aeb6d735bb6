import pytest

from atomlat.core import Atom, Duple, Signature, Term
from atomlat.crossing import freest_model
from atomlat.errors import CapExceeded, SignatureMismatch
from atomlat.model import Model, enumerate_elements, enumerate_theory, new_model
from atomlat.oracle import (
    axiom_check,
    closure_oracle,
    congruence_oracle,
)

from conftest import deductive_closure, duple, mk, random_duple, random_term, seeded


def containment_order(n):
    full = (1 << n) - 1
    return frozenset(
        Duple(Term(s), Term(t))
        for s in range(1, full + 1)
        for t in range(1, full + 1)
        if s | t == t
    )


def test_closure_of_nothing_is_containment():
    for n in (1, 2, 3, 4):
        sig = Signature.of(" ".join(f"c{i}" for i in range(n)))
        assert set(closure_oracle(sig, [])) == containment_order(n)


def test_closure_single_relation_frozen_by_hand():
    # Over {a, b} with a <= b the seven consequences, written as masks
    # (a=1, b=2, ab=3), are worked out by hand once and pinned here.
    sig = Signature.of("a b")
    rel = closure_oracle(sig, [duple(sig, "a", "b")])
    expected = {
        (1, 1),
        (2, 2),
        (3, 3),
        (1, 3),
        (2, 3),
        (1, 2),
        (3, 2),  # a <= b forces a + b <= b by monotonicity
    }
    assert {(d.left.mask, d.right.mask) for d in rel} == expected


def test_closure_applies_transitivity_and_monotonicity():
    sig = Signature.of("a b c")
    rel = closure_oracle(sig, [duple(sig, "a", "b"), duple(sig, "b", "c")])
    assert duple(sig, "a", "c") in rel
    assert duple(sig, "a c", "b c") in rel
    assert duple(sig, "a b", "c") in rel
    assert duple(sig, "b", "a") not in rel


def test_closure_is_monotone_in_positives():
    rng = seeded(31)
    for _ in range(30):
        n = rng.randint(2, 4)
        sig = Signature.of(" ".join(f"c{i}" for i in range(n)))
        smaller = [random_duple(rng, n) for _ in range(rng.randint(0, 3))]
        extra = [random_duple(rng, n) for _ in range(rng.randint(1, 3))]
        assert set(closure_oracle(sig, smaller)) <= set(closure_oracle(sig, smaller + extra))


def test_closure_fixed_point_under_its_own_rules():
    # Re-applying both derivation rules to the reported relation must add
    # nothing; this guards against a bounded-pass implementation.
    rng = seeded(32)
    for _ in range(20):
        n = rng.randint(2, 4)
        sig = Signature.of(" ".join(f"c{i}" for i in range(n)))
        rel = closure_oracle(sig, [random_duple(rng, n) for _ in range(3)])
        pairs = {(d.left.mask, d.right.mask) for d in rel}
        full = (1 << n) - 1
        for s, t in list(pairs):
            for x, y in list(pairs):
                if t == x:
                    assert (s, y) in pairs
            for u in range(1, full + 1):
                assert (s | u, t | u) in pairs


def test_closure_matches_the_deductive_closure():
    # The implication closure against the transitive, join-monotone fixed
    # point it replaced, with repeated positives and positives that
    # containment already implies mixed in.
    rng = seeded(36)
    for _ in range(420):
        n = rng.randint(1, 6)
        sig = Signature.of(" ".join(f"c{i}" for i in range(n)))
        duples = [random_duple(rng, n) for _ in range(rng.randint(0, 2 * n))]
        if duples and rng.random() < 0.3:
            duples.append(rng.choice(duples))
        if rng.random() < 0.3:
            left = random_term(rng, n)
            implied = Duple(left, Term(left.mask | random_term(rng, n).mask))
            duples.insert(rng.randint(0, len(duples)), implied)
        assert closure_oracle(sig, duples) == deductive_closure(sig, duples)


def test_closure_rejects_a_positive_outside_the_signature():
    sig = Signature.of("a b")
    with pytest.raises(SignatureMismatch):
        closure_oracle(sig, [duple(sig, "a", "b"), Duple(Term(0b100), Term(0b1))])


def test_closure_cap_comes_before_the_positives():
    sig = Signature.of(" ".join(f"c{i}" for i in range(11)))
    with pytest.raises(CapExceeded):
        closure_oracle(sig, [Duple(Term(1 << 11), Term(1))])


def test_closure_cap():
    sig = Signature.of(" ".join(f"c{i}" for i in range(11)))
    with pytest.raises(CapExceeded):
        closure_oracle(sig, [])


def test_congruence_oracle_empty_input():
    sig = Signature.of("a b")
    assert set(congruence_oracle(sig, [])) == containment_order(2)


def test_congruence_oracle_total_collapse():
    sig = Signature.of("a b")
    rel = congruence_oracle(sig, [duple(sig, "a", "b"), duple(sig, "b", "a")])
    full = containment_order(2)
    everything = frozenset(
        Duple(Term(s), Term(t)) for s in (1, 2, 3) for t in (1, 2, 3)
    )
    assert set(rel) == everything
    assert full < set(rel)


def test_congruence_oracle_does_not_overreach():
    sig = Signature.of("a b c")
    rel = congruence_oracle(sig, [duple(sig, "a", "b")])
    assert duple(sig, "a", "b") in rel
    assert duple(sig, "a", "c") not in rel


def test_congruence_oracle_cap():
    sig = Signature.of("a b c d")
    with pytest.raises(CapExceeded):
        congruence_oracle(sig, [])


def test_oracles_agree_on_tiny_signatures():
    rng = seeded(33)
    for _ in range(60):
        n = rng.randint(2, 3)
        sig = Signature.of(" ".join(f"c{i}" for i in range(n)))
        duples = [random_duple(rng, n) for _ in range(rng.randint(0, 4))]
        assert closure_oracle(sig, duples) == congruence_oracle(sig, duples)


def test_oracle_matches_crossing_engine():
    rng = seeded(34)
    for _ in range(60):
        n = rng.randint(2, 5)
        sig = Signature.of(" ".join(f"c{i}" for i in range(n)))
        duples = [random_duple(rng, n) for _ in range(rng.randint(0, 6))]
        engine = enumerate_theory(freest_model(sig, duples))
        assert engine == closure_oracle(sig, duples)


def test_oracle_matches_crossing_engine_near_the_cap():
    rng = seeded(35)
    for _ in range(20):
        n = rng.randint(7, 8)
        sig = Signature.of(" ".join(f"c{i}" for i in range(n)))
        duples = [random_duple(rng, n) for _ in range(rng.randint(1, 12))]
        model, oracle = freest_model(sig, duples), closure_oracle(sig, duples)
        assert enumerate_theory(model) == oracle
        assert oracle.elements() == enumerate_elements(model)
    # at the default cap of ten constants
    for _ in range(20):
        n = rng.randint(9, 10)
        sig = Signature.of(" ".join(f"c{i}" for i in range(n)))
        duples = [random_duple(rng, n) for _ in range(rng.randint(1, 2 * n))]
        model, oracle = freest_model(sig, duples), closure_oracle(sig, duples)
        assert enumerate_theory(model) == oracle
        assert oracle.elements() == enumerate_elements(model)


def test_axiom_check_reports_the_checks_that_can_fail():
    report = axiom_check(mk("a b", "a", "b"))
    assert [c.name for c in report.checks] == [
        "atoms-nonempty", "atoms-distinct", "constants-covered"
    ]


def test_axiom_check_passes_on_constructed_models():
    report = axiom_check(mk("a b c d e", "a", "a b", "c d e", "b e", "c", "d"))
    assert report.ok
    assert not report.failures()


def test_axiom_check_passes_after_new_model():
    sig = Signature.of("a b c")
    m = new_model(sig, [sig.atom("a b"), sig.atom("c")])
    assert axiom_check(m).ok


def test_axiom_check_flags_uncovered_constant():
    sig = Signature.of("a b c")
    broken = Model(sig, (0b001,))
    report = axiom_check(broken)
    assert not report.ok
    assert any(c.name == "constants-covered" for c in report.failures())


def test_axiom_check_flags_duplicate_atoms():
    sig = Signature.of("a b")
    broken = Model(sig, (0b01, 0b01, 0b10))
    report = axiom_check(broken)
    assert any(c.name == "atoms-distinct" for c in report.failures())
