import time

import pytest

from atomlat.core import Duple, Signature
from atomlat.crossing import (
    REDUCE_POLICIES,
    freest_model,
    full_crossing,
)
from atomlat.errors import SignatureMismatch
from atomlat.model import enumerate_theory, holds, is_freer, new_model, reduce

from conftest import discriminant, duple, mk, random_duple, random_model, seeded

ABCDE = Signature.of("a b c d e")
CROSS_SOURCE = mk("a b c d e", "a", "a b", "c d e", "b e", "c", "d")


def atom_names(model):
    return {atom.names(model.sig) for atom in model.atoms}


def test_full_crossing_golden():
    crossed = full_crossing(CROSS_SOURCE, duple(ABCDE, "b", "a d"))
    assert atom_names(crossed) == {
        ("a",),
        ("a", "b"),
        ("c", "d", "e"),
        ("c",),
        ("d",),
        ("a", "b", "e"),
        ("b", "c", "d", "e"),
        ("b", "d", "e"),
    }
    assert atom_names(reduce(crossed)) == atom_names(crossed) - {("b", "c", "d", "e")}


def test_full_crossing_satisfied_duple_is_identity():
    r = duple(ABCDE, "a", "a b")
    assert full_crossing(CROSS_SOURCE, r) is CROSS_SOURCE


def test_full_crossing_join_step():
    m = mk("a b c d e", "c", "a b c", "c d e")
    crossed = full_crossing(m, duple(ABCDE, "c", "d"))
    assert atom_names(reduce(crossed)) == {
        ("c", "d", "e"),
        ("a", "b", "c", "d", "e"),
    }


def test_full_crossing_signature_mismatch():
    wide = Signature.of("a b c d e f")
    with pytest.raises(SignatureMismatch):
        full_crossing(CROSS_SOURCE, Duple(wide.term("f"), wide.term("a")))


def test_freest_model_no_relations():
    sig = Signature.of("a b c")
    m = freest_model(sig, [])
    assert atom_names(m) == {("a",), ("b",), ("c",)}


def test_freest_model_single_relation():
    sig = Signature.of("a b")
    m = freest_model(sig, [duple(sig, "a", "b")])
    assert atom_names(m) == {("b",), ("a", "b")}


def test_freest_model_total_collapse():
    sig = Signature.of("a b")
    m = freest_model(sig, [duple(sig, "a", "b"), duple(sig, "b", "a")])
    assert atom_names(m) == {("a", "b")}


@pytest.mark.parametrize("policy", REDUCE_POLICIES)
def test_reduce_policy_keeps_theory(policy):
    rng = seeded(21)
    for _ in range(25):
        sig = Signature.of("a b c d")
        duples = [random_duple(rng, 4) for _ in range(rng.randint(0, 5))]
        base = freest_model(sig, duples)
        other = freest_model(sig, duples, reduce_policy=policy)
        assert enumerate_theory(other) == enumerate_theory(base)


def test_policies_agree_after_final_reduce():
    rng = seeded(22)
    sig = Signature.of("a b c d e")
    duples = [random_duple(rng, 5) for _ in range(6)]
    eager = freest_model(sig, duples, reduce_policy="after_each")
    raw = freest_model(sig, duples, reduce_policy="never")
    assert set(eager.atoms) == set(reduce(raw).atoms)


def test_crossing_strictly_reduces_freedom():
    rng = seeded(23)
    tried = 0
    for _ in range(60):
        m = random_model(rng, "a b c d")
        r = random_duple(rng, 4)
        if not discriminant(m, r.left, r.right):
            continue
        tried += 1
        crossed = full_crossing(m, r)
        assert is_freer(m, crossed)
        assert not is_freer(crossed, m)
        assert enumerate_theory(crossed) != enumerate_theory(m)
    assert tried > 10


def test_crossing_preserves_freedom_order():
    rng = seeded(24)
    checked = 0
    for _ in range(80):
        a = random_model(rng, "a b c")
        b = random_model(rng, "a b c")
        if not is_freer(a, b):
            continue
        checked += 1
        r = random_duple(rng, 3)
        assert is_freer(full_crossing(a, r), full_crossing(b, r))
    assert checked > 10


def test_crossing_on_padded_atomization_same_theory():
    rng = seeded(25)
    for _ in range(40):
        m = random_model(rng, "a b c d")
        padded = new_model(m.sig, list(m.atoms) + [
            m.atoms[0].union(m.atoms[-1]),
            m.atoms[len(m.atoms) // 2].union(m.atoms[0]),
        ])
        r = random_duple(rng, 4)
        assert enumerate_theory(full_crossing(m, r)) == enumerate_theory(
            full_crossing(padded, r)
        )


def test_check_consistency_satisfiable():
    sig = Signature.of("a b")
    assert not holds(freest_model(sig, [duple(sig, "a", "b")]), duple(sig, "b", "a"))


def test_check_consistency_transitivity_conflict():
    sig = Signature.of("a b c")
    m = freest_model(sig, [duple(sig, "a", "b"), duple(sig, "b", "c")])
    assert holds(m, duple(sig, "a", "c"))


def test_check_consistency_containment_is_always_positive():
    sig = Signature.of("a b")
    assert holds(freest_model(sig, []), duple(sig, "a", "a b"))


def check_build_at_scale(n, k, seed, budget):
    rng = seeded(seed)
    sig = Signature.of(" ".join(f"c{i}" for i in range(n)))
    duples = [random_duple(rng, n) for _ in range(k)]
    started = time.perf_counter()
    m = freest_model(sig, duples)
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"took {elapsed:.3f}s"
    assert reduce(m) is m
    assert all(holds(m, r) for r in duples)
    assert freest_model(sig, rng.sample(duples, len(duples))) == m


@pytest.mark.parametrize("seed", [1001, 1003])
def test_scheduled_build_at_scale(seed):
    # n=40, k=200 as in acceptance criterion 10; in script order seed 1003
    # peaks at thousands of atoms and takes several seconds.
    check_build_at_scale(40, 200, seed, 2.0)


def test_scheduled_build_at_scale_n60():
    # Crossing the duples with the most atoms below their right term last
    # keeps this chain at its final 998 atoms; keying by the grid size
    # |moved| x |below| instead peaks above 10,000 atoms and takes about 40 s.
    check_build_at_scale(60, 180, 1, 5.0)
