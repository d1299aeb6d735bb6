"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live;
without ``-s`` they appear in pytest's captured-output sections.
"""

import time
from contextlib import contextmanager

from atomlat.algebra import product, restrict, subalgebra, subdirect_decomposition
from atomlat.core import Atom, Duple, Signature
from atomlat.crossing import freest_model, full_crossing
from atomlat.model import enumerate_elements, enumerate_theory, new_model, reduce
from atomlat.oracle import closure_oracle, congruence_oracle

from conftest import duple, mk, random_duple, random_model, seeded


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {label}: FAIL")
        raise
    print(f"[acceptance] {label}: PASS")


def names_of(model):
    return {atom.names(model.sig) for atom in model.atoms}


def timed(bound_s, fn):
    start = time.perf_counter()
    out = fn()
    elapsed = time.perf_counter() - start
    assert elapsed < bound_s, f"took {elapsed:.4f}s, budget {bound_s}s"
    return out


def test_criterion_01_golden_crossing():
    with criterion("01 golden-crossing"):
        sig = Signature.of("a b c d e")
        m = mk("a b c d e", "a", "a b", "c d e", "b e", "c", "d")
        r = duple(sig, "b", "a d")

        def run():
            return full_crossing(m, r), reduce(full_crossing(m, r))

        crossed, reduced = timed(0.001, run)
        assert names_of(crossed) == {
            ("a",), ("a", "b"), ("c", "d", "e"), ("c",), ("d",),
            ("a", "b", "e"), ("b", "c", "d", "e"), ("b", "d", "e"),
        }
        assert names_of(reduced) == {
            ("a",), ("a", "b"), ("c", "d", "e"), ("c",), ("d",),
            ("a", "b", "e"), ("b", "d", "e"),
        }


def test_criterion_02_golden_join():
    with criterion("02 golden-join"):
        from atomlat.algebra import join
        from atomlat.model import union_model

        m = mk("a b c", "c", "a b c")
        n = mk("c d e", "c d e")
        joined = reduce(timed(0.010, lambda: join(m, n)))
        assert names_of(joined) == {("c", "d", "e"), ("a", "b", "c", "d", "e")}

        sig = joined.sig
        th = enumerate_theory(joined)
        chain = [("a", "b"), ("b", "a"), ("c", "d"), ("d", "c"),
                 ("d", "e"), ("e", "d"), ("a", "c"), ("b", "c")]
        for left, right in chain:
            assert duple(sig, left, right) in th
        assert duple(sig, "c", "a") not in th

        u = union_model(mk("a b c d e", "c", "a b c"), mk("a b c d e", "c d e"))
        uth = enumerate_theory(u)
        for left, right in [("a", "b"), ("b", "a"), ("a", "c"),
                            ("d", "e"), ("e", "d"), ("d", "c")]:
            assert duple(sig, left, right) in uth
        for left, right in [("c", "a"), ("c", "d"), ("a", "d"), ("d", "a")]:
            assert duple(sig, left, right) not in uth


def test_criterion_03_golden_subalgebra():
    with criterion("03 golden-subalgebra"):
        m = mk("c1 c2 c3", "c1", "c2", "c3")
        gens = [m.sig.term(g) for g in ("c1", "c2", "c1 c3", "c2 c3")]
        names = "g1 g2 g3 g4"

        def run():
            by_rename = reduce(subalgebra(m, gens, names, route="rename"))
            by_crossing = reduce(subalgebra(m, gens, names, route="crossing"))
            return by_rename, by_crossing

        by_rename, by_crossing = timed(0.010, run)
        expected = {("g1", "g3"), ("g2", "g4"), ("g3", "g4")}
        assert names_of(by_rename) == expected
        assert by_rename == by_crossing


def test_criterion_04_freest_shape():
    with criterion("04 freest-shape"):
        def run():
            for n in range(1, 9):
                sig = Signature.of(" ".join(f"c{i}" for i in range(n)))
                free = freest_model(sig, [])
                assert len(free.atoms) == n
                assert all(len(atom) == 1 for atom in free.atoms)
                assert len(enumerate_elements(free)) == 2**n - 1

        timed(1.0, run)


def test_criterion_05_oracle_equivalence():
    with criterion("05 oracle-equivalence"):
        rng = seeded(501)

        def run():
            small = 0
            for _ in range(500):
                n = rng.randint(2, 6)
                sig = Signature.of(" ".join(f"c{i}" for i in range(n)))
                duples = [random_duple(rng, n) for _ in range(rng.randint(0, 8))]
                engine = enumerate_theory(freest_model(sig, duples))
                closed = closure_oracle(sig, duples)
                assert engine == closed
                if n <= 3:
                    assert closed == congruence_oracle(sig, duples)
                    small += 1
            assert small > 50

        timed(60.0, run)


def test_criterion_06_crossing_commutativity():
    with criterion("06 crossing-commutativity"):
        rng = seeded(601)

        def run():
            for _ in range(200):
                n = rng.randint(2, 5)
                sig = Signature.of(" ".join(f"c{i}" for i in range(n)))
                duples = [random_duple(rng, n) for _ in range(rng.randint(1, 6))]
                other = duples[:]
                rng.shuffle(other)
                first = freest_model(sig, duples)
                second = freest_model(sig, other)
                assert set(first.atoms) == set(second.atoms)

        timed(30.0, run)


def test_criterion_07_unique_reduction():
    with criterion("07 unique-reduction"):
        rng = seeded(701)

        def run():
            for _ in range(100):
                n = rng.randint(2, 5)
                m = random_model(rng, " ".join(f"c{i}" for i in range(n)))
                padding = []
                if len(m.atoms) >= 2:
                    for _ in range(rng.randint(1, 4)):
                        count = rng.randint(2, min(3, len(m.atoms)))
                        union = 0
                        for mask in rng.sample(m.masks, count):
                            union |= mask
                        padding.append(Atom(union))
                padded = new_model(m.sig, list(m.atoms) + padding)
                assert reduce(padded) == reduce(m)

        timed(10.0, run)


def test_criterion_08_commutation_and_subdirect():
    with criterion("08 restriction-commutation-and-subdirect"):
        rng = seeded(801)

        def run():
            for _ in range(100):
                n = rng.randint(2, 4)
                m = random_model(
                    rng, " ".join(f"c{i}" for i in range(n)), ensure_singleton=True
                )

                kept = sorted(rng.sample(range(n), rng.randint(1, n)))
                keep = [m.sig.names[i] for i in kept]
                sub = restrict(m, keep)
                r = random_duple(rng, len(kept))
                lifted = Duple(
                    m.sig.term(" ".join(sub.sig.names_of(r.left.mask))),
                    m.sig.term(" ".join(sub.sig.names_of(r.right.mask))),
                )
                assert enumerate_theory(full_crossing(sub, r)) == enumerate_theory(
                    restrict(full_crossing(m, lifted), keep)
                )

                red = reduce(m)
                dec = subdirect_decomposition(m)
                rebuilt = dec.components[0].component_model()
                for comp in dec.components[1:]:
                    rebuilt = product(rebuilt, comp.component_model())
                gens = [
                    rebuilt.sig.term("*".join(coords))
                    for _, coords in dec.generators
                ]
                back = subalgebra(rebuilt, gens, red.sig.names)
                assert enumerate_theory(back) == enumerate_theory(red)

        timed(30.0, run)


def test_criterion_09_product_atom_bound():
    with criterion("09 product-atom-bound"):
        rng = seeded(901)

        def run():
            for _ in range(100):
                m = random_model(
                    rng, " ".join(f"a{i}" for i in range(rng.randint(1, 4)))
                )
                n = random_model(
                    rng, " ".join(f"b{i}" for i in range(rng.randint(1, 4)))
                )
                bound = len(reduce(m).atoms) + len(reduce(n).atoms)
                assert len(reduce(product(m, n)).atoms) <= bound

        timed(10.0, run)


def test_criterion_10_desk_scale_performance():
    with criterion("10 desk-scale-performance"):
        rng = seeded(1001)
        sig = Signature.of(" ".join(f"c{i}" for i in range(20)))
        duples = [random_duple(rng, 20) for _ in range(100)]

        eager = timed(5.0, lambda: freest_model(sig, duples, "after_each"))
        lazy = reduce(freest_model(sig, duples, "never"))
        assert len(eager.atoms) == len(lazy.atoms)
        assert set(eager.atoms) == set(lazy.atoms)
