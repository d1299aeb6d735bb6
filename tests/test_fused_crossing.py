"""Seeded differential tests of the fast paths against their references.

- ``fused_crossing`` against ``reduce(full_crossing(m, r))`` on reduced models;
- the column-bitset ``reduce`` against the pairwise ``is_redundant`` definition;
- ``run_script``/``freest_model`` under ``after_each`` against a step-by-step
  loop of ``full_crossing`` and ``reduce``, shows included.
"""

import pytest

from atomlat.core import Atom, Duple, Signature, Term
from atomlat.crossing import freest_model, full_crossing, fused_crossing
from atomlat.errors import SignatureMismatch
from atomlat.model import Model, holds, is_redundant, new_model, reduce
from atomlat.script import Assertion, ShowDirective, parse_script, run_script

from conftest import random_duple, random_term, seeded


def sig_of_size(n):
    return Signature(tuple(f"c{i}" for i in range(n)))


def covered_masks(rng, n, count):
    masks = {random_term(rng, n, rng.randint(1, n)).mask for _ in range(count)}
    covered = 0
    for mask in masks:
        covered |= mask
    masks.update(1 << i for i in range(n) if not covered >> i & 1)
    return masks


def random_reduced_model(rng, n):
    sig = sig_of_size(n)
    return reduce(new_model(sig, map(Atom, covered_masks(rng, n, rng.randint(1, 3 * n)))))


def reference_reduce(model):
    return Model(model.sig, tuple(a for a in model.atoms if not is_redundant(model, a)))


def test_fused_matches_reference_on_random_reduced_models():
    rng = seeded(2024)
    already_held = 0
    for _ in range(3000):
        n = rng.randint(2, 12)
        m = random_reduced_model(rng, n)
        if rng.random() < 0.3:
            left = random_term(rng, n)
            r = Duple(left, left.join(random_term(rng, n)))
        else:
            r = random_duple(rng, n)
        fused = fused_crossing(m, r)
        assert fused == reduce(full_crossing(m, r))
        if holds(m, r.signed(True)):
            already_held += 1
            assert fused is m
    assert already_held >= 900


def test_fused_matches_reference_along_freest_builds():
    rng = seeded(2025)
    for _ in range(200):
        n = rng.randint(2, 12)
        sig = sig_of_size(n)
        m = new_model(sig, (Atom(1 << i) for i in range(n)))
        for _ in range(rng.randint(1, 3 * n)):
            r = random_duple(rng, n)
            expected = reduce(full_crossing(m, r))
            assert fused_crossing(m, r) == expected
            m = expected


def test_fused_running_example():
    sig = Signature.of("a b c d e")
    m = reduce(new_model(sig, map(sig.atom, ("a", "a b", "c d e", "b e", "c", "d"))))
    r = Duple(sig.term("b"), sig.term("a d"))
    assert [a.label(sig) for a in fused_crossing(m, r).atoms] == [
        "a", "a b", "a b e", "b d e", "c", "c d e", "d",
    ]


def test_fused_signature_mismatch():
    m = freest_model(Signature.of("a b"))
    with pytest.raises(SignatureMismatch):
        fused_crossing(m, Duple(Term(0b100), Term(0b1)))


def test_reduce_matches_pairwise_definition_on_random_unreduced_models():
    rng = seeded(2026)
    for _ in range(1000):
        n = rng.randint(1, 10)
        sig = sig_of_size(n)
        masks = sorted(covered_masks(rng, n, rng.randint(1, 4 * n)))
        m = new_model(sig, map(Atom, masks))
        assert reduce(m) == reference_reduce(m)
        # Models built directly may repeat an atom; a copy is no witness.
        doubled = Model(sig, m.atoms + m.atoms[: rng.randint(0, len(m.atoms))])
        assert reduce(doubled) == reference_reduce(doubled)


def reference_run(script):
    """The plain after_each loop: full crossing then reduce on every assert."""
    lines = []
    declared = script.atoms()
    model = new_model(
        script.sig, declared or (Atom(1 << i) for i in range(len(script.sig)))
    )
    for statement in script.statements:
        if isinstance(statement, Assertion):
            model = reduce(full_crossing(model, statement.duple))
        elif isinstance(statement, ShowDirective):
            lines += [f"atom {atom.label(script.sig)}" for atom in model.atoms]
    return model, lines


def random_script(rng, n, asserts, declared):
    names = [f"c{i}" for i in range(n)]

    def text(mask):
        return " ".join(names[i] for i in range(n) if mask >> i & 1)

    lines = ["constants " + " ".join(names)]
    if declared:
        # Unions of declared atoms make the start unreduced.
        base = sorted(covered_masks(rng, n, n))
        unions = {rng.choice(base) | rng.choice(base) for _ in range(max(1, n // 3))}
        lines += [f"atom {text(mask)}" for mask in sorted(set(base) | unions)]
    lines.append("show atoms")
    for _ in range(asserts):
        r = random_duple(rng, n)
        lines.append(f"assert {text(r.left.mask)} <= {text(r.right.mask)}")
        if rng.random() < 0.2:
            lines.append("show atoms")
    return parse_script("\n".join(lines) + "\n")


@pytest.mark.parametrize("declared", [False, True])
def test_run_script_matches_step_by_step_reference(declared):
    rng = seeded(2027 + declared)
    unreduced_starts = 0
    for i in range(150):
        n = rng.randint(2, 12)
        asserts = 0 if i < 10 else rng.randint(1, 3 * n)
        script = random_script(rng, n, asserts, declared)
        start = new_model(script.sig, script.atoms()) if declared else None
        if start is not None and reduce(start) != start:
            unreduced_starts += 1
        lines = []
        model, _ = run_script(script, emit=lines.append)
        assert (model, lines) == reference_run(script)
    assert unreduced_starts >= (100 if declared else 0)


def test_unreduced_start_is_kept_until_the_first_assert():
    script = parse_script(
        "constants a b c\natom a\natom b\natom a b\natom c\nshow atoms\n"
    )
    lines = []
    model, _ = run_script(script, emit=lines.append)
    assert lines == ["atom a", "atom a b", "atom b", "atom c"]
    assert [a.label(script.sig) for a in model.atoms] == ["a", "a b", "b", "c"]
    assert (model, lines) == reference_run(script)


def test_freest_model_matches_step_by_step_reference_at_n24():
    rng = seeded(2)
    n = 24
    sig = sig_of_size(n)
    duples = [random_duple(rng, n) for _ in range(120)]
    model = new_model(sig, (Atom(1 << i) for i in range(n)))
    for r in duples:
        model = reduce(full_crossing(model, r))
    assert freest_model(sig, duples) == model
