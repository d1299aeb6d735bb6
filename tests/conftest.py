"""Shared helpers for the test suite.

Models built here bypass the coverage repair in ``new_model`` on purpose:
random generators guarantee coverage by construction, and golden fixtures
sometimes need an exact atom set that the repair pass would extend.
"""

import random

from atomlat.core import Atom, Duple, Signature, Term, bit_indices, canonical_key
from atomlat.crossing import full_crossing
from atomlat.model import ElementClass, Model, TheorySlice, holds, new_model, reduce
from atomlat.oracle import axiom_check
from atomlat.script import Assertion, Denial, ShowDirective, parse_script


# constant names with non-ASCII characters, quotes and a backslash, which
# labels, DOT escapes and reports carry through as text
ODD_NAMES = ("a", "é", "x'", 'y"', "βγ", "日本", "z'\"", "ü2", "c", "\\q")


def sig_of(names):
    return Signature.of(names)


def mk(names, *atom_texts):
    """Build a model from space-separated constant names for each atom."""
    sig = Signature.of(names)
    atoms = sorted((sig.atom(text) for text in atom_texts), key=lambda a: canonical_key(a.mask))
    return Model(sig, tuple(atom.mask for atom in atoms))


def atom_names(model):
    """The atoms of the model as tuples of constant names, in a set."""
    return {atom.names(model.sig) for atom in model.atoms}


def duple(sig, left, right):
    return Duple(sig.term(left), sig.term(right))


def sig_of_size(n):
    return Signature(tuple(f"c{i}" for i in range(n)))


def random_term(rng, n, max_side=3):
    mask = 0
    for _ in range(rng.randint(1, max_side)):
        mask |= 1 << rng.randrange(n)
    return Term(mask)


def random_duple(rng, n, max_side=3):
    return Duple(random_term(rng, n, max_side), random_term(rng, n, max_side))


def covered_masks(rng, n, count):
    masks = {random_term(rng, n, rng.randint(1, n)).mask for _ in range(count)}
    covered = 0
    for mask in masks:
        covered |= mask
    masks.update(1 << i for i in range(n) if not covered >> i & 1)
    return masks


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


def random_model(rng, names, max_atoms=6, ensure_singleton=False):
    """Random covered model; optionally force a singleton atom in.

    The singleton keeps the reduced model away from the all-constants
    atom alone, which matters for decomposition tests.
    """
    sig = Signature.of(names)
    n = len(sig.names)
    full = (1 << n) - 1
    masks = {rng.randint(1, full) for _ in range(rng.randint(1, max_atoms))}
    if ensure_singleton:
        masks.add(1 << rng.randrange(n))
    covered = 0
    for mask in masks:
        covered |= mask
    if covered != full:
        masks.add(full)
    atoms = sorted((Atom(mask) for mask in masks), key=lambda a: canonical_key(a.mask))
    return Model(sig, tuple(atom.mask for atom in atoms))


# Reference definitions that ``holds``, the crossing engine, the element
# classes, ``enumerate_theory``, ``closure_oracle`` and the ``check`` report
# are tested against.
def lower_atomic_segment(model, t):
    """The atoms of the model below the term, in canonical order."""
    return tuple(atom for atom in model.atoms if atom.mask & t.mask)


def elements_by_segments(model):
    """The element classes as the atoms define them: all terms grouped by
    equal lower atomic segments, each class with its union as representative,
    classes and their terms in canonical order."""
    groups = {}
    for t in range(1, model.sig.full_mask + 1):
        segment = tuple(k for k, atom in enumerate(model.atoms) if atom.mask & t)
        groups.setdefault(segment, []).append(t)
    classes = []
    for members in groups.values():
        union = 0
        for m in members:
            union |= m
        terms = tuple(sorted((Term(m) for m in members), key=lambda t: canonical_key(t.mask)))
        classes.append(ElementClass(Term(union), terms))
    classes.sort(key=lambda c: canonical_key(c.representative.mask))
    return tuple(classes)


def check_report(text, oracle=False):
    """The stdout of ``atomlat check [--oracle]`` on a script within the cap,
    from the plain definitions: the reference crossing and ``reduce``
    in script order, ``show theory`` as the pairs that ``holds`` with both
    sides sorted by ``canonical_key``, terms labelled by ``Term.label``."""
    script = parse_script(text)
    sig = script.sig
    model = new_model(sig, script.atoms() or (Atom(1 << i) for i in range(len(sig))))
    terms = [(t, t.label(sig)) for t in sorted(map(Term, range(1, sig.full_mask + 1)),
                                                key=lambda t: canonical_key(t.mask))]
    lines = []
    for statement in script.statements:
        if isinstance(statement, Assertion):
            model = reduce(full_crossing(model, statement.duple))
        elif isinstance(statement, ShowDirective) and statement.section == "atoms":
            lines += [f"atom {atom.label(sig)}" for atom in model.atoms]
        elif isinstance(statement, ShowDirective) and statement.section == "elements":
            lines += [
                f"element {c.representative.label(sig)} "
                f"{{ {', '.join(t.label(sig) for t in c.terms)} }}"
                for c in elements_by_segments(model)
            ]
        elif isinstance(statement, ShowDirective):
            lines += [
                f"{left} <= {right}"
                for s, left in terms for t, right in terms if holds(model, Duple(s, t))
            ]
    denials = [st.duple for st in script.statements if isinstance(st, Denial)]
    entailed = [holds(model, d) for d in denials]
    lines += [
        f"deny {d.left.label(sig)} <= {d.right.label(sig)}: "
        + ("ENTAILED-POSITIVE" if verdict else "SATISFIABLE")
        for d, verdict in zip(denials, entailed)
    ]
    if oracle:
        lines.append("oracle agrees")
    lines.append("inconsistent" if any(entailed) else "consistent")
    return "".join(line + "\n" for line in lines)


def discriminant(model, a, b):
    """The atoms below ``a`` but not below ``b``; empty iff a <= b holds."""
    return tuple(atom for atom in model.atoms if atom.mask & a.mask and not atom.mask & b.mask)


def deductive_closure(sig, positives):
    """The least relation on all terms that holds the containment pairs and
    the positives and is closed under transitivity and join-monotonicity
    (s <= t entails s+u <= t+u), iterated to a genuine fixed point.

    Monotonicity is applied one constant at a time; together with
    transitivity that reaches the same fixed point as arbitrary-term
    monotonicity, since u can be joined in constant by constant.
    """
    n = len(sig)
    full = sig.full_mask
    # rows[s] has bit t set when s <= t is derived; bit positions are term masks.
    rows = [0] * (full + 1)
    for s in range(1, full + 1):
        t = s
        while True:
            rows[s] |= 1 << t
            if t == full:
                break
            t = (t + 1) | s
    fresh: list[tuple[int, int]] = []
    for d in positives:
        bit = 1 << d.right.mask
        if not rows[d.left.mask] & bit:
            rows[d.left.mask] |= bit
            fresh.append((d.left.mask, d.right.mask))
    # Only pairs beyond the containment seed can produce anything new:
    # monotonicity maps containment pairs to containment pairs, which are all
    # present from the start. Each new pair is expanded exactly once, and
    # transitive closure over the full rows runs after every batch.
    constant_bits = [1 << i for i in range(n)]
    while fresh:
        batch = fresh
        fresh = []
        for s, t in batch:
            for c in constant_bits:
                s2 = s | c
                t2 = t | c
                bit = 1 << t2
                if not rows[s2] & bit:
                    rows[s2] |= bit
                    fresh.append((s2, t2))
        stable = False
        while not stable:
            stable = True
            for s in range(1, full + 1):
                row = rows[s]
                acc = row
                rest = row
                while rest:
                    low = rest & -rest
                    rest ^= low
                    acc |= rows[low.bit_length() - 1]
                new = acc & ~row
                if new:
                    rows[s] = acc
                    stable = False
                    for t in bit_indices(new):
                        fresh.append((s, t))
    return TheorySlice(sig, tuple(rows))


def valid(model):
    """Whether the atoms are what ``new_model`` would make of them: inside
    the signature, distinct, covering and in canonical order."""
    in_order = sorted(model.atoms, key=lambda a: canonical_key(a.mask))
    return axiom_check(model).ok and list(model.atoms) == in_order


def seeded(seed):
    return random.Random(seed)
