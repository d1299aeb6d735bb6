"""Independent verification oracles.

Two oracles decide term entailment without touching atoms or crossing: one by
the implication closure of each term under the positives, one by brute-force
enumeration of semilattice congruences. They exist so the crossing engine can
be checked against machinery that shares none of its code paths. A third entry
point checks a model directly against the defining axioms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import Duple, Signature, bit_indices
from .errors import CapExceeded
from .model import ENUM_CAP_DEFAULT, Model, TheorySlice, _check_cap, _require_in_sig


def closure_oracle(
    sig: Signature,
    positives: tuple[Duple, ...] | list[Duple] = (),
    cap: int = ENUM_CAP_DEFAULT,
) -> TheorySlice:
    """The least entailment relation on all terms over the signature.

    For each term t, C(t) is the least superset of t such that ``right ⊆ X``
    implies ``left ⊆ X`` for every positive; then s <= t holds exactly when
    s ⊆ C(t). Sound: each closure step is one monotonicity step and one
    transitivity step, X + left <= X + right = X. Least: s ⊆ C(t) is a
    preorder that holds the containment pairs and the positives, and it is
    join-monotone, since C(t) + u ⊆ C(t + u).

    Returns the relation as a :class:`~atomlat.model.TheorySlice`, the type
    :func:`~atomlat.model.enumerate_theory` returns, with the given positives
    among its pairs; constant i's row, the t with i in C(t), extends to all terms
    by :meth:`~atomlat.model.TheorySlice.from_constant_rows` as the engine's do.
    """
    _check_cap(sig, cap)
    rules = set()
    for d in positives:
        _require_in_sig(sig, d.left.mask | d.right.mask)
        rules.add((d.left.mask, d.right.mask))
    columns = [0] * len(sig)
    for t in range(1, sig.full_mask + 1):
        closed = t
        grown = True
        while grown:
            grown = False
            for left, right in rules:
                if not right & ~closed and left & ~closed:
                    closed |= left
                    grown = True
        for i in bit_indices(closed):
            columns[i] |= 1 << t
    return TheorySlice.from_constant_rows(sig, columns)


def _set_partitions(count: int):
    """Yield all partitions of range(count) as restricted-growth strings."""
    assignment = [0] * count

    def grow(position: int, next_class: int):
        if position == count:
            yield tuple(assignment)
            return
        for cls in range(next_class + 1):
            assignment[position] = cls
            yield from grow(position + 1, max(next_class, cls + 1))

    yield from grow(0, 0)


@lru_cache(maxsize=None)
def _semilattice_congruences(n: int) -> tuple[tuple[int, ...], ...]:
    """All congruences of the free semilattice on n generators.

    Each congruence is returned as a table indexed by term mask (entry 0
    unused) giving the class id of the term. A partition is a congruence when
    joining any term onto two equivalent terms lands them in one class.
    """
    full = (1 << n) - 1
    terms = list(range(1, full + 1))
    found = []
    for assignment in _set_partitions(len(terms)):
        table = [0] * (full + 1)
        for idx, t in enumerate(terms):
            table[t] = assignment[idx]
        members: dict[int, list[int]] = {}
        for t in terms:
            members.setdefault(table[t], []).append(t)
        ok = True
        for group in members.values():
            first = group[0]
            for other in group[1:]:
                if any(table[first | u] != table[other | u] for u in terms):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.append(tuple(table))
    return tuple(found)


def congruence_oracle(
    sig: Signature,
    positives: tuple[Duple, ...] | list[Duple] = (),
) -> TheorySlice:
    """Entailment by quantifying over every congruence quotient.

    Enumerates all semilattice congruences of the free model over the
    signature, keeps those whose quotient satisfies the positives, and
    declares s <= t exactly when it holds in every surviving quotient. Only
    feasible for up to three constants, where the free model has at most
    seven elements.
    """
    n = len(sig)
    if n > 3:
        raise CapExceeded("the congruence oracle only runs on up to 3 constants")
    full = sig.full_mask
    for d in positives:
        _require_in_sig(sig, d.left.mask | d.right.mask)
    valid = [
        table
        for table in _semilattice_congruences(n)
        if all(table[d.left.mask | d.right.mask] == table[d.right.mask] for d in positives)
    ]
    rows = [0] * (full + 1)
    for s in range(1, full + 1):
        for t in range(1, full + 1):
            if all(table[s | t] == table[t] for table in valid):
                rows[s] |= 1 << t
    return TheorySlice(sig, tuple(rows))


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    passed: bool
    note: str


@dataclass(frozen=True)
class AxiomReport:
    checks: tuple[AxiomCheck, ...]

    @property
    def ok(self) -> bool:
        return all(check.passed for check in self.checks)

    def failures(self) -> tuple[AxiomCheck, ...]:
        return tuple(check for check in self.checks if not check.passed)


def axiom_check(model: Model) -> AxiomReport:
    """Check the defining axioms directly on a model's atom set.

    Intended for models built by hand (bypassing the canonical constructor),
    where an atom may leave the signature, two atoms may coincide or a
    constant may be covered by no atom. The order between terms is read off
    the atoms, so it needs no check of its own.
    """
    full = model.sig.full_mask
    masks = model.masks
    covered = 0
    for m in masks:
        covered |= m
    return AxiomReport((
        AxiomCheck(
            "atoms-nonempty",
            all(0 < m and m & ~full == 0 for m in masks),
            "every atom sits below at least one signature constant",
        ),
        AxiomCheck(
            "atoms-distinct",
            len(set(masks)) == len(masks),
            "no two atoms share an upper constant segment",
        ),
        AxiomCheck(
            "constants-covered",
            covered == full,
            "every constant has an atom below it",
        ),
    ))
