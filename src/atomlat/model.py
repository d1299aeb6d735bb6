"""Atomized models over a signature.

A model is a deduplicated, canonically ordered set of atoms. The atoms fully
determine the order between terms: t <= s holds exactly when every atom below
t is also below s, where "atom below term" means the atom's upper constant
segment meets the term's components. Everything in this module is a pure
function of immutable values.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .core import Atom, Duple, Signature, SignedDuple, Term, canonical_key, zero_atom
from .errors import CapExceeded, CoverageRepairWarning, SignatureMismatch

ENUM_CAP_DEFAULT = 10


@dataclass(frozen=True)
class Model:
    """An atomized model: a signature plus canonically ordered atoms.

    Build through :func:`new_model`, which deduplicates, sorts and repairs
    constant coverage; direct construction performs no checks.
    """

    sig: Signature
    atoms: tuple[Atom, ...]

    def __repr__(self) -> str:
        inner = ", ".join(atom.label(self.sig) for atom in self.atoms)
        return f"Model<{' '.join(self.sig.names)}>[{inner}]"


@dataclass(frozen=True)
class ElementClass:
    """A class of terms naming the same element; the representative is the
    largest member (term classes are closed under the idempotent sum)."""

    representative: Term
    terms: tuple[Term, ...]


@dataclass(frozen=True)
class TheorySlice:
    """The order on every term over the signature, one row bitset per term.

    ``rows[s]`` has bit ``t`` set exactly when s <= t, for term masks s and
    t; index 0 is unused. The negative theory is the complement, so it is
    not stored. A duple tests with ``in``, ``len`` counts the positive pairs
    and iteration yields them in canonical order of the left term, then of
    the right term. The engine and the oracles all return this type, so they
    agree exactly when their slices are equal.

    >>> sig = Signature.of("a b")
    >>> th = enumerate_theory(new_model(sig, [sig.atom("a"), sig.atom("b")]))
    >>> [bin(row) for row in th.rows[1:]]
    ['0b1010', '0b1100', '0b1000']
    >>> len(th), Duple(sig.term("a b"), sig.term("a")) in th
    (5, False)
    >>> [f"{d.left.label(sig)} <= {d.right.label(sig)}" for d in th]
    ['a <= a', 'a <= a b', 'a b <= a b', 'b <= a b', 'b <= b']
    """

    sig: Signature
    rows: tuple[int, ...]

    def __contains__(self, d: Duple) -> bool:
        if (d.left.mask | d.right.mask) & ~self.sig.full_mask:
            return False
        return bool(self.rows[d.left.mask] >> d.right.mask & 1)

    def __len__(self) -> int:
        return sum(row.bit_count() for row in self.rows)

    def __iter__(self) -> Iterator[Duple]:
        order = sorted((Term(m) for m in range(1, len(self.rows))), key=canonical_key)
        for s in order:
            row = self.rows[s.mask]
            for t in order:
                if row >> t.mask & 1:
                    yield Duple(s, t)


def new_model(sig: Signature, atoms: Iterable[Atom] = ()) -> Model:
    """Canonical model constructor.

    Deduplicates the atoms by mask, keeping the caller's objects, and sorts
    them canonically. If some constant ends up covered by no atom, the zero
    atom is inserted so that the result is a model, and a
    :class:`CoverageRepairWarning` is emitted.
    """
    full = sig.full_mask
    by_mask = {atom.mask: atom for atom in atoms}
    covered = 0
    for mask, atom in by_mask.items():
        if mask & ~full:
            raise SignatureMismatch(
                f"atom {atom.indices()} uses constants outside the signature"
            )
        covered |= mask
    if covered != full:
        uncovered = sig.names_of(full & ~covered)
        warnings.warn(
            f"constants {' '.join(uncovered)} covered by no atom; zero atom inserted",
            CoverageRepairWarning,
            stacklevel=2,
        )
        by_mask[full] = zero_atom(sig)
    return Model(sig, tuple(sorted(by_mask.values(), key=canonical_key)))


def lower_atomic_segment(model: Model, t: Term) -> tuple[Atom, ...]:
    """The atoms of the model below the term, in canonical order."""
    return tuple(atom for atom in model.atoms if atom.mask & t.mask)


def _require_in_sig(sig: Signature, mask: int):
    """Reject a duple whose terms, ``mask`` their union, leave the signature."""
    if mask & ~sig.full_mask:
        raise SignatureMismatch("duple uses constants outside the signature")


def discriminant(model: Model, a: Term, b: Term) -> tuple[Atom, ...]:
    """The atoms below ``a`` but not below ``b``; empty iff a <= b holds."""
    _require_in_sig(model.sig, a.mask | b.mask)
    return tuple(
        atom for atom in model.atoms if atom.mask & a.mask and not atom.mask & b.mask
    )


def holds(model: Model, d: SignedDuple) -> bool:
    """Whether the signed duple is satisfied by the model."""
    empty = not discriminant(model, d.left, d.right)
    return empty if d.positive else not empty


def is_redundant(model: Model, phi: Atom) -> bool:
    """Whether ``phi`` adds nothing to the model's atoms.

    An atom is redundant when each constant above it is witnessed by a
    strictly narrower atom of the model; equivalently, when it is a union of
    such atoms. The atom itself need not belong to the model.
    """
    cover = 0
    for eta in model.atoms:
        if eta.mask != phi.mask and eta.mask & ~phi.mask == 0:
            cover |= eta.mask
    return cover == phi.mask


class AtomColumns:
    """Atom masks over ``width`` constants in transposed form.

    ``columns[i]`` is the bitset of the positions of the atoms below constant
    ``i``, one column per constant of the signature. For distinct masks the
    atoms inside a mask are the positions that no column of a constant
    outside the mask reaches, so a whole redundancy test is one pass of
    bitwise operations over the constants instead of a loop over atom pairs.
    """

    def __init__(self, masks: Sequence[int], width: int):
        self.position = {mask: pos for pos, mask in enumerate(masks)}
        self.everything = (1 << len(masks)) - 1
        union = 0
        for mask in masks:
            union |= mask
        self.union = union
        # Transpose through text: the binary digits of the masks, last
        # position first, so that every width-th digit from the one for
        # constant i spells column i with position 0 as its lowest bit.
        spec = f"0{width}b"
        digits = "".join([format(mask, spec) for mask in reversed(masks)])
        self.columns = [int(digits[width - 1 - i :: width] or "0", 2) for i in range(width)]

    def narrower(self, mask: int) -> int:
        """The bitset of the positions of the atoms strictly narrower than ``mask``."""
        columns = self.columns
        outside = 0
        rest = self.union & ~mask
        while rest:
            low = rest & -rest
            outside |= columns[low.bit_length() - 1]
            rest ^= low
        inside = self.everything & ~outside
        pos = self.position.get(mask)
        return inside if pos is None else inside & ~(1 << pos)

    def redundant(self, mask: int) -> bool:
        """:func:`is_redundant` for ``mask`` against the indexed atoms."""
        if mask & ~self.union:
            return False
        below = self.narrower(mask)
        columns = self.columns
        while mask:
            low = mask & -mask
            if not columns[low.bit_length() - 1] & below:
                return False
            mask ^= low
        return True


def reduce(model: Model) -> Model:
    """The unique non-redundant atomization of the same semilattice.

    Every atom redundant against the full original atom set is dropped in one
    simultaneous pass. This is sound because of a witness argument: the
    witnesses of a redundant atom are strictly narrower, and each of them is
    either non-redundant or, in turn, a union of strictly narrower atoms, so
    every redundant atom is a union of non-redundant ones and the kept atoms
    still generate everything that is dropped. Two facts about crossing
    follow, which :func:`atomlat.crossing.fused_crossing` uses:

    - crossing a reduced model leaves every atom it does not replace
      non-redundant: a witness ``h | b`` of such an atom can be traded for its
      own parts ``h`` and ``b``, which are strictly narrower atoms of the
      model before crossing, so the atom would already have been redundant;
    - for atoms b1 ⊊ b2 below the right term, ``h | b2 = (h | b1) | b2``
      is redundant or a duplicate, so only the inclusion-minimal atoms below
      the right term need to be unioned.

    The test runs on :class:`AtomColumns`, one bitset per constant over the
    atom positions; :func:`is_redundant` stays the single-atom definition.

    >>> sig = Signature.of("a b")
    >>> reduce(new_model(sig, [sig.atom("a"), sig.atom("b"), sig.atom("a b")])).atoms
    (Atom((0,)), Atom((1,)))
    """
    index = AtomColumns(list(dict.fromkeys(atom.mask for atom in model.atoms)), len(model.sig))
    dropped = {mask for mask in index.position if index.redundant(mask)}
    if not dropped:
        return model
    return Model(model.sig, tuple(atom for atom in model.atoms if atom.mask not in dropped))


def union_model(a: Model, b: Model) -> Model:
    """The model atomized by the union of both atom sets."""
    _require_same_sig(a, b)
    return new_model(a.sig, a.atoms + b.atoms)


def is_freer(a: Model, b: Model) -> bool:
    """Whether ``a`` is freer than or as free as ``b``.

    Holds exactly when every atom of ``b`` is an atom of ``a`` or a union of
    atoms of ``a`` (redundant against ``a``); equivalently, every negative
    sentence of ``b`` is a negative sentence of ``a``.
    """
    _require_same_sig(a, b)
    index = AtomColumns([atom.mask for atom in a.atoms], len(a.sig))
    return all(phi.mask in index.position or index.redundant(phi.mask) for phi in b.atoms)


def _require_same_sig(a: Model, b: Model):
    if a.sig != b.sig:
        raise SignatureMismatch(
            f"models over {a.sig.names} and {b.sig.names} cannot be combined"
        )


def _check_cap(sig: Signature, cap: int):
    if len(sig) > cap:
        raise CapExceeded(
            f"{len(sig)} constants exceed the enumeration cap of {cap}"
        )


def segment_signatures(model: Model) -> list[int]:
    """For every term mask, a bitmask over atom positions of its segment.

    Index 0 is unused (terms are non-empty). Built in one pass per term using
    linearity from the per-constant columns of :class:`AtomColumns`: the
    segment of s + t is the union of the segments.
    """
    per_constant = AtomColumns([atom.mask for atom in model.atoms], len(model.sig)).columns
    out = [0] * (model.sig.full_mask + 1)
    for t in range(1, model.sig.full_mask + 1):
        low = t & -t
        out[t] = out[t ^ low] | per_constant[low.bit_length() - 1]
    return out


def enumerate_elements(model: Model, cap: int = ENUM_CAP_DEFAULT) -> tuple[ElementClass, ...]:
    """Group all terms over the signature by equal lower atomic segments."""
    _check_cap(model.sig, cap)
    segs = segment_signatures(model)
    groups: dict[int, list[int]] = {}
    for t in range(1, model.sig.full_mask + 1):
        groups.setdefault(segs[t], []).append(t)
    classes = []
    for members in groups.values():
        union = 0
        for m in members:
            union |= m
        classes.append(
            ElementClass(
                representative=Term(union),
                terms=tuple(sorted((Term(m) for m in members), key=canonical_key)),
            )
        )
    classes.sort(key=lambda c: canonical_key(c.representative))
    return tuple(classes)


def enumerate_theory(model: Model, cap: int = ENUM_CAP_DEFAULT) -> TheorySlice:
    """The order on every term over the signature, as a :class:`TheorySlice`.

    A constant's row holds the terms whose segment contains the constant's;
    by linearity s <= t holds exactly when every constant of s is below t,
    so each other row is the intersection of two rows built before it.
    """
    _check_cap(model.sig, cap)
    full = model.sig.full_mask
    segs = segment_signatures(model)
    rows = [0] * (full + 1)
    for i in range(len(model.sig)):
        seg = segs[1 << i]
        row = 0
        for t in range(1, full + 1):
            if not seg & ~segs[t]:
                row |= 1 << t
        rows[1 << i] = row
    for s in range(1, full + 1):
        low = s & -s
        if s != low:
            rows[s] = rows[s ^ low] & rows[low]
    return TheorySlice(model.sig, tuple(rows))
