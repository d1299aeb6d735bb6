"""Atomized models over a signature.

A model is a deduplicated, canonically ordered set of atoms, stored as the
bitmasks of their upper constant segments; :class:`~atomlat.core.Atom`
objects are built only when ``Model.atoms`` is read. The atoms fully
determine the order between terms: t <= s holds exactly when every atom below
t is also below s, where "atom below term" means the atom's upper constant
segment meets the term's components. :func:`enumerate_theory` writes the order
out as a :class:`TheorySlice`, and the element classes are a view of its rows.
Everything in this module is a pure function of immutable values.
"""

from __future__ import annotations

import os
import sys
import warnings
from dataclasses import dataclass
from itertools import compress
from operator import itemgetter
from typing import Iterable, Iterator, Sequence, TypeVar

from .core import (
    Atom,
    Duple,
    Signature,
    Term,
    bit_indices,
    canonical_masks,
    canonical_terms,
)
from .errors import CapExceeded, CoverageRepairWarning, SignatureMismatch

ENUM_CAP_DEFAULT = 10

_V = TypeVar("_V")

# the binary digits '0' and '1' as the bytes 0 and 1, selectors for compress
_DIGIT_BITS = bytes.maketrans(b"01", b"\0\1")


@dataclass(frozen=True)
class Model:
    """An atomized model: a signature plus the masks of its atoms in canonical order.

    ``masks[k]`` is the bitmask of the upper constant segment of the k-th
    atom. The masks are distinct, lie inside the signature and cover every
    constant, and they come in the order of
    :func:`~atomlat.core.canonical_masks`. Direct construction performs no
    checks: the engine's own steps (crossing, :func:`reduce`, the singletons
    of a freest model, the side-by-side atoms of a join) keep these facts by
    construction, and atoms from anywhere else go through :func:`new_model`.
    On a hand-built model that breaks these facts the results of the
    operations are undefined; :func:`atomlat.oracle.axiom_check` reports
    which of them fail. Two models are equal exactly when they have the same
    signature and the same atoms.
    """

    sig: Signature
    masks: tuple[int, ...]

    @property
    def atoms(self) -> tuple[Atom, ...]:
        """The atoms as :class:`~atomlat.core.Atom` objects, built on each read."""
        return tuple([Atom(mask) for mask in self.masks])

    def __repr__(self) -> str:
        names_of = self.sig.names_of
        inner = ", ".join([" ".join(names_of(mask)) for mask in self.masks])
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
    agree exactly when their slices are equal, and :meth:`elements` too.

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
        terms = [Term(mask) for mask, _ in canonical_terms(self.sig)]
        for s, above in self.rows_in_order(terms):
            for t in above:
                yield Duple(s, t)

    def rows_in_order(self, values: Sequence[_V]) -> Iterator[tuple[_V, Iterator[_V]]]:
        """Pair each term's entry of ``values`` with the entries of the terms above it.

        ``values`` holds one entry per term in the order of
        :func:`atomlat.core.canonical_terms`; the pairs and the entries of
        each come in that order too.

        >>> sig = Signature.of("a b")
        >>> th = enumerate_theory(new_model(sig, [sig.atom("a"), sig.atom("b")]))
        >>> labels = [label for _, label in canonical_terms(sig)]
        >>> [(s, list(above)) for s, above in th.rows_in_order(labels)]
        [('a', ['a', 'a b']), ('a b', ['a b']), ('b', ['a b', 'b'])]
        """
        masks = [mask for mask, _ in canonical_terms(self.sig)]
        width = len(self.rows)
        spec = f"0{width}b"
        # A row's digits, bit t at index width - 1 - t, picked in canonical
        # order and scanned at C speed; the trailing digit of bit 0 (no term)
        # keeps the getter's result a tuple when there is one term.
        pick = itemgetter(*[width - 1 - mask for mask in masks], width - 1)
        for value, s in zip(values, masks):
            digits = format(self.rows[s], spec).encode().translate(_DIGIT_BITS)
            yield value, compress(values, pick(digits))

    @classmethod
    def from_constant_rows(cls, sig: Signature, constant_rows: Sequence[int]) -> TheorySlice:
        """The slice with constant i's row ``constant_rows[i]``: s <= t holds exactly when
        every constant of s is below t, so each row is the AND of two earlier ones."""
        rows = [0] * (sig.full_mask + 1)
        for s in range(1, sig.full_mask + 1):
            low = s & -s
            rows[s] = constant_rows[low.bit_length() - 1] if s == low else rows[s ^ low] & rows[low]
        return cls(sig, tuple(rows))

    def elements(self) -> tuple[ElementClass, ...]:
        """The element classes in canonical order: two terms name the same
        element exactly when their rows are equal."""
        masks = [mask for mask, _ in canonical_terms(self.sig)]
        groups: dict[int, list[int]] = {}
        for t in masks:
            groups.setdefault(self.rows[t], []).append(t)
        # members gather in canonical order; a class's largest mask is its union
        by_rep = {max(members): members for members in groups.values()}
        return tuple(
            ElementClass(Term(t), tuple(map(Term, by_rep[t]))) for t in masks if t in by_rep
        )


def new_model(sig: Signature, atoms: Iterable[Atom] = ()) -> Model:
    """Canonical model constructor, for atoms the engine did not make.

    It serves atom lists from outside (script ``atom`` lines, library
    lists), where duplicates or lost coverage can occur. It rejects an atom
    outside the signature, deduplicates the atoms by mask and puts them in
    canonical order. If some constant ends up covered by no atom, the zero
    atom is inserted so that the result is a model, and a
    :class:`CoverageRepairWarning` is emitted. Model documents and atom
    images take the same checks on bare masks (:func:`model_of_masks`).
    """
    return model_of_masks(sig, [atom.mask for atom in atoms])


def model_of_masks(sig: Signature, masks: list[int]) -> Model:
    """:func:`new_model` for the bare masks of non-empty atoms.

    The checks run on the OR of all the masks, so a valid list costs one
    pass before :func:`~atomlat.core.canonical_masks`.
    """
    full = sig.full_mask
    covered = 0
    for mask in masks:
        covered |= mask
    if covered & ~full:
        mask = next(mask for mask in masks if mask & ~full)
        raise SignatureMismatch(
            f"atom {tuple(bit_indices(mask))} uses constants outside the signature"
        )
    if covered != full:
        # the warning points at the first caller outside this package
        frame, level, package = sys._getframe(1), 2, os.path.dirname(__file__)
        while frame is not None and os.path.dirname(frame.f_code.co_filename) == package:
            frame, level = frame.f_back, level + 1
        uncovered = sig.names_of(full & ~covered)
        warnings.warn(
            f"constants {' '.join(uncovered)} covered by no atom; zero atom inserted",
            CoverageRepairWarning,
            stacklevel=level,
        )
        masks = [*masks, full]
    return Model(sig, canonical_masks(masks))


def _require_in_sig(sig: Signature, mask: int):
    """Reject a duple whose terms, ``mask`` their union, leave the signature."""
    if mask & ~sig.full_mask:
        raise SignatureMismatch("duple uses constants outside the signature")


def holds(model: Model, d: Duple) -> bool:
    """Whether the model entails the duple: no atom below its left term
    misses its right term.

    >>> from atomlat.crossing import full_crossing
    >>> sig = Signature.of("a b")
    >>> a_b, b_a = Duple(sig.term("a"), sig.term("b")), Duple(sig.term("b"), sig.term("a"))
    >>> m = full_crossing(new_model(sig, [sig.atom("a"), sig.atom("b")]), a_b)
    >>> holds(m, a_b), holds(m, b_a)
    (True, False)
    """
    left, right = d.left.mask, d.right.mask
    _require_in_sig(model.sig, left | right)
    for mask in model.masks:
        if mask & left and not mask & right:
            return False
    return True


def is_redundant(model: Model, phi: Atom) -> bool:
    """Whether ``phi`` adds nothing to the model's atoms.

    An atom is redundant when each constant above it is witnessed by a
    strictly narrower atom of the model; equivalently, when it is a union of
    such atoms. The atom itself need not belong to the model.
    """
    mask = phi.mask
    cover = 0
    for eta in model.masks:
        if eta != mask and eta & ~mask == 0:
            cover |= eta
    return cover == mask


def _transpose(masks: Sequence[int], width: int) -> list[int]:
    """One bitset per constant: bit ``p`` of column ``i`` is bit ``i`` of ``masks[p]``."""
    # Transpose through text: the binary digits of the masks, last position
    # first, so that every width-th digit from the one for constant i spells
    # column i with position 0 as its lowest bit.
    spec = f"0{width}b"
    digits = "".join([format(mask, spec) for mask in reversed(masks)])
    return [int(digits[width - 1 - i :: width] or "0", 2) for i in range(width)]


class AtomColumns:
    """A live set of atom masks over ``width`` constants in transposed form.

    Every atom has a position, and ``columns[i]`` is the bitset of the live
    positions of the atoms below constant ``i``, one column per constant of
    the signature. For distinct masks the atoms inside a mask are the live
    positions that no column of a constant outside the mask reaches, so a
    whole redundancy test is one pass of bitwise operations over the
    constants instead of a loop over atom pairs.

    The set can change in place: :meth:`drop` clears positions and
    :meth:`extend` appends masks at new ones, so a chain of crossings keeps
    one index (see :func:`atomlat.crossing.cross_runs`).
    """

    def __init__(self, masks: Sequence[int], width: int):
        self.width = width
        self._load(list(masks))

    def _load(self, masks: list[int]):
        self.masks = masks
        self.position = {mask: pos for pos, mask in enumerate(masks)}
        self.live = (1 << len(masks)) - 1
        self.columns = _transpose(masks, self.width)

    def meeting(self, term: int) -> int:
        """The bitset of the live positions of the atoms below some constant of ``term``."""
        columns = self.columns
        out = 0
        while term:
            low = term & -term
            out |= columns[low.bit_length() - 1]
            term ^= low
        return out

    def masks_at(self, positions: int) -> list[int]:
        """The masks at the given positions, in position order."""
        masks = self.masks
        return [masks[pos] for pos in bit_indices(positions)]

    def extend(self, masks: Sequence[int]):
        """Append masks not in the set, at new positions, by one transposition."""
        base = len(self.masks)
        self.masks.extend(masks)
        position = self.position
        for pos, mask in enumerate(masks, base):
            position[mask] = pos
        self.live |= ((1 << len(masks)) - 1) << base
        columns = self.columns
        for i, column in enumerate(_transpose(masks, self.width)):
            if column:
                columns[i] |= column << base

    def drop(self, positions: int):
        """Remove the atoms at the given live positions.

        The positions are renumbered once the dead ones outnumber the live
        ones, so no position is kept across a call.
        """
        if not positions:
            return
        touched = 0
        for mask in self.masks_at(positions):
            del self.position[mask]
            touched |= mask
        self.live &= ~positions
        columns = self.columns
        for i in bit_indices(touched):
            columns[i] &= ~positions
        if len(self.masks) > 2 * self.live.bit_count():
            self._load(self.masks_at(self.live))

    def redundant(self, mask: int) -> bool:
        """:func:`is_redundant` for ``mask`` against the live atoms.

        A constant of ``mask`` that no live atom covers has an empty column,
        so such a mask is never redundant.
        """
        # The live atoms strictly narrower than the mask: no column of a
        # constant outside it reaches them, and the mask's own position is out.
        below = self.live & ~self.meeting(((1 << self.width) - 1) & ~mask)
        pos = self.position.get(mask)
        if pos is not None:
            below &= ~(1 << pos)
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
    still generate everything that is dropped. It also means that dropping a
    redundant atom early changes no other atom's verdict. Three facts about
    crossing follow, which :func:`atomlat.crossing._replace` uses:

    - crossing a reduced model leaves every atom it does not replace
      non-redundant: a witness ``h | b`` of such an atom can be traded for its
      own parts ``h`` and ``b``, which are strictly narrower atoms of the
      model before crossing, so the atom would already have been redundant;
    - for atoms b1 ⊊ b2 below the right term, ``h | b2 = (h | b1) | b2``
      is redundant or a duplicate, so only the inclusion-minimal atoms below
      the right term need to be unioned;
    - for a replaced atom ``h`` and minimal atoms b, b' below the right term
      whose traces nest, ``b' & ~h ⊊ b & ~h``, the union ``h | b`` is
      redundant: ``h | b'`` and the kept ``b`` are strictly narrower and
      together cover it (``h ⊆ b`` would put b' strictly inside b). So only
      the unions of inclusion-minimal traces need the redundancy test.

    The test runs on :class:`AtomColumns`, one bitset per constant over the
    atom positions; :func:`is_redundant` stays the single-atom definition.

    >>> sig = Signature.of("a b")
    >>> reduce(new_model(sig, [sig.atom("a"), sig.atom("b"), sig.atom("a b")])).atoms
    (Atom((0,)), Atom((1,)))
    """
    index = AtomColumns(list(dict.fromkeys(model.masks)), len(model.sig))
    dropped = {mask for mask in index.position if index.redundant(mask)}
    if not dropped:
        return model
    return Model(model.sig, tuple([mask for mask in model.masks if mask not in dropped]))


def union_model(a: Model, b: Model) -> Model:
    """The model atomized by the union of both atom sets."""
    _require_same_sig(a, b)
    return Model(a.sig, canonical_masks(a.masks + b.masks))


def is_freer(a: Model, b: Model) -> bool:
    """Whether ``a`` is freer than or as free as ``b``.

    Holds exactly when every atom of ``b`` is an atom of ``a`` or a union of
    atoms of ``a`` (redundant against ``a``); equivalently, every negative
    sentence of ``b`` is a negative sentence of ``a``.
    """
    _require_same_sig(a, b)
    index = AtomColumns(a.masks, len(a.sig))
    return all(phi in index.position or index.redundant(phi) for phi in b.masks)


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


def segment_signatures(model: Model, terms: Iterable[int]) -> list[int]:
    """The segment of each term mask in ``terms``, in the order given.

    A segment is the bitmask over atom positions of the atoms below the
    term, read off the per-constant columns by :meth:`AtomColumns.meeting`.
    """
    index = AtomColumns(model.masks, len(model.sig))
    return [index.meeting(term) for term in terms]


def enumerate_elements(model: Model, cap: int = ENUM_CAP_DEFAULT) -> tuple[ElementClass, ...]:
    """The element classes of the model: ``enumerate_theory(model, cap).elements()``."""
    return enumerate_theory(model, cap).elements()


def enumerate_theory(model: Model, cap: int = ENUM_CAP_DEFAULT) -> TheorySlice:
    """The order on every term over the signature, as a :class:`TheorySlice`.

    Read off the atoms: an atom lies below the terms that contain one of its
    constants, the union of a fixed bitset per constant, and a constant's row
    is the intersection of those sets over the atoms below it. Those rows
    extend to all terms by :meth:`TheorySlice.from_constant_rows`.
    """
    _check_cap(model.sig, cap)
    n = len(model.sig)
    every = (1 << (1 << n)) - 1
    # containing[i]: the term masks with bit i, a run of 2**i in every 2**(i + 1)
    containing = [every // ((1 << (2 << i)) - 1) * (((1 << (1 << i)) - 1) << (1 << i))
                  for i in range(n)]
    rows = [every ^ 1] * n
    for mask in model.masks:
        constants = list(bit_indices(mask))
        meeting = 0
        for i in constants:
            meeting |= containing[i]
        for i in constants:
            rows[i] &= meeting
    return TheorySlice.from_constant_rows(model.sig, rows)
