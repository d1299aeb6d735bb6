"""Signatures, atoms, terms and duples.

An atom is identified by the set of constants sitting strictly above it (its
upper constant segment); a term by the non-empty set of constants it sums.
Both sets are stored as integer bitmasks over the positions of the constants
in the signature, so the set algebra is plain integer arithmetic and there is
no cap on the number of constants. Names matter only where input comes in,
and :meth:`Signature.mask_of_names` is the one lookup that turns them into
bits, for scripts, model documents, CLI arguments and library calls alike;
everything else works on masks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import pairwise
from typing import ClassVar, Iterable, Iterator

from .errors import (
    DuplicateConstant,
    EmptySignature,
    InvalidConstantName,
    SignatureMismatch,
    UnknownConstant,
    ZeroAtomHasNoPinningTerm,
)


def bit_indices(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices: Iterable[int]) -> int:
    out = 0
    for i in indices:
        out |= 1 << i
    return out


@dataclass(frozen=True)
class Signature:
    """An ordered tuple of distinct constant names.

    A name is a non-empty string with no whitespace, no ``#`` (the comment
    marker of scripts) and not ``<=`` (the sentence separator), whatever the
    source: script, JSON or library call.
    """

    names: tuple[str, ...]

    def __post_init__(self):
        if not self.names:
            raise EmptySignature("a signature needs at least one constant")
        for name in self.names:
            if not isinstance(name, str) or name.split() != [name] or "#" in name or name == "<=":
                raise InvalidConstantName(name)
        if len(set(self.names)) != len(self.names):
            repeated = next(name for name, count in Counter(self.names).items() if count > 1)
            raise DuplicateConstant(repeated)

    @classmethod
    def of(cls, names: str | Iterable[str]) -> "Signature":
        """Build from a space-separated string or an iterable of names."""
        if isinstance(names, str):
            names = names.split()
        return cls(tuple(names))

    @cached_property
    def _bits(self) -> dict[str, int]:
        return {name: 1 << i for i, name in enumerate(self.names)}

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return isinstance(name, str) and name in self._bits

    def index_of(self, name: str) -> int:
        return self.mask_of_names((name,)).bit_length() - 1

    @property
    def full_mask(self) -> int:
        return (1 << len(self.names)) - 1

    def names_of(self, mask: int) -> tuple[str, ...]:
        return tuple([self.names[i] for i in bit_indices(mask)])

    def mask_of_names(self, names: str | Iterable[str]) -> int:
        """The bitmask of the named constants; a string is split on whitespace.

        An unknown name raises :class:`UnknownConstant`, a non-string
        :class:`InvalidConstantName`.

        >>> sig = Signature.of("a b c")
        >>> sig.mask_of_names("c a") == sig.mask_of_names(["a", "c"]) == 0b101
        True
        >>> sig.mask_of_names("ab")
        Traceback (most recent call last):
            ...
        atomlat.errors.UnknownConstant: constant 'ab' is not in the signature
        """
        if isinstance(names, str):
            names = names.split()
        bits = self._bits
        mask = 0
        for name in names:
            try:
                mask |= bits[name]
            except (KeyError, TypeError):
                if not isinstance(name, str):
                    raise InvalidConstantName(name) from None
                raise UnknownConstant(name) from None
        return mask

    def term(self, text: str | Iterable[str]) -> "Term":
        """The term summing the named constants."""
        return Term(self.mask_of_names(text))

    def atom(self, text: str | Iterable[str]) -> "Atom":
        """The atom whose upper constant segment holds the named constants."""
        return Atom(self.mask_of_names(text))


@dataclass(frozen=True)
class _ConstantSet:
    """A non-empty set of constants as a bitmask; equal only within one subclass."""

    mask: int
    _empty: ClassVar[str]

    def __post_init__(self):
        if self.mask <= 0:
            raise ValueError(self._empty)

    def indices(self) -> tuple[int, ...]:
        return tuple(bit_indices(self.mask))

    def names(self, sig: Signature) -> tuple[str, ...]:
        return sig.names_of(self.mask)

    def label(self, sig: Signature) -> str:
        return " ".join(self.names(sig))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.indices()})"


class Atom(_ConstantSet):
    """An atom, identified by the bitmask of its upper constant segment."""

    _empty = "an atom must sit below at least one constant"


class Term(_ConstantSet):
    """A term in canonical form: the bitmask of its component constants."""

    _empty = "a term must sum at least one constant"


@dataclass(frozen=True)
class Duple:
    """An ordered pair of terms, the sentence left <= right."""

    left: Term
    right: Term


def zero_atom(sig: Signature) -> Atom:
    """The atom below every constant of the signature."""
    return Atom(sig.full_mask)


def pinning(phi: Atom, sig: Signature) -> tuple[Term, tuple[Duple, ...]]:
    """The pinning term of ``phi`` and its pinning duples, which ``phi`` denies.

    The pinning term sums the constants outside the atom's upper segment; the
    pinning duples say, for each constant c above the atom, that c lies below
    that term, and ``phi`` falsifies each of them. Undefined for the zero
    atom, whose upper segment leaves no constants to sum, and for an atom
    outside the signature.
    """
    if phi.mask & ~sig.full_mask:
        raise SignatureMismatch(f"atom {phi.indices()} uses constants outside the signature")
    rest = sig.full_mask & ~phi.mask
    if rest == 0:
        raise ZeroAtomHasNoPinningTerm(
            "the zero atom leaves no constants for a pinning term"
        )
    pin = Term(rest)
    return pin, tuple(Duple(Term(1 << i), pin) for i in bit_indices(phi.mask))


_KEY_DIGITS = str.maketrans("01", "10")


def canonical_key(value: Atom | Term) -> str:
    """Sort key for the canonical order: lexicographic on sorted index lists.

    The key spells the bits from index 0 up to the highest set one, a set bit
    as ``0`` and a clear one as ``1``. Where two keys first differ, the value
    with the bit set has the smaller next index, and a key that ends first
    belongs to a prefix of the other index list, so string order is the
    index-list order without building the lists.

    >>> sig = Signature.of("a b c")
    >>> [a.label(sig) for a in sorted(map(sig.atom, ["c", "a b c", "b", "a"]), key=canonical_key)]
    ['a', 'a b c', 'b', 'c']
    """
    return _mask_key(value.mask)


def _mask_key(mask: int) -> str:
    return bin(mask)[:1:-1].translate(_KEY_DIGITS)


def canonical_masks(masks: Iterable[int]) -> tuple[int, ...]:
    """The distinct masks, first occurrences kept, in canonical order.

    This is the one order step of every model builder. The masks are sorted
    by :func:`canonical_key` only when :func:`_in_order` finds two
    neighbours out of order, so a document written in canonical order is
    read without a sort.

    >>> canonical_masks([0b100, 0b001, 0b111, 0b010, 0b100])
    (1, 7, 2, 4)
    """
    out = list(dict.fromkeys(masks))
    if not _in_order(out):
        out.sort(key=_mask_key)
    return tuple(out)


def _in_order(masks: list[int]) -> bool:
    """Whether distinct masks are in canonical order, by one pass over neighbours.

    For neighbours ``a`` and ``b``, with ``p`` the lowest bit where they
    differ, the index lists agree below ``p``. If ``a`` holds ``p``, it
    comes first exactly when ``b`` goes on past ``p`` (``b > p``); if ``b``
    holds it, exactly when ``a`` stops before ``p`` (``a < p``).
    """
    for a, b in pairwise(masks):
        p = a ^ b
        p &= -p
        if not ((b > p) if a & p else (a < p)):
            return False
    return True


def canonical_terms(sig: Signature) -> Iterator[tuple[int, str]]:
    """Yield ``(mask, label)`` for every term over ``sig``, in canonical order.

    The order is the preorder of the subset tree: for each constant i in
    turn, the term {i}, then i joined to each term of constants above i.
    The walk is built from the last constant back, each label from a
    shorter one plus one name, with no :class:`Term`, key or sort.

    >>> sig = Signature.of("a b c")
    >>> list(canonical_terms(sig))
    [(1, 'a'), (3, 'a b'), (7, 'a b c'), (5, 'a c'), (2, 'b'), (6, 'b c'), (4, 'c')]
    >>> _ == [(t.mask, t.label(sig)) for t in sorted(map(Term, range(1, 8)), key=canonical_key)]
    True
    """
    walk: list[tuple[int, str]] = []
    for i in reversed(range(len(sig))):
        # walk holds the terms over constants above i; those with i come first
        bit, name = 1 << i, sig.names[i]
        walk = [(bit, name), *[(bit | mask, name + " " + label) for mask, label in walk], *walk]
    yield from walk
