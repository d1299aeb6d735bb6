"""Signatures, atoms, terms and duples.

An atom is identified by the set of constants sitting strictly above it (its
upper constant segment); a term by the non-empty set of constants it sums.
Both sets are stored as integer bitmasks over the positions of the constants
in the signature, so the set algebra is plain integer arithmetic and there is
no cap on the number of constants. Names matter only at the serialization
boundary; everything else works on indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .errors import (
    DuplicateConstant,
    EmptySignature,
    InvalidConstantName,
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
    """An ordered tuple of distinct constant names."""

    names: tuple[str, ...]

    def __post_init__(self):
        if not self.names:
            raise EmptySignature("a signature needs at least one constant")
        for name in self.names:
            if not name or name.split() != [name]:
                raise InvalidConstantName(f"bad constant name {name!r}")
        if len(set(self.names)) != len(self.names):
            raise DuplicateConstant(f"repeated constant in {self.names}")

    @classmethod
    def of(cls, names: str | Iterable[str]) -> "Signature":
        """Build from a space-separated string or an iterable of names."""
        if isinstance(names, str):
            names = names.split()
        return cls(tuple(names))

    @cached_property
    def _index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownConstant(f"constant {name!r} is not in the signature") from None

    @property
    def full_mask(self) -> int:
        return (1 << len(self.names)) - 1

    def names_of(self, mask: int) -> tuple[str, ...]:
        return tuple(self.names[i] for i in bit_indices(mask))

    def mask_of_names(self, names: Iterable[str]) -> int:
        return mask_of(self.index_of(n) for n in names)

    def term(self, text: str | Iterable[str]) -> "Term":
        """Parse a term from a space-separated string (or iterable) of names."""
        if isinstance(text, str):
            text = text.split()
        return Term(self.mask_of_names(text))

    def atom(self, text: str | Iterable[str]) -> "Atom":
        """Build an atom from the names of its upper constant segment."""
        if isinstance(text, str):
            text = text.split()
        return Atom(self.mask_of_names(text))


@dataclass(frozen=True)
class Atom:
    """An atom, identified by the bitmask of its upper constant segment."""

    mask: int

    def __post_init__(self):
        if self.mask <= 0:
            raise ValueError("an atom must sit below at least one constant")

    def indices(self) -> tuple[int, ...]:
        return tuple(bit_indices(self.mask))

    def names(self, sig: Signature) -> tuple[str, ...]:
        return sig.names_of(self.mask)

    def label(self, sig: Signature) -> str:
        return " ".join(self.names(sig))

    def union(self, other: "Atom") -> "Atom":
        return Atom(self.mask | other.mask)

    def wider_than(self, other: "Atom") -> bool:
        """Strictly wider: the other upper segment is a proper subset."""
        return self.mask != other.mask and other.mask & ~self.mask == 0

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __repr__(self) -> str:
        return f"Atom({self.indices()})"


@dataclass(frozen=True)
class Term:
    """A term in canonical form: the bitmask of its component constants."""

    mask: int

    def __post_init__(self):
        if self.mask <= 0:
            raise ValueError("a term must sum at least one constant")

    def indices(self) -> tuple[int, ...]:
        return tuple(bit_indices(self.mask))

    def names(self, sig: Signature) -> tuple[str, ...]:
        return sig.names_of(self.mask)

    def label(self, sig: Signature) -> str:
        return " ".join(self.names(sig))

    def join(self, other: "Term") -> "Term":
        """The idempotent sum of two terms."""
        return Term(self.mask | other.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __repr__(self) -> str:
        return f"Term({self.indices()})"


@dataclass(frozen=True)
class Duple:
    """An ordered pair of terms; read positively it claims left <= right."""

    left: Term
    right: Term

    def signed(self, positive: bool) -> "SignedDuple":
        return SignedDuple(self.left, self.right, positive)


@dataclass(frozen=True)
class SignedDuple:
    """A duple together with the claim's polarity."""

    left: Term
    right: Term
    positive: bool

    @property
    def duple(self) -> Duple:
        return Duple(self.left, self.right)


def zero_atom(sig: Signature) -> Atom:
    """The atom below every constant of the signature."""
    return Atom(sig.full_mask)


def pinning(phi: Atom, sig: Signature) -> tuple[Term, tuple[SignedDuple, ...]]:
    """The pinning term of ``phi`` and its pinning duples.

    The pinning term sums the constants outside the atom's upper segment; the
    pinning duples deny, for each constant c above the atom, that c lies below
    that term. Undefined for the zero atom, whose upper segment leaves no
    constants to sum.
    """
    rest = sig.full_mask & ~phi.mask
    if rest == 0:
        raise ZeroAtomHasNoPinningTerm(
            "the zero atom leaves no constants for a pinning term"
        )
    pin = Term(rest)
    duples = tuple(
        SignedDuple(Term(1 << i), pin, positive=False) for i in bit_indices(phi.mask)
    )
    return pin, duples


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
    return bin(value.mask)[:1:-1].translate(_KEY_DIGITS)
