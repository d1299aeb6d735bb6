"""Exceptions and warnings shared across the package.

An error that names a constant shows it through :func:`reprlib.repr`, cut to
a few dozen characters, since the name may be any value from a document.
"""

import reprlib


class AtomlatError(Exception):
    """Base class for all errors raised by this package."""


class EmptySignature(AtomlatError):
    """A signature must declare at least one constant."""


class DuplicateConstant(AtomlatError):
    """A signature must not declare the same constant twice."""

    def __init__(self, name: str):
        super().__init__(f"repeated constant {reprlib.repr(name)}")
        self.name = name


class InvalidConstantName(AtomlatError):
    """Constant names are non-empty strings without whitespace or ``#``, and not ``<=``.

    ``#`` opens a comment in scripts and ``<=`` separates the two terms of a
    sentence. The rule is the same for scripts, JSON and library calls, and
    for a name that is declared and one that is looked up.

    >>> InvalidConstantName(list(range(10**5)))
    InvalidConstantName('bad constant name [0, 1, 2, 3, 4, 5, ...]')
    """

    def __init__(self, name: object):
        super().__init__(f"bad constant name {reprlib.repr(name)}")
        self.name = name


class UnknownConstant(AtomlatError):
    """A name was looked up that the signature does not declare."""

    def __init__(self, name: str):
        super().__init__(f"constant {reprlib.repr(name)} is not in the signature")
        self.name = name


class SignatureMismatch(AtomlatError):
    """Operands built over different signatures were combined."""


class ZeroAtomHasNoPinningTerm(AtomlatError):
    """The zero atom sits below every constant, leaving no term to pin it."""


class CapExceeded(AtomlatError):
    """The signature is too large for exhaustive enumeration."""


class EmptyRestrictionSet(AtomlatError):
    """Restriction requires a non-empty set of constants to keep."""


class UnknownTargetConstant(AtomlatError):
    """A rename maps onto a constant missing from the target signature."""


class RenameMapIncomplete(AtomlatError):
    """A rename map must give a (possibly empty) target set for every source constant."""


class NameCollision(AtomlatError):
    """A freshly introduced constant name clashes with an existing one."""


class TrivialModel(AtomlatError):
    """The operation is undefined on the one-element model."""


class ParseError(AtomlatError):
    """A script line could not be parsed."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


class UndeclaredConstant(ParseError):
    """A script used a constant before declaring it."""

    def __init__(self, line: int, name: str):
        super().__init__(line, f"undeclared constant {reprlib.repr(name)}")
        self.name = name


class CoverageRepairWarning(UserWarning):
    """Emitted when model construction inserts the zero atom to cover constants."""
