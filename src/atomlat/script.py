"""Line-oriented script DSL.

A script declares constants, optionally an explicit starting atomization,
and then sentences; juxtaposition of names is the idempotent sum::

    constants a b c d e
    atom b e              # starting atom (upper constant segment)
    assert b <= a d       # positive sentence, crossed in script order
    deny c <= a           # negative sentence, checked on the final model
    show atoms            # print a section while running

Without any ``atom`` line the model starts from the singleton atoms (the
free model); with at least one, it starts from exactly the declared atoms.
``atom`` lines must precede all sentences and ``show`` directives.

>>> script = parse_script("constants a b\\nassert a <= b")
>>> [d.left.names(script.sig) for d in script.positives()]
[('a',)]
>>> parse_script("constants a\\nassert a <= c")
Traceback (most recent call last):
    ...
atomlat.errors.UndeclaredConstant: line 2: undeclared constant 'c'
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .core import Atom, Duple, Signature, Term
from .errors import InvalidConstantName, ParseError, UndeclaredConstant, UnknownConstant
from .crossing import cross_positives, freest_model
from .model import (
    ENUM_CAP_DEFAULT,
    Model,
    enumerate_elements,
    enumerate_theory,
    holds,
    new_model,
)

RESERVED_IN_NAMES = ("'",)
SHOW_SECTIONS = ("atoms", "elements", "theory")


@dataclass(frozen=True)
class AtomDecl:
    line: int
    atom: Atom


@dataclass(frozen=True)
class Assertion:
    line: int
    duple: Duple


@dataclass(frozen=True)
class Denial:
    line: int
    duple: Duple


@dataclass(frozen=True)
class ShowDirective:
    line: int
    section: str


Statement = AtomDecl | Assertion | Denial | ShowDirective


@dataclass(frozen=True)
class Script:
    sig: Signature
    statements: tuple[Statement, ...]

    def atoms(self) -> tuple[Atom, ...]:
        return tuple(s.atom for s in self.statements if isinstance(s, AtomDecl))

    def positives(self) -> tuple[Duple, ...]:
        return tuple(s.duple for s in self.statements if isinstance(s, Assertion))

    def negatives(self) -> tuple[Duple, ...]:
        return tuple(s.duple for s in self.statements if isinstance(s, Denial))


def _check_name(line: int, name: str):
    for ch in RESERVED_IN_NAMES:
        if ch in name:
            raise ParseError(line, f"character {ch!r} is reserved and cannot appear in {name!r}")


def _term_from_tokens(sig: Signature, line: int | None, tokens: list[str]) -> Term:
    if not tokens:
        if line is None:
            raise ValueError("empty term")
        raise ParseError(line, "empty term")
    try:
        return Term(sig.mask_of_names(tokens))
    except UnknownConstant as exc:
        if line is None:
            raise
        raise UndeclaredConstant(line, exc.name) from None


def _duple_from_tokens(sig: Signature, line: int | None, tokens: list[str]) -> Duple:
    if tokens.count("<=") != 1:
        message = "expected exactly one '<=' between two terms"
        if line is None:
            raise ValueError(message)
        raise ParseError(line, message)
    split = tokens.index("<=")
    left = _term_from_tokens(sig, line, tokens[:split])
    right = _term_from_tokens(sig, line, tokens[split + 1 :])
    return Duple(left, right)


def parse_script(text: str) -> Script:
    """Parse a script; errors carry the 1-based line number."""
    names: list[str] = []
    sig: Signature | None = None
    statements: list[Statement] = []
    sentences_started = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword, *rest = line.split()
        if keyword == "constants":
            if statements:
                raise ParseError(lineno, "constants must be declared before any statement")
            if not rest:
                raise ParseError(lineno, "constants line needs at least one name")
            for name in rest:
                _check_name(lineno, name)
                if name in names:
                    raise ParseError(lineno, f"constant {name!r} declared twice")
                names.append(name)
            try:
                sig = Signature(tuple(names))
            except InvalidConstantName as exc:
                raise ParseError(lineno, str(exc)) from None
            continue
        if sig is None:
            raise ParseError(lineno, "constants must be declared first")
        if keyword == "atom":
            if sentences_started:
                raise ParseError(lineno, "atom declarations must precede sentences and shows")
            term = _term_from_tokens(sig, lineno, rest)
            statements.append(AtomDecl(lineno, Atom(term.mask)))
        elif keyword == "assert":
            sentences_started = True
            statements.append(Assertion(lineno, _duple_from_tokens(sig, lineno, rest)))
        elif keyword == "deny":
            sentences_started = True
            statements.append(Denial(lineno, _duple_from_tokens(sig, lineno, rest)))
        elif keyword == "show":
            sentences_started = True
            if len(rest) != 1 or rest[0] not in SHOW_SECTIONS:
                raise ParseError(lineno, "show needs one of: atoms, elements, theory")
            statements.append(ShowDirective(lineno, rest[0]))
        else:
            raise ParseError(lineno, f"unknown keyword {keyword!r}")
    if sig is None:
        raise ParseError(1, "script declares no constants")
    return Script(sig, tuple(statements))


def parse_term_text(sig: Signature, text: str) -> Term:
    """Parse a free-standing term argument like ``"a d"``."""
    return _term_from_tokens(sig, None, text.split())


def parse_duple_text(sig: Signature, text: str) -> Duple:
    """Parse a free-standing duple argument like ``"b <= a d"``."""
    return _duple_from_tokens(sig, None, text.split())


def format_duple(sig: Signature, duple: Duple) -> str:
    return f"{duple.left.label(sig)} <= {duple.right.label(sig)}"


def _show(model: Model, section: str, emit: Callable[[str], None], cap: int):
    if section == "atoms":
        for atom in model.atoms:
            emit(f"atom {atom.label(model.sig)}")
    elif section == "elements":
        for cls in enumerate_elements(model, cap):
            members = ", ".join(t.label(model.sig) for t in cls.terms)
            emit(f"element {cls.representative.label(model.sig)} {{ {members} }}")
    else:
        theory = enumerate_theory(model, cap)
        labels = [""] + [Term(m).label(model.sig) for m in range(1, len(theory.rows))]
        for duple in theory:
            emit(f"{labels[duple.left.mask]} <= {labels[duple.right.mask]}")


def run_script(
    script: Script,
    reduce_policy: str = "after_each",
    emit: Callable[[str], None] | None = None,
    cap: int = ENUM_CAP_DEFAULT,
) -> tuple[Model, tuple[tuple[Denial, bool], ...]]:
    """Execute a script: build the model, emit shows, evaluate denials.

    Returns the final model and, per denial, whether the built model entails
    the denied sentence positively (an inconsistency). ``show`` directives
    are evaluated only when ``emit`` is given. Crossing runs through
    :func:`atomlat.crossing.cross_positives`; under ``after_each`` its first
    step takes the reference path, which also reduces declared ``atom``
    lines. A ``show`` before the first ``assert``, and a script without one,
    see the declared atoms as given.
    """
    declared = script.atoms()
    start = new_model(script.sig, declared) if declared else freest_model(script.sig)
    shows: dict[int, list[str]] = {}
    crossed = 0
    for statement in script.statements:
        if isinstance(statement, Assertion):
            crossed += 1
        elif isinstance(statement, ShowDirective):
            shows.setdefault(crossed, []).append(statement.section)

    def show(step: int, current: Model):
        for section in shows.get(step, ()):
            _show(current, section, emit, cap)

    on_step = show if emit is not None and shows else None
    model = cross_positives(start, script.positives(), reduce_policy, on_step=on_step)
    verdicts = tuple(
        (statement, holds(model, statement.duple.signed(True)))
        for statement in script.statements
        if isinstance(statement, Denial)
    )
    return model, verdicts
