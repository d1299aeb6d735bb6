"""Line-oriented script DSL.

A script declares constants, optionally an explicit starting atomization,
and then sentences; juxtaposition of names is the idempotent sum::

    constants a b c d e
    atom b e              # starting atom (upper constant segment)
    assert b <= a d       # positive sentence, added to the model
    deny c <= a           # negative sentence, checked on the final model
    show atoms            # print a section while running

Without any ``atom`` line the model starts from the singleton atoms (the
free model); with at least one, it starts from exactly the declared atoms.
``atom`` lines must precede all sentences and ``show`` directives.

The names of an ``atom`` line and of each side of a sentence are read by
:meth:`Signature.atom` and :meth:`Signature.term`, as model documents, CLI
term arguments and library calls read them, so a script fails on the same
input with the same message, after its line number.

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

from .core import Atom, Duple, Signature, canonical_terms
from .errors import (
    DuplicateConstant,
    InvalidConstantName,
    ParseError,
    UndeclaredConstant,
    UnknownConstant,
)
from .crossing import cross_runs, freest_model
from .model import (
    ENUM_CAP_DEFAULT,
    Model,
    enumerate_elements,
    enumerate_theory,
    holds,
    new_model,
)

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
        return tuple([s.atom for s in self.statements if isinstance(s, AtomDecl)])

    def positives(self) -> tuple[Duple, ...]:
        return tuple([s.duple for s in self.statements if isinstance(s, Assertion)])


def _duple(sig: Signature, tokens: list[str]) -> Duple:
    """The duple ``left <= right`` of the tokens; each side is read by :meth:`Signature.term`."""
    if tokens.count("<=") != 1:
        raise ValueError("expected exactly one '<=' between two terms")
    split = tokens.index("<=")
    return Duple(sig.term(tokens[:split]), sig.term(tokens[split + 1 :]))


def parse_script(text: str) -> Script:
    """Parse a script; errors carry the 1-based line number.

    An unknown name raises :class:`UndeclaredConstant`, any other error in a
    statement :class:`ParseError`.
    """
    names: list[str] = []
    sig: Signature | None = None
    statements: list[Statement] = []
    sentences_started = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword, *rest = line.split()
        try:
            if keyword == "constants":
                if statements:
                    raise ValueError("constants must be declared before any statement")
                if not rest:
                    raise ValueError("constants line needs at least one name")
                names += rest
                sig = Signature(tuple(names))
            elif sig is None:
                raise ValueError("constants must be declared first")
            elif keyword == "atom":
                if sentences_started:
                    raise ValueError("atom declarations must precede sentences and shows")
                statements.append(AtomDecl(lineno, sig.atom(rest)))
            elif keyword == "assert":
                sentences_started = True
                statements.append(Assertion(lineno, _duple(sig, rest)))
            elif keyword == "deny":
                sentences_started = True
                statements.append(Denial(lineno, _duple(sig, rest)))
            elif keyword == "show":
                sentences_started = True
                if len(rest) != 1 or rest[0] not in SHOW_SECTIONS:
                    raise ValueError("show needs one of: atoms, elements, theory")
                statements.append(ShowDirective(lineno, rest[0]))
            else:
                raise ValueError(f"unknown keyword {keyword!r}")
        except UnknownConstant as exc:
            raise UndeclaredConstant(lineno, exc.name) from None
        except (ValueError, InvalidConstantName, DuplicateConstant) as exc:
            raise ParseError(lineno, str(exc)) from None
    if sig is None:
        raise ParseError(1, "script declares no constants")
    return Script(sig, tuple(statements))


def parse_duple_text(sig: Signature, text: str) -> Duple:
    """Parse a free-standing duple argument like ``"b <= a d"``."""
    return _duple(sig, text.split())


def format_duple(sig: Signature, duple: Duple) -> str:
    return f"{duple.left.label(sig)} <= {duple.right.label(sig)}"


def _show(model: Model, section: str, emit: Callable[[str], object], cap: int):
    if section == "atoms":
        names_of = model.sig.names_of
        for mask in model.masks:
            emit(f"atom {' '.join(names_of(mask))}\n")
    elif section == "elements":
        label = dict(canonical_terms(model.sig))
        for cls in enumerate_elements(model, cap):
            members = ", ".join([label[t.mask] for t in cls.terms])
            emit(f"element {label[cls.representative.mask]} {{ {members} }}\n")
    else:
        labels = [label for _, label in canonical_terms(model.sig)]
        # one write per left term; its row holds itself (s <= s), so it is never empty
        for left, rights in enumerate_theory(model, cap).rows_in_order(labels):
            prefix = left + " <= "
            emit(prefix + ("\n" + prefix).join(rights) + "\n")


def run_script(
    script: Script,
    reduce_policy: str = "after_each",
    emit: Callable[[str], object] | None = None,
    cap: int = ENUM_CAP_DEFAULT,
) -> tuple[Model, tuple[tuple[Denial, bool], ...]]:
    """Execute a script: build the model, write shows, evaluate denials.

    Returns the final model and, per denial, whether the built model entails
    the denied sentence positively (an inconsistency). ``show`` directives
    are evaluated only when ``emit`` is given: a write callable in the
    shape of ``TextIO.write``, such as ``sys.stdout.write`` or the
    ``write`` of an ``io.StringIO``. Each call passes one or more whole
    lines, each ending in ``"\\n"``; ``show theory`` makes one call per
    left term.

    The ``assert`` lines are crossed run by run, a run being the asserts
    between two shows, on the one chain of
    :func:`atomlat.crossing.cross_runs`: under ``after_each`` each run is
    sorted once by the growth key of :func:`atomlat.crossing.cross_runs`,
    and a show sees the same model as script order gives, since the reduced
    atomization is unique; under ``never`` the runs fold in script order.
    The first crossing takes the reference path, which also reduces
    declared ``atom`` lines; a ``show`` before the first ``assert``, and a
    script without one, see the declared atoms as given.
    """
    declared = script.atoms()
    start = new_model(script.sig, declared) if declared else freest_model(script.sig)
    runs: list[list[Duple]] = [[]]
    sections: list[str] = []
    for statement in script.statements:
        if isinstance(statement, Assertion):
            runs[-1].append(statement.duple)
        elif isinstance(statement, ShowDirective) and emit is not None:
            sections.append(statement.section)
            runs.append([])
    models = cross_runs(start, runs, reduce_policy)
    for section in sections:
        _show(next(models), section, emit, cap)
    model = next(models)
    verdicts = tuple([
        (statement, holds(model, statement.duple))
        for statement in script.statements
        if isinstance(statement, Denial)
    ])
    return model, verdicts
