"""Command-line interface.

Inputs are either model JSON documents (first non-blank character ``{``) or
scripts in the line DSL. Results go to stdout or to ``-o``; diagnostics go to
stderr. Exit codes: 0 success or consistent, 1 inconsistent negative
sentences, 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys

from .algebra import (
    embed_in_free,
    join,
    product,
    quotient,
    rename,
    restrict,
    subalgebra,
    subdirect_decomposition,
)
from .crossing import REDUCE_POLICIES
from .errors import AtomlatError
from .model import ENUM_CAP_DEFAULT, Model, _check_cap, enumerate_theory, holds, reduce
from .oracle import closure_oracle
from .script import (
    ShowDirective,
    format_duple,
    parse_duple_text,
    parse_script,
    run_script,
)
from .serialize import (
    decomposition_to_dict,
    embedding_to_dict,
    json_text,
    model_from_json,
    model_to_dot,
    model_to_json,
    rename_map_from_json,
)

EXIT_OK = 0
EXIT_INCONSISTENT = 1
EXIT_ERROR = 2


class _InconsistentInput(Exception):
    def __init__(self, failures: list[str]):
        super().__init__("input script denies entailed sentences")
        self.failures = failures


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _load_model(path: str, reduce_policy: str = "after_each") -> Model:
    """Load a model document or build one from a script.

    A script whose deny lines are entailed by its own build is rejected as
    inconsistent input. Its ``show`` lines print nothing here, so that a
    command's output is its result alone; ``check`` prints them.
    """
    text = _read_text(path)
    if text.lstrip().startswith("{"):
        return model_from_json(text)
    script = parse_script(text)
    model, verdicts = run_script(script, reduce_policy)
    failures = [
        format_duple(script.sig, denial.duple)
        for denial, entailed in verdicts
        if entailed
    ]
    if failures:
        raise _InconsistentInput(failures)
    return model


def _result_stream(args):
    """stdout, or the ``-o`` file opened for writing, to use in a ``with``."""
    if args.output:
        return open(args.output, "w", encoding="utf-8")
    return contextlib.nullcontext(sys.stdout)


def _write_result(args, text: str):
    with _result_stream(args) as out:
        out.write(text)


def _emit_model(args, model: Model) -> int:
    _write_result(args, model_to_json(model))
    return EXIT_OK


def _cmd_build(args) -> int:
    return _emit_model(args, _load_model(args.file, args.reduce))


def _cmd_reduce(args) -> int:
    return _emit_model(args, reduce(_load_model(args.file)))


def _cmd_query(args) -> int:
    model = _load_model(args.file)
    duple = parse_duple_text(model.sig, args.duple)
    answer = "positive" if holds(model, duple) else "negative"
    _write_result(args, answer + "\n")
    return EXIT_OK


def _cmd_restrict(args) -> int:
    model = _load_model(args.file)
    return _emit_model(args, restrict(model, args.keep))


def _cmd_rename(args) -> int:
    model = _load_model(args.file)
    return _emit_model(args, rename(model, rename_map_from_json(args.map)))


def _cmd_quotient(args) -> int:
    model = _load_model(args.file)
    left, right = model.sig.term(args.left), model.sig.term(args.right)
    return _emit_model(args, quotient(model, left, right))


def _cmd_join(args) -> int:
    m = _load_model(args.file)
    n = _load_model(args.other)
    return _emit_model(args, join(m, n))


def _cmd_product(args) -> int:
    m = _load_model(args.file)
    n = _load_model(args.other)
    return _emit_model(args, product(m, n, identify_diagonal=args.identify_diagonal))


def _cmd_subalgebra(args) -> int:
    model = _load_model(args.file)
    generators = [model.sig.term(text) for text in args.gen]
    return _emit_model(args, subalgebra(model, generators, args.names))


def _cmd_decompose(args) -> int:
    model = _load_model(args.file)
    doc = decomposition_to_dict(subdirect_decomposition(model))
    _write_result(args, json_text(doc) + "\n")
    return EXIT_OK


def _cmd_embed_free(args) -> int:
    model = _load_model(args.file)
    free_sig, terms = embed_in_free(model)
    doc = embedding_to_dict(model, free_sig, terms)
    _write_result(args, json_text(doc) + "\n")
    return EXIT_OK


def _cmd_check(args) -> int:
    text = _read_text(args.file)
    if text.lstrip().startswith("{"):
        print("error: check needs a script with sentences, not a model document", file=sys.stderr)
        return EXIT_ERROR
    script = parse_script(text)
    if args.oracle and script.atoms():
        print("error: --oracle applies to sentence-only scripts (no atom lines)", file=sys.stderr)
        return EXIT_ERROR
    # the cap is checked before -o truncates an existing file
    if any(isinstance(s, ShowDirective) and s.section != "atoms" for s in script.statements):
        _check_cap(script.sig, args.cap)
    relation = closure_oracle(script.sig, script.positives(), args.cap) if args.oracle else None
    with _result_stream(args) as out:
        return _check_script(args, script, relation, out.write)


def _check_script(args, script, relation, write) -> int:
    model, verdicts = run_script(script, "after_each", emit=write, cap=args.cap)
    for denial, entailed in verdicts:
        status = "ENTAILED-POSITIVE" if entailed else "SATISFIABLE"
        write(f"deny {format_duple(script.sig, denial.duple)}: {status}\n")
    if relation is not None:
        for denial, entailed in verdicts:
            if (denial.duple in relation) != entailed:
                print(
                    f"error: oracle disagrees on deny {format_duple(script.sig, denial.duple)}",
                    file=sys.stderr,
                )
                return EXIT_ERROR
        if enumerate_theory(model, args.cap) != relation:
            print("error: oracle disagrees on the theory", file=sys.stderr)
            return EXIT_ERROR
        write("oracle agrees\n")
    inconsistent = any(entailed for _, entailed in verdicts)
    write("inconsistent\n" if inconsistent else "consistent\n")
    return EXIT_INCONSISTENT if inconsistent else EXIT_OK


def _cmd_export(args) -> int:
    model = _load_model(args.file)
    if args.dot:
        _write_result(args, model_to_dot(model, args.cap))
    else:
        _write_result(args, model_to_json(model))
    return EXIT_OK


def _cap(text: str) -> int:
    """A ``--cap`` value: an integer of at least 1, since no signature is smaller."""
    try:
        cap = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if cap < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {cap}")
    return cap


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first :func:`main` call.

    Building it costs more than a small job, so it is kept for the process;
    ``parse_args`` leaves no state in it, so repeated calls with different
    arguments see a fresh namespace each time.
    """
    parser = argparse.ArgumentParser(
        prog="atomlat",
        description="Build, transform and check atomized semilattice models.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-o", "--output", help="write the result to a file")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, cap=False):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("file", help="model JSON document or script (- for stdin)")
        if cap:
            p.add_argument("--cap", type=_cap, default=ENUM_CAP_DEFAULT,
                           help="enumeration cap on the number of constants")
        p.set_defaults(handler=handler)
        return p

    p = add("build", _cmd_build, "build a model from a script and print it as JSON")
    p.add_argument("--reduce", default="after_each",
                   choices=REDUCE_POLICIES,
                   help="when to drop redundant atoms while crossing")
    add("reduce", _cmd_reduce, "print the unique non-redundant atomization")
    p = add("query", _cmd_query, "evaluate one duple against the model")
    p.add_argument("duple", help="duple text, e.g. 'b <= a d'")
    p = add("restrict", _cmd_restrict, "restrict the model to a subset of constants")
    p.add_argument("--keep", nargs="+", required=True, metavar="NAME")
    p = add("rename", _cmd_rename, "apply a rename map given as JSON")
    p.add_argument("--map", required=True, help='e.g. \'{"map": {"a": ["x"]}, "targets": ["x"]}\'')
    p = add("quotient", _cmd_quotient, "quotient by the congruence identifying two terms")
    p.add_argument("left", help="term text, e.g. 'a'")
    p.add_argument("right", help="term text, e.g. 'a b'")
    p = add("join", _cmd_join, "join two models over merged constants")
    p.add_argument("other", help="second model document or script")
    p = add("product", _cmd_product, "product of two models over pair constants")
    p.add_argument("other", help="second model document or script")
    p.add_argument("--identify-diagonal", action="store_true",
                   help="glue shared constants back onto the diagonal")
    p = add("subalgebra", _cmd_subalgebra, "subalgebra generated by terms, under fresh names")
    p.add_argument("--gen", nargs="+", required=True, metavar="TERM")
    p.add_argument("--names", nargs="+", required=True, metavar="NAME")
    add("decompose", _cmd_decompose, "subdirect decomposition into two-element factors")
    add("embed-free", _cmd_embed_free, "embedding data into a free model, one constant per atom")
    p = add("check", _cmd_check, "report each denied sentence as satisfiable or entailed",
            cap=True)
    p.add_argument("--oracle", action="store_true",
                   help="cross-check entailment against the closure oracle")
    p = add("export", _cmd_export, "serialize the model", cap=True)
    p.add_argument("--dot", action="store_true", help="Hasse diagram in DOT format, not JSON")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except _InconsistentInput as exc:
        for failure in exc.failures:
            print(f"inconsistent: deny {failure} is entailed", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (AtomlatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
