import doctest
import io

import pytest

import atomlat.script
from atomlat.algebra import join
from atomlat.core import Atom, Signature, Term
from atomlat.crossing import full_crossing
from atomlat.errors import InvalidConstantName, ParseError, UndeclaredConstant, UnknownConstant
from atomlat.script import (
    Assertion,
    AtomDecl,
    Denial,
    ShowDirective,
    format_duple,
    parse_duple_text,
    parse_script,
    run_script,
)
from atomlat.model import enumerate_theory, new_model, reduce
from atomlat.serialize import model_from_dict, model_from_json

from conftest import random_model, random_script, seeded

CROSS_SCRIPT = """\
constants a b c d e
atom a
atom a b
atom c d e
atom b e
atom c
atom d
assert b <= a d
"""


def test_doctests_pass():
    failures, _ = doctest.testmod(atomlat.script)
    assert failures == 0


def test_parse_minimal_script():
    script = parse_script("constants a b\nassert a <= b\n")
    assert script.sig.names == ("a", "b")
    positives = script.positives()
    assert len(positives) == 1
    assert positives[0].left == script.sig.term("a")
    assert positives[0].right == script.sig.term("b")


def test_parse_undeclared_constant_carries_line():
    with pytest.raises(UndeclaredConstant) as info:
        parse_script("constants a\nassert a <= c\n")
    assert info.value.line == 2
    assert "c" in str(info.value)


def test_parse_atoms_and_assertion():
    script = parse_script("constants a b c d e\natom b e\nassert b <= a d\n")
    atoms = script.atoms()
    assert [a.names(script.sig) for a in atoms] == [("b", "e")]
    r = script.positives()[0]
    assert r.left == script.sig.term("b")
    assert r.right == script.sig.term("a d")


def test_parse_full_example_script():
    script = parse_script(CROSS_SCRIPT)
    assert len(script.atoms()) == 6
    assert len(script.positives()) == 1


def test_comments_and_blank_lines_ignored():
    script = parse_script(
        "# header\nconstants a b  # trailing\n\nassert a <= b # why not\n"
    )
    assert script.sig.names == ("a", "b")
    assert len(script.positives()) == 1


def test_constants_must_come_first():
    with pytest.raises(ParseError) as info:
        parse_script("assert a <= b\nconstants a b\n")
    assert info.value.line == 1


def test_atoms_must_precede_sentences():
    with pytest.raises(ParseError) as info:
        parse_script("constants a b\nassert a <= b\natom a\n")
    assert info.value.line == 3


def test_reserved_characters_rejected():
    # a hash can never reach a name: it always opens a comment
    script = parse_script("constants a#b\n")
    assert script.sig.names == ("a",)


def test_hash_rejected_in_every_form():
    # '#' opens a comment in scripts, so no script can name a constant
    # "a#"; JSON documents and library calls refuse it the same way
    with pytest.raises(InvalidConstantName):
        Signature.of(["a#", "b"])
    with pytest.raises(InvalidConstantName):
        model_from_json('{"constants": ["a#", "b"], "atoms": [["a#"], ["b"]]}')
    assert "a#" not in parse_script("constants a# b\n").sig
    # primes are legal everywhere: join mints fresh primed copies itself
    assert Signature.of(["a'", "b"]).names == ("a'", "b")


def test_script_names_follow_the_signature_rules():
    script = parse_script("constants c c'\nassert c' <= c\n")
    assert script.sig.names == ("c", "c'")
    model, _ = run_script(script)
    joined = join(model, new_model(Signature.of("c"), [Atom(1)]))
    assert joined == model
    # a repeated name fails in Signature, reported on its constants line
    for text, line in (("constants a b a\n", 1), ("constants a\nconstants b a\n", 2)):
        with pytest.raises(ParseError) as info:
            parse_script(text)
        assert info.value.line == line
        assert "repeated constant" in str(info.value)


def test_sentence_separator_rejected_in_every_form():
    # a constant named "<=" could never be used: every sentence holding it
    # would show two separators
    with pytest.raises(InvalidConstantName):
        Signature.of("a <=")
    with pytest.raises(ParseError) as info:
        parse_script("constants a\nconstants <= b\n")
    assert info.value.line == 2
    with pytest.raises(InvalidConstantName):
        model_from_json('{"constants": ["a", "<="], "atoms": [["a"], ["<="]]}')
    # only the whole token is reserved
    script = parse_script("constants a<=b c\nassert a<=b <= c\n")
    assert script.positives()[0].left.names(script.sig) == ("a<=b",)


def test_every_input_path_resolves_names_alike():
    # library calls, term arguments, scripts and model documents all read
    # names through Signature.mask_of_names: the same names give the same
    # bits, and an undeclared one fails every path on the same name
    rng = seeded(75)
    sig = Signature.of("a b c1 d_2 e")
    pool = list(sig.names) + ["ab", "q", "c"]
    agreed = failed = 0
    for _ in range(400):
        names = [rng.choice(pool) for _ in range(rng.randint(1, 5))]
        text = rng.choice([" ", "  ", "\t"]).join(names)
        script = f"constants {' '.join(sig.names)}\natom {text}\nassert {text} <= a\n"
        doc = {"constants": list(sig.names), "atoms": [names, list(sig.names)]}
        unknown = next((name for name in names if name not in sig.names), None)
        if unknown is None:
            agreed += 1
            mask = 0
            for name in names:
                mask |= 1 << sig.names.index(name)
            assert sig.mask_of_names(text) == sig.mask_of_names(names) == mask
            assert sig.term(text) == sig.term(names) == Term(mask)
            assert sig.atom(text) == sig.atom(names) == Atom(mask)
            parsed = parse_script(script)
            assert parsed.atoms() == (Atom(mask),)
            assert parsed.positives()[0].left == Term(mask)
            assert model_from_dict(doc) == new_model(sig, [Atom(mask), Atom(sig.full_mask)])
            continue
        failed += 1
        for call in [
            lambda: sig.mask_of_names(text),
            lambda: sig.mask_of_names(names),
            lambda: sig.term(names),
            lambda: sig.atom(text),
            lambda: sig.term(text),
            lambda: model_from_dict(doc),
        ]:
            with pytest.raises(UnknownConstant) as info:
                call()
            assert info.value.name == unknown
        with pytest.raises(UndeclaredConstant) as info:
            parse_script(script)
        assert (info.value.line, info.value.name) == (2, unknown)
    assert agreed > 50 and failed > 50
    # the empty name list fails every path with the error of the empty term
    # or atom; a script gives it as a ParseError after its line number
    term_message = "a term must sum at least one constant"
    atom_message = "an atom must sit below at least one constant"
    header = f"constants {' '.join(sig.names)}\n"
    for message, calls, statements in [
        (term_message, [
            lambda: sig.term([]),
            lambda: sig.term(" "),
            lambda: parse_duple_text(sig, "<= a"),
            lambda: parse_duple_text(sig, "a <="),
        ], ["assert <= a", "assert a <=", "deny  <= a"]),
        (atom_message, [
            lambda: sig.atom([]),
            lambda: model_from_dict({"constants": list(sig.names), "atoms": [[], ["a"]]}),
        ], ["atom", "atom  # no names"]),
    ]:
        for call in calls:
            with pytest.raises(ValueError) as info:
                call()
            assert (type(info.value), str(info.value)) == (ValueError, message)
        for statement in statements:
            with pytest.raises(ParseError) as info:
                parse_script(header + "atom a\n" + statement + "\n")
            assert (type(info.value), str(info.value)) == (ParseError, "line 3: " + message)


def test_malformed_sentence_reports_line():
    with pytest.raises(ParseError) as info:
        parse_script("constants a b\nassert a b\n")
    assert info.value.line == 2
    with pytest.raises(ParseError):
        parse_script("constants a b\nassert a <= b <= a\n")


def test_unknown_directive_rejected():
    with pytest.raises(ParseError) as info:
        parse_script("constants a\nfrobnicate a\n")
    assert info.value.line == 2


def test_show_sections_validated():
    script = parse_script("constants a\nshow atoms\nshow theory\n")
    shows = [s for s in script.statements if isinstance(s, ShowDirective)]
    assert [s.section for s in shows] == ["atoms", "theory"]
    with pytest.raises(ParseError):
        parse_script("constants a\nshow everything\n")


def test_duplicate_constants_rejected_with_line():
    with pytest.raises(ParseError) as info:
        parse_script("constants a b\nconstants b c\n")
    assert info.value.line == 2


def test_parse_term_and_duple_text():
    sig = Signature.of("a b c")
    assert sig.term("a  c") == sig.term("a c")
    d = parse_duple_text(sig, "a <= b c")
    assert d.left == sig.term("a")
    assert d.right == sig.term("b c")
    with pytest.raises(UnknownConstant):
        sig.term("q")
    with pytest.raises(ValueError):
        parse_duple_text(sig, "a b")


def test_format_round_trip():
    sig = Signature.of("a b c")
    t = sig.term("c a")
    assert t.label(sig) == "a c"
    d = parse_duple_text(sig, "c a <= b")
    assert format_duple(sig, d) == "a c <= b"


def test_run_script_starts_from_declared_atoms():
    model, verdicts = run_script(parse_script(CROSS_SCRIPT))
    names = {a.names(model.sig) for a in model.atoms}
    assert names == {
        ("a",),
        ("a", "b"),
        ("c", "d", "e"),
        ("c",),
        ("d",),
        ("a", "b", "e"),
        ("b", "d", "e"),
    }
    assert verdicts == ()


def test_run_script_defaults_to_singletons():
    model, _ = run_script(parse_script("constants a b c\n"))
    assert {a.names(model.sig) for a in model.atoms} == {("a",), ("b",), ("c",)}


def test_run_script_denials_report_entailment():
    model, verdicts = run_script(
        parse_script(
            "constants a b c\nassert a <= b\nassert b <= c\ndeny a <= c\ndeny c <= a\n"
        )
    )
    assert [(format_duple(model.sig, v.duple), entailed) for v, entailed in verdicts] == [
        ("a <= c", True),
        ("c <= a", False),
    ]


def test_run_script_show_emits_positionally():
    out = io.StringIO()
    script = parse_script(
        "constants a b\nshow atoms\nassert a <= b\nshow atoms\n"
    )
    run_script(script, emit=out.write)
    lines = out.getvalue().splitlines()
    # before the assertion the free singleton for a is present; afterwards
    # it has been crossed away into the pair atom
    assert "atom a" in lines
    assert "atom a b" in lines
    assert lines.index("atom a") < lines.index("atom a b")


def test_show_theory_lines_in_canonical_order():
    out = io.StringIO()
    run_script(parse_script("constants a b c\nassert a <= b\nshow theory\n"),
               emit=out.write)
    assert out.getvalue().splitlines() == [
        "a <= a", "a <= a b", "a <= a b c", "a <= a c", "a <= b", "a <= b c",
        "a b <= a b", "a b <= a b c", "a b <= b", "a b <= b c",
        "a b c <= a b c", "a b c <= b c",
        "a c <= a b c", "a c <= a c", "a c <= b c",
        "b <= a b", "b <= a b c", "b <= b", "b <= b c",
        "b c <= a b c", "b c <= b c",
        "c <= a b c", "c <= a c", "c <= b c", "c <= c",
    ]


def test_show_theory_follows_the_theory_order_on_random_models():
    rng = seeded(37)
    for _ in range(40):
        n = rng.randint(1, 6)
        m = random_model(rng, " ".join(f"c{i}" for i in range(n)))
        sig = m.sig
        text = "".join(
            [f"constants {' '.join(sig.names)}\n"]
            + [f"atom {atom.label(sig)}\n" for atom in m.atoms]
            + ["show theory\n"]
        )
        out = io.StringIO()
        run_script(parse_script(text), emit=out.write)
        expected = [f"{d.left.label(sig)} <= {d.right.label(sig)}" for d in enumerate_theory(m)]
        assert out.getvalue().splitlines() == expected


def test_show_atoms_output_is_reparseable():
    out = io.StringIO()
    run_script(parse_script("constants a b\nassert a <= b\nshow atoms\n"),
               emit=out.write)
    body = "constants a b\n" + "\n".join(
        line for line in out.getvalue().splitlines() if line.startswith("atom ")
    )
    script = parse_script(body)
    assert [a.names(script.sig) for a in script.atoms()] == [("a", "b"), ("b",)]


def reference_run(script, reduce_policy="after_each"):
    """The plain loop in script order: full crossing on every assert, then
    reduce under ``after_each``."""
    lines = []
    declared = script.atoms()
    model = new_model(
        script.sig, declared or (Atom(1 << i) for i in range(len(script.sig)))
    )
    for statement in script.statements:
        if isinstance(statement, Assertion):
            model = full_crossing(model, statement.duple)
            if reduce_policy == "after_each":
                model = reduce(model)
        elif isinstance(statement, ShowDirective):
            lines += [f"atom {atom.label(script.sig)}" for atom in model.atoms]
    return model, lines


@pytest.mark.parametrize("declared", [False, True])
def test_run_script_matches_step_by_step_reference(declared):
    rng = seeded(2027 + declared)
    unreduced_starts = 0
    for i in range(150):
        n = rng.randint(2, 12)
        asserts = 0 if i < 10 else rng.randint(1, 3 * n)
        script = random_script(rng, n, asserts, declared)
        start = new_model(script.sig, script.atoms()) if declared else None
        if start is not None and reduce(start) != start:
            unreduced_starts += 1
        for policy in ("after_each", "never"):
            out = io.StringIO()
            model, _ = run_script(script, policy, emit=out.write)
            assert (model, out.getvalue().splitlines()) == reference_run(script, policy)
    assert unreduced_starts >= (100 if declared else 0)


def test_unreduced_start_is_kept_until_the_first_assert():
    script = parse_script(
        "constants a b c\natom a\natom b\natom a b\natom c\nshow atoms\n"
    )
    out = io.StringIO()
    model, _ = run_script(script, emit=out.write)
    lines = out.getvalue().splitlines()
    assert lines == ["atom a", "atom a b", "atom b", "atom c"]
    assert [a.label(script.sig) for a in model.atoms] == ["a", "a b", "b", "c"]
    assert (model, lines) == reference_run(script)

