import argparse
import gc
import json
import pathlib
import shlex

import pytest

import atomlat.cli
from atomlat.algebra import RenameMap, rename
from atomlat.cli import _build_parser, main
from atomlat.core import Signature
from atomlat.crossing import freest_model
from atomlat.errors import InvalidConstantName, ParseError, UnknownConstant
from atomlat.oracle import closure_oracle
from atomlat.script import format_duple, parse_script, run_script
from atomlat.serialize import model_from_dict, model_to_dot

from conftest import ODD_NAMES, check_report, random_duple, random_model, seeded

CROSS_SCRIPT = """\
constants a b c d e
atom a
atom a b
atom c d e
atom b e
atom c
atom d
"""

JOIN_M = json.dumps({"constants": ["a", "b", "c"], "atoms": [["a", "b", "c"], ["c"]]})
JOIN_N = json.dumps({"constants": ["c", "d", "e"], "atoms": [["c", "d", "e"]]})


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_query_negative_before_crossing(tmp_path, capsys):
    script = write(tmp_path, "m.al", CROSS_SCRIPT)
    assert main(["query", script, "b <= a d"]) == 0
    assert capsys.readouterr().out.strip() == "negative"


def test_query_positive_after_crossing(tmp_path, capsys):
    script = write(tmp_path, "m.al", CROSS_SCRIPT + "assert b <= a d\n")
    assert main(["query", script, "b <= a d"]) == 0
    assert capsys.readouterr().out.strip() == "positive"


def test_build_reduces_by_default(tmp_path, capsys):
    script = write(tmp_path, "m.al", CROSS_SCRIPT + "assert b <= a d\n")
    assert main(["build", script]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["constants"] == ["a", "b", "c", "d", "e"]
    assert ["b", "c", "d", "e"] not in doc["atoms"]
    assert len(doc["atoms"]) == 7


def test_build_output_is_only_json_when_script_shows(tmp_path, capsys):
    text = CROSS_SCRIPT + "show atoms\nassert b <= a d\nshow elements\n"
    script = write(tmp_path, "m.al", text)
    assert main(["build", script]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["atoms"]) == 7
    assert main(["check", script]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:6] == ["atom a", "atom a b", "atom b e", "atom c", "atom c d e", "atom d"]
    assert any(line.startswith("element ") for line in out)
    assert out[-1] == "consistent"


def test_build_never_policy_keeps_redundant_atom(tmp_path, capsys):
    script = write(tmp_path, "m.al", CROSS_SCRIPT + "assert b <= a d\n")
    assert main(["build", "--reduce", "never", script]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert ["b", "c", "d", "e"] in doc["atoms"]
    assert len(doc["atoms"]) == 8


def test_reduce_command(tmp_path, capsys):
    model = json.dumps(
        {"constants": ["a", "b"], "atoms": [["a"], ["b"], ["a", "b"]]}
    )
    path = write(tmp_path, "m.json", model)
    assert main(["reduce", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["atoms"] == [["a"], ["b"]]


def test_join_golden(tmp_path, capsys):
    m = write(tmp_path, "m.json", JOIN_M)
    n = write(tmp_path, "n.json", JOIN_N)
    assert main(["join", m, n]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["constants"] == ["a", "b", "c", "d", "e"]
    assert doc["atoms"] == [["a", "b", "c", "d", "e"], ["c", "d", "e"]]


def test_product_names_pair_constants(tmp_path, capsys):
    m = write(tmp_path, "m.json", json.dumps(
        {"constants": ["a"], "atoms": [["a"]]}
    ))
    n = write(tmp_path, "n.json", json.dumps(
        {"constants": ["b1", "b2"], "atoms": [["b1"], ["b2"]]}
    ))
    assert main(["product", m, n]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["constants"] == ["a*b1", "a*b2"]


def test_restrict_keep(tmp_path, capsys):
    m = write(tmp_path, "m.json", JOIN_M)
    assert main(["restrict", m, "--keep", "a", "b"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["constants"] == ["a", "b"]
    assert doc["atoms"] == [["a", "b"]]


def test_rename_map_json(tmp_path, capsys):
    m = write(tmp_path, "m.json", json.dumps(
        {"constants": ["c1", "c2", "c3"], "atoms": [["c1"], ["c2"], ["c3"]]}
    ))
    rmap = json.dumps({
        "map": {"c1": ["g1", "g3"], "c2": ["g2", "g4"], "c3": ["g3", "g4"]},
        "targets": ["g1", "g2", "g3", "g4"],
    })
    assert main(["rename", m, "--map", rmap]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["atoms"] == [["g1", "g3"], ["g2", "g4"], ["g3", "g4"]]


@pytest.mark.parametrize("rmap", [
    {"map": {"c1": [["g1"]]}, "targets": ["g1"]},
    {"map": ["c1"], "targets": ["g1"]},
])
def test_malformed_rename_document_exits_two(tmp_path, capsys, rmap):
    m = write(tmp_path, "m.json", json.dumps({"constants": ["c1"], "atoms": [["c1"]]}))
    assert main(["rename", m, "--map", json.dumps(rmap)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_quotient_command(tmp_path, capsys):
    m = write(tmp_path, "m.json", json.dumps(
        {"constants": ["a", "b"], "atoms": [["a"], ["b"]]}
    ))
    assert main(["quotient", m, "a", "b"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["atoms"] == [["a", "b"]]


def test_subalgebra_command(tmp_path, capsys):
    m = write(tmp_path, "m.json", json.dumps(
        {"constants": ["c1", "c2", "c3"], "atoms": [["c1"], ["c2"], ["c3"]]}
    ))
    assert main([
        "subalgebra", m,
        "--gen", "c1", "c2", "c1 c3", "c2 c3",
        "--names", "g1", "g2", "g3", "g4",
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["atoms"] == [["g1", "g3"], ["g2", "g4"], ["g3", "g4"]]


def test_decompose_command(tmp_path, capsys):
    m = write(tmp_path, "m.json", json.dumps(
        {"constants": ["a", "b", "c"], "atoms": [["c"], ["a", "b", "c"]]}
    ))
    assert main(["decompose", m]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["components"] == [{"atom": ["c"], "top": "z1", "bottom": "zb1"}]
    assert doc["generators"] == {"a": ["zb1"], "b": ["zb1"], "c": ["z1"]}


def test_embed_free_command(tmp_path, capsys):
    m = write(tmp_path, "m.json", json.dumps(
        {"constants": ["a", "b"], "atoms": [["a"], ["b"]]}
    ))
    assert main(["embed-free", m]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {
        "constants": ["z1", "z2"],
        "generators": {"a": ["z1"], "b": ["z2"]},
    }


def test_check_conflict_exits_one(tmp_path, capsys):
    script = write(
        tmp_path, "m.al",
        "constants a b c\nassert a <= b\nassert b <= c\ndeny a <= c\n",
    )
    assert main(["check", script]) == 1
    out = capsys.readouterr().out
    assert "ENTAILED-POSITIVE" in out
    assert "inconsistent" in out


def test_check_satisfiable_exits_zero(tmp_path, capsys):
    script = write(
        tmp_path, "m.al",
        "constants a b\nassert a <= b\ndeny b <= a\n",
    )
    assert main(["check", script]) == 0
    out = capsys.readouterr().out
    assert "SATISFIABLE" in out
    assert out.strip().endswith("consistent")


def test_check_oracle_agreement(tmp_path, capsys):
    script = write(
        tmp_path, "m.al",
        "constants a b c\nassert a <= b\nassert b <= c\ndeny a <= c\n",
    )
    assert main(["check", "--oracle", script]) == 1
    assert "oracle agrees" in capsys.readouterr().out


def test_check_oracle_compares_the_whole_theory(tmp_path, capsys, monkeypatch):
    # An oracle that drops a <= b still agrees on the one deny line, so
    # only the theory comparison can catch it.
    monkeypatch.setattr(
        atomlat.cli, "closure_oracle", lambda sig, positives, cap: closure_oracle(sig, [])
    )
    script = write(tmp_path, "m.al", "constants a b\nassert a <= b\ndeny b <= a\n")
    assert main(["check", "--oracle", script]) == 2
    out, err = capsys.readouterr()
    assert "oracle agrees" not in out
    assert err == "error: oracle disagrees on the theory\n"


def test_check_oracle_rejects_atom_scripts(tmp_path, capsys):
    # rejected before the script runs: no shows and no verdicts on stdout
    text = "constants a b\natom a\natom b\nshow theory\nassert a <= b\ndeny b <= a\n"
    script = write(tmp_path, "m.al", text)
    assert main(["check", "--oracle", script]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--oracle applies to sentence-only scripts" in err


def test_check_oracle_over_the_cap_fails_before_any_output(tmp_path, capsys):
    text = "constants a b c\nassert a <= b\nshow atoms\ndeny b <= a\n"
    script = write(tmp_path, "m.al", text)
    assert main(["check", "--oracle", "--cap", "2", script]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: 3 constants exceed the enumeration cap of 2\n"
    target = tmp_path / "report.txt"
    target.write_text("previous report\n")
    assert main(["check", "--oracle", "--cap", "2", script, "-o", str(target)]) == 2
    assert capsys.readouterr().out == ""
    assert target.read_text() == "previous report\n"


@pytest.mark.parametrize("section", ["elements", "theory"])
def test_check_over_the_cap_fails_before_any_output(tmp_path, capsys, section):
    # an enumerating show checks the cap before the atoms show is written
    text = f"constants a b c\nshow atoms\nshow {section}\nassert a <= b\n"
    script = write(tmp_path, "m.al", text)
    assert main(["check", "--cap", "2", script]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: 3 constants exceed the enumeration cap of 2\n"
    target = tmp_path / "report.txt"
    target.write_text("previous report\n")
    assert main(["check", "--cap", "2", script, "-o", str(target)]) == 2
    assert capsys.readouterr().out == ""
    assert target.read_text() == "previous report\n"
    # atoms are listed at any size, so a script without such a show runs
    atoms_only = write(tmp_path, "a.al", "constants a b c\nshow atoms\nassert a <= b\n")
    assert main(["check", "--cap", "2", atoms_only]) == 0
    assert capsys.readouterr().out == "atom a\natom b\natom c\nconsistent\n"


@pytest.mark.parametrize("command", [["check"], ["export", "--dot"]])
@pytest.mark.parametrize("cap", ["0", "-3"])
def test_cap_below_one_is_a_usage_error(tmp_path, capsys, command, cap):
    # no signature has fewer than one constant, so such a cap could only fail later
    script = write(tmp_path, "m.al", "constants a b\nshow atoms\n")
    with pytest.raises(SystemExit) as info:
        main(command + ["--cap", cap, script])
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument --cap: must be at least 1, got {cap}" in err
    assert main(command + ["--cap", "2", script]) == 0


def test_check_output_flag_writes_the_report(tmp_path, capsys):
    text = "constants a b c\nshow atoms\nassert a <= b\ndeny b <= a\ndeny a <= a b\n"
    script = write(tmp_path, "m.al", text)
    assert main(["check", "--oracle", script]) == 1
    report = capsys.readouterr().out
    assert report.startswith("atom a\natom b\natom c\ndeny b <= a: SATISFIABLE\n")
    target = tmp_path / "report.txt"
    assert main(["check", "--oracle", script, "-o", str(target)]) == 1
    assert capsys.readouterr() == ("", "")
    assert target.read_text() == report


def test_check_report_matches_the_reference(tmp_path, capsys):
    # 1-9 constants, free and declared starts, every show kind between
    # asserts and denies (theory up to 8 constants); --oracle on half of
    # the free starts
    rng = seeded(2210)
    script, target = tmp_path / "m.al", tmp_path / "report.txt"
    shows = 0
    for k in range(60):
        n = 1 + k % 9
        names = ODD_NAMES[:n] if k % 2 else tuple(f"c{i}" for i in range(n))
        declared = random_model(rng, " ".join(names)) if k % 3 == 0 else None
        sig = Signature(names)
        lines = [f"constants {' '.join(names)}"]
        lines += [f"atom {atom.label(sig)}" for atom in (declared.atoms if declared else ())]
        # the holds-based reference of a theory costs 4**n calls
        sections = ["atoms", "elements", "theory"][: 3 if n < 9 else 2]
        for _ in range(rng.randint(1, 2 * n + 2)):
            kind = rng.choice(["assert", "assert", "deny", "show"])
            if kind == "show":
                lines.append("show " + rng.choice(sections))
                shows += 1
            else:
                lines.append(f"{kind} {format_duple(sig, random_duple(rng, n))}")
        text = "\n".join(lines) + "\n"
        script.write_text(text, encoding="utf-8")
        oracle = ["--oracle"] if declared is None and k % 4 < 2 else []
        expected = check_report(text, bool(oracle))
        code = 1 if expected.endswith("\ninconsistent\n") else 0
        assert main(["check", *oracle, str(script)]) == code
        assert capsys.readouterr() == (expected, "")
        target.write_text("previous report\n")
        assert main(["check", *oracle, str(script), "-o", str(target)]) == code
        assert capsys.readouterr() == ("", "")
        assert target.read_bytes() == expected.encode()
        # shows are written in whole lines
        chunks = []
        run_script(parse_script(text), emit=chunks.append)
        assert all(chunk.endswith("\n") for chunk in chunks)
        assert expected.startswith("".join(chunks))
    assert shows >= 60


@pytest.mark.parametrize("argv", [
    ["build", "--cap", "5"],
    ["query", "--cap", "5", "b <= a"],
    ["export", "--json"],
])
def test_options_nothing_reads_are_rejected(tmp_path, capsys, argv):
    model = write(tmp_path, "m.json", JOIN_M)
    with pytest.raises(SystemExit) as info:
        main(argv[:1] + [model] + argv[1:])
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_export_dot(tmp_path, capsys):
    m = write(tmp_path, "m.json", json.dumps(
        {"constants": ["a", "b"], "atoms": [["a"], ["b"]]}
    ))
    assert main(["export", "--dot", m]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph {")
    assert '"a" -> "a b";' in out


def test_export_json_is_default(tmp_path, capsys):
    m = write(tmp_path, "m.json", JOIN_M)
    assert main(["export", m]) == 0
    assert json.loads(capsys.readouterr().out)["constants"] == ["a", "b", "c"]


def test_output_flag_writes_file(tmp_path, capsys):
    m = write(tmp_path, "m.json", JOIN_M)
    target = tmp_path / "out.json"
    assert main(["reduce", m, "-o", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["constants"] == ["a", "b", "c"]


def test_stdin_input(tmp_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("constants a b\nassert a <= b\n"))
    assert main(["build", "-"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["atoms"] == [["a", "b"], ["b"]]


def test_parse_error_exits_two(tmp_path, capsys):
    script = write(tmp_path, "m.al", "constants a\nassert a <= q\n")
    assert main(["build", script]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err
    assert "q" in err


@pytest.mark.parametrize("term", ["q", ""], ids=["unknown", "empty"])
@pytest.mark.parametrize("argv", [
    lambda m, term: ["query", m, f"{term} <= a"],
    lambda m, term: ["quotient", m, "a", term],
    lambda m, term: ["subalgebra", m, "--gen", "a", term, "--names", "g1", "g2"],
], ids=["query", "quotient", "subalgebra"])
def test_unknown_constant_in_query_exits_two(tmp_path, capsys, argv, term):
    # a term argument is read by Signature.term, so the one error line is
    # the library's message
    sig = Signature.of(json.loads(JOIN_M)["constants"])
    with pytest.raises((UnknownConstant, ValueError)) as info:
        sig.term(term)
    m = write(tmp_path, "m.json", JOIN_M)
    assert main(argv(m, term)) == 2
    assert capsys.readouterr() == ("", f"error: {info.value}\n")


@pytest.mark.parametrize("name, script_line, term", [
    ("<=", "atom a <= b", "a <= b"),
    # '#' opens a comment in a script, so "atom a#b" declares the atom a
    ("a#b", None, "a#b"),
    # a string is split on whitespace, so only a list element is "a b"
    ("a b", None, None),
], ids=["separator", "hash", "space"])
def test_names_no_signature_can_declare_are_bad_on_every_path(
        tmp_path, capsys, name, script_line, term):
    # a lookup holds the name it cannot find to the rule of Signature, so a
    # name that no signature may declare is bad, not unknown, on every path
    sig = Signature.of("a b")
    bad = f"bad constant name {name!r}"
    model = freest_model(sig)
    calls = [
        lambda: sig.mask_of_names(["a", name]),
        lambda: sig.term(["a", name]),
        lambda: sig.atom([name]),
        lambda: model_from_dict({"constants": ["a", "b"], "atoms": [["a"], ["b", name]]}),
        lambda: rename(model, RenameMap.of({"a": ["a"], "b": ["b"], name: []}, "a b")),
        lambda: RenameMap.of({"a": ["a", name], "b": []}, "a b"),
    ]
    if term is not None:
        calls += [lambda: sig.mask_of_names(term), lambda: sig.term(term), lambda: sig.atom(term)]
    for call in calls:
        with pytest.raises(InvalidConstantName) as info:
            call()
        assert (str(info.value), info.value.name) == (bad, name)
    if script_line is not None:
        with pytest.raises(ParseError) as info:
            parse_script(f"constants a b\n{script_line}\n")
        assert str(info.value) == f"line 2: {bad}"
    m = write(tmp_path, "m.json", JOIN_M)
    argvs = [["restrict", m, "--keep", "a", name]]
    if term is not None:
        argvs.append(["quotient", m, "a", term])
    for argv in argvs:
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {bad}\n")


@pytest.mark.parametrize("doc", [
    {"constants": ["a", 1], "atoms": [["a"]]},
    {"constants": ["a", "b"], "atoms": "ab"},
    {"constants": ["a", "b"], "atoms": None},
    {"constants": ["a", "b"], "atoms": [["a", ["b"]]]},
])
def test_malformed_model_document_exits_two(tmp_path, capsys, doc):
    m = write(tmp_path, "m.json", json.dumps(doc))
    assert main(["query", m, "a <= b"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_deeply_nested_json_exits_two(tmp_path, capsys):
    nest = "[" * 3000 + "]" * 3000
    m = write(tmp_path, "m.json", '{"constants": ' + nest + ', "atoms": []}')
    script = write(tmp_path, "m.al", "constants a\n")
    for argv in (
        ["build", m],
        ["query", m, "a <= a"],
        ["rename", script, "--map", '{"map": ' + nest + ', "targets": []}'],
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: document nests too deeply\n"


def test_bad_constant_is_reported_in_one_short_line(tmp_path, capsys):
    for doc in (
        {"constants": ["a", list(range(200000))], "atoms": [["a"]]},
        {"constants": ["a", "a"], "atoms": [["a"]]},
        {"constants": ["a"], "atoms": [["a", "x" * 200000]]},
    ):
        m = write(tmp_path, "m.json", json.dumps(doc))
        assert main(["query", m, "a <= a"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(err) < 200


def test_missing_file_exits_two(tmp_path, capsys):
    assert main(["build", str(tmp_path / "absent.json")]) == 2


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_inconsistent_script_input_exits_one(tmp_path, capsys):
    # a deny that the built model entails aborts any downstream command
    script = write(
        tmp_path, "m.al",
        "constants a b\nassert a <= b\ndeny a <= b\n",
    )
    assert main(["reduce", script]) == 1


def _run(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = ("exit", exc.code)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_main_reuses_one_parser_across_calls(tmp_path, capsys):
    # the parser is built once per process; each call must still see only
    # its own arguments, as a freshly built parser would
    script = write(tmp_path, "m.al", CROSS_SCRIPT + "assert b <= a d\n")
    pair = write(tmp_path, "q.json", JOIN_M)
    calls = [
        ["build", "--reduce", "never", script],
        ["build", script],
        ["product", "--identify-diagonal", pair, pair],
        ["product", pair, pair],
        ["query", "--cap", "5"],
        ["query", script, "b <= a d"],
    ]
    shared = [_run(capsys, argv) for argv in calls]
    assert _build_parser.cache_info().misses <= 1
    fresh = []
    for argv in calls:
        _build_parser.cache_clear()
        fresh.append(_run(capsys, argv))
    assert shared == fresh
    assert len(json.loads(shared[0][1])["atoms"]) == 8
    assert len(json.loads(shared[1][1])["atoms"]) == 7
    assert shared[2][1] != shared[3][1]
    assert shared[4][0] == ("exit", 2)
    assert shared[5] == (0, "positive\n", "")


def test_cli_jobs_leave_no_cyclic_garbage(tmp_path, capsys):
    # cycles outlive their job until a full collection; a parser rebuilt per
    # call, or the indenting JSON encoder, leaves some on every call
    script = write(tmp_path, "m.al", CROSS_SCRIPT + "assert b <= a d\ndeny c <= a\n")
    model = str(tmp_path / "m.json")
    assert main(["build", script, "-o", model]) == 0
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            assert main(["build", script]) == 0
            assert main(["query", model, "b <= a d"]) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
    capsys.readouterr()


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def readme_commands(text):
    """The ``atomlat <command>`` lines of README's "Commands" block, as words."""
    block = text.split("Commands (`atomlat <command> --help` for flags):", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines()
            if line.startswith("atomlat ")]


def test_readme_commands_and_flags_exist_in_the_parser():
    parser = _build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    lines = readme_commands(README.read_text(encoding="utf-8"))
    assert {words[1] for words in lines} == set(commands.choices)
    for _, command, *rest in lines:
        options = commands.choices[command]._option_string_actions
        flags = [word.strip("[]") for word in rest]
        unknown = [flag for flag in flags if flag[:1] == "-" != flag and flag not in options]
        assert unknown == [], command


def readme_block(text, language):
    """The body of README's one fenced block in ``language``."""
    return text.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_readme_python_and_dot_blocks_show_what_the_code_gives(capsys):
    text = README.read_text(encoding="utf-8")
    exec(readme_block(text, "python"), {})
    assert capsys.readouterr().out == (
        "[('a',), ('a', 'b'), ('a', 'b', 'e'), ('b', 'd', 'e'), ('c',), ('c', 'd', 'e'), ('d',)]\n"
    )
    assert readme_block(text, "dot") == model_to_dot(freest_model(Signature.of("a b")))
