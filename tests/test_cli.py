import json

import pytest

from atomlat.cli import main

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


def test_check_oracle_rejects_atom_scripts(tmp_path, capsys):
    script = write(tmp_path, "m.al", "constants a b\natom a b\n")
    assert main(["check", "--oracle", script]) == 2


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


def test_unknown_constant_in_query_exits_two(tmp_path, capsys):
    m = write(tmp_path, "m.json", JOIN_M)
    assert main(["query", m, "q <= a"]) == 2
    assert "q" in capsys.readouterr().err


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
