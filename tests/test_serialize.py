import json
import warnings

import pytest

from atomlat.algebra import subdirect_decomposition, embed_in_free
from atomlat.core import Duple, Signature, Term, canonical_key
from atomlat.crossing import freest_model
from atomlat.errors import CapExceeded, InvalidConstantName
from atomlat.model import holds, new_model
from atomlat.serialize import (
    decomposition_to_dict,
    embedding_to_dict,
    json_text,
    model_from_dict,
    model_from_json,
    model_to_dict,
    model_to_dot,
    model_to_json,
    rename_map_from_json,
)

from conftest import ODD_NAMES, lower_atomic_segment, mk, random_duple, random_model, seeded, valid


def test_json_round_trip_on_randoms():
    rng = seeded(61)
    for _ in range(30):
        m = random_model(rng, "a b c d e")
        assert model_from_json(model_to_json(m)) == m


def test_model_json_is_the_indented_encoder_output():
    rng = seeded(67)
    odd = ["caf\u00e9", "\u03b1\u03b2", 'q"t', "back\\slash", "\U0001d4b3"]
    for n in range(1, 15):
        for _ in range(6):
            names = [f"c{i}" for i in range(n)]
            for i in rng.sample(range(n), min(n, 2)):
                names[i] = rng.choice(odd) + str(i)
            m = random_model(rng, names, max_atoms=2 * n)
            text = model_to_json(m)
            assert text == json.dumps(model_to_dict(m), indent=2) + "\n"
            assert model_from_json(text) == m
    point = mk(['"\\'], '"\\')
    assert model_to_json(point) == json.dumps(model_to_dict(point), indent=2) + "\n"
    assert model_from_json(model_to_json(point)) == point
    bare = mk("a b")  # hand-built, no atoms
    assert model_to_json(bare) == json.dumps(model_to_dict(bare), indent=2) + "\n"


TEXT_CHARS = ["a", "Z", "0", " ", "\t", "\n", "\x00", '"', "\\", "/", "é", "日", "\U0001d4b3"]


def random_document(rng, depth=0):
    """Nested dicts with string keys, lists and strings, some of them empty."""
    kind = rng.random()
    if depth == 3 or kind < 0.4:
        return "".join(rng.choices(TEXT_CHARS, k=rng.randint(0, 6)))
    items = [random_document(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    if kind < 0.7:
        return items
    return {"".join(rng.choices(TEXT_CHARS, k=rng.randint(0, 4))): item for item in items}


def test_json_text_is_the_indented_encoder_output():
    rng = seeded(2603)
    for _ in range(5000):
        doc = random_document(rng)
        assert json_text(doc) == json.dumps(doc, indent=2)


def test_model_document_is_canonical():
    doc = model_to_dict(mk("a b c", "c", "a b c"))
    assert doc == {"constants": ["a", "b", "c"], "atoms": [["a", "b", "c"], ["c"]]}


def test_model_document_rejects_other_shapes():
    with pytest.raises(ValueError):
        model_from_dict({"constants": ["a"]})
    with pytest.raises(ValueError):
        model_from_dict({"constants": ["a"], "atoms": [], "extra": 1})
    with pytest.raises(ValueError):
        model_from_dict(["a"])
    for constants, atoms in [
        ("a b", [["a"], ["b"]]),
        (None, []),
        (["a", "b"], "ab"),
        (["a", "b"], None),
        (["a", "b"], ["a b"]),
        (["a", "b"], [["a"], "b"]),
    ]:
        with pytest.raises(ValueError):
            model_from_dict({"constants": constants, "atoms": atoms})
    # a non-string name is the same error under constants and under atoms
    for constants, atoms in [
        (["a", 1], [["a"]]),
        (["a", "b"], [["a", 1]]),
        (["a", "b"], [[["a"]]]),
        (["a", "b"], [[None]]),
    ]:
        with pytest.raises(InvalidConstantName):
            model_from_dict({"constants": constants, "atoms": atoms})


def read_through_atoms(text):
    """The document read that builds an ``Atom`` per name list and sorts them."""
    doc = json.loads(text)
    sig = Signature(tuple(doc["constants"]))
    return new_model(sig, map(sig.atom, doc["atoms"]))


def outcome(read, text):
    """The model or the error type and message of ``read(text)``, with the
    category and message of each warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = read(text)
        except Exception as exc:
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


def test_model_from_json_matches_the_atom_path():
    rng = seeded(2602)
    for _ in range(1500):
        n = rng.randint(1, 10)
        names = list(ODD_NAMES[:n])
        # atoms over the lower constants only, so the top ones may stay uncovered
        top = n if rng.random() < 0.7 else rng.randint(1, n)
        atoms = [rng.sample(names[:top], rng.randint(1, top)) for _ in range(rng.randint(0, 2 * n))]
        atoms += rng.sample(atoms, rng.randint(0, len(atoms)))  # repeated atoms
        rng.shuffle(atoms)
        if atoms and rng.random() < 0.2:
            # an unknown name, non-string names, or an empty name list
            bad = rng.choice(["zz", 3, None, ["a"], []])
            if bad == []:
                atoms.insert(rng.randrange(len(atoms)), bad)
            else:
                names_list = rng.choice(atoms)
                names_list.insert(rng.randrange(len(names_list) + 1), bad)
        text = json.dumps({"constants": names, "atoms": atoms})
        got = outcome(model_from_json, text)
        assert got == outcome(read_through_atoms, text)
        model = got[0]
        if not isinstance(model, tuple):
            assert valid(model)
            assert model_from_json(model_to_json(model)) == model


def test_rename_map_document():
    rmap = rename_map_from_json(
        '{"map": {"c1": ["g1", "g3"], "c3": []}, "targets": ["g1", "g2", "g3"]}'
    )
    assert rmap.target.names == ("g1", "g2", "g3")
    assert rmap.mapping["c1"] == ("g1", "g3")
    assert rmap.mapping["c3"] == ()
    with pytest.raises(ValueError):
        rename_map_from_json('{"map": {}}')
    for text in [
        '{"map": {"a": "xy"}, "targets": ["x", "y"]}',
        '{"map": ["a"], "targets": ["x"]}',
        '{"map": {"a": ["x"]}, "targets": "x"}',
        '{"map": {"a": ["x"]}, "targets": 5}',
    ]:
        with pytest.raises(ValueError):
            rename_map_from_json(text)
    with pytest.raises(InvalidConstantName):
        rename_map_from_json('{"map": {"a": [["x"]]}, "targets": ["x"]}')


def test_decomposition_document():
    doc = decomposition_to_dict(subdirect_decomposition(mk("a b c", "c", "a b c")))
    assert doc == {
        "constants": ["a", "b", "c"],
        "components": [{"atom": ["c"], "top": "z1", "bottom": "zb1"}],
        "generators": {"a": ["zb1"], "b": ["zb1"], "c": ["z1"]},
    }


def test_embedding_document():
    m = mk("a b", "a", "b")
    free_sig, terms = embed_in_free(m)
    doc = embedding_to_dict(m, free_sig, terms)
    assert doc == {
        "constants": ["z1", "z2"],
        "generators": {"a": ["z1"], "b": ["z2"]},
    }


def test_dot_free_pair():
    out = model_to_dot(mk("a b", "a", "b"))
    assert out == (
        "digraph {\n"
        '  "a" [atoms="{a}"];\n'
        '  "a b" [atoms="{a}, {b}"];\n'
        '  "b" [atoms="{b}"];\n'
        '  "a" -> "a b";\n'
        '  "b" -> "a b";\n'
        "}\n"
    )


def test_dot_chain_collapses_classes():
    out = model_to_dot(mk("a b c", "c", "a b c"))
    assert out == (
        "digraph {\n"
        '  "a b" [atoms="{a b c}"];\n'
        '  "a b c" [atoms="{a b c}, {c}"];\n'
        '  "a b" -> "a b c";\n'
        "}\n"
    )


def test_dot_skips_transitive_edges():
    # atoms give c <= b <= a, so classes collapse upward and the chain
    # must not contain the transitive bottom-to-top edge
    m = mk("a b c", "a", "a b", "a b c")
    out = model_to_dot(m)
    assert '"c" -> "b c";' in out
    assert '"b c" -> "a b c";' in out
    assert '"c" -> "a b c";' not in out


def test_dot_is_the_hasse_diagram_of_holds():
    # reference: classes of terms with equal up-sets under holds, their union
    # as the node, and the covering pairs between the nodes as the edges
    rng = seeded(24)
    for k in range(60):
        n = rng.randint(1, 6)
        names = " ".join(f"c{i}" for i in range(n))
        m = random_model(rng, names, max_atoms=8)
        if k % 2:
            m = freest_model(m.sig, [random_duple(rng, n) for _ in range(rng.randint(0, 2 * n))])
        terms = [Term(t) for t in range(1, m.sig.full_mask + 1)]
        up = {s: frozenset(t for t in terms if holds(m, Duple(s, t))) for s in terms}
        groups = {}
        for s in terms:
            groups[up[s]] = groups.get(up[s], 0) | s.mask
        nodes = sorted((Term(rep) for rep in groups.values()), key=lambda t: canonical_key(t.mask))
        label = {node: node.label(m.sig) for node in nodes}
        expected_nodes = [
            f'  "{label[node]}" [atoms="'
            + ", ".join("{" + atom.label(m.sig) + "}" for atom in lower_atomic_segment(m, node))
            + '"];'
            for node in nodes
        ]
        above = {x: {y for y in nodes if y != x and y in up[x]} for x in nodes}
        expected_edges = {
            f'  "{label[x]}" -> "{label[y]}";'
            for x in nodes
            for y in above[x]
            if not any(y in above[z] for z in above[x])
        }
        lines = model_to_dot(m).splitlines()
        edges = lines[1 + len(nodes) : -1]
        assert lines[0] == "digraph {" and lines[-1] == "}"
        assert lines[1 : 1 + len(nodes)] == expected_nodes
        assert len(edges) == len(set(edges)) and set(edges) == expected_edges


def test_dot_respects_cap():
    sig_names = " ".join(f"c{i}" for i in range(11))
    m = mk(sig_names, *[f"c{i}" for i in range(11)])
    with pytest.raises(CapExceeded):
        model_to_dot(m)


def test_dot_escapes_quotes():
    sig = Signature.of(['a"x', "b"])
    m = mk(['a"x', "b"], 'a"x', "b")
    out = model_to_dot(m)
    assert '\\"' in out
