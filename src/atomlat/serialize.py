"""JSON documents and DOT diagrams."""

from __future__ import annotations

import json

from .algebra import Decomposition, RenameMap
from .core import Atom, Signature, Term, bit_indices, canonical_terms
from .model import (
    ENUM_CAP_DEFAULT,
    Model,
    enumerate_theory,
    model_of_masks,
    segment_signatures,
)


def model_to_dict(model: Model) -> dict:
    names_of = model.sig.names_of
    return {
        "constants": list(model.sig.names),
        "atoms": [list(names_of(mask)) for mask in model.masks],
    }


def model_from_dict(doc) -> Model:
    """The model of a document, with the checks of :func:`atomlat.model.new_model`.

    Each name list becomes a mask by one :meth:`Signature.mask_of_names`
    call, and no :class:`~atomlat.core.Atom` is built: a document in
    canonical order, as :func:`model_to_json` writes it, is read with no sort.
    """
    if not isinstance(doc, dict) or set(doc) != {"constants", "atoms"}:
        raise ValueError("model document needs exactly the keys 'constants' and 'atoms'")
    constants, atoms = doc["constants"], doc["atoms"]
    if not (isinstance(constants, list) and isinstance(atoms, list)
            and all(isinstance(names, list) for names in atoms)):
        raise ValueError("model document needs a list of names and a list of name lists")
    sig = Signature(tuple(constants))
    of = sig.mask_of_names
    return model_of_masks(sig, [of(names) or _no_atom() for names in atoms])


def _no_atom():
    """Reject an empty name list with the error :class:`~atomlat.core.Atom` gives it."""
    raise ValueError(Atom._empty)


def model_to_json(model: Model) -> str:
    """``json.dumps(model_to_dict(model), indent=2)`` plus a newline.

    Written by hand, quoting each constant name once: the indenting encoder
    is the pure-Python one, slower, and it leaves a reference cycle per call.
    Atoms and signatures are never empty; only a hand-built model without
    atoms writes an empty list.

    >>> print(model_to_json(Model(Signature.of("a b"), (0b01, 0b11))), end="")
    {
      "constants": [
        "a",
        "b"
      ],
      "atoms": [
        [
          "a"
        ],
        [
          "a",
          "b"
        ]
      ]
    }
    """
    quoted = [json.dumps(name) for name in model.sig.names]
    cells = ["      " + q for q in quoted]
    constants = ",\n".join(["    " + q for q in quoted])
    atoms = ",\n".join(
        "    [\n" + ",\n".join([cells[i] for i in bit_indices(mask)]) + "\n    ]"
        for mask in model.masks
    )
    atoms = "[\n" + atoms + "\n  ]" if atoms else "[]"
    return '{\n  "constants": [\n' + constants + '\n  ],\n  "atoms": ' + atoms + "\n}\n"


def json_text(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)`` for dicts with string keys, lists and strings.

    Written by hand for the same reason as :func:`model_to_json`: the
    indenting encoder leaves a reference cycle per call. ``indent`` is the
    line break and indent before the value's closing bracket.

    >>> json_text({"a": ["x", "é"], "b": {}, "c": []}) == json.dumps(
    ...     {"a": ["x", "é"], "b": {}, "c": []}, indent=2)
    True
    """
    if isinstance(value, str):
        return json.dumps(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = [inner + json.dumps(key) + ": " + json_text(v, inner) for key, v in value.items()]
        return "{" + ",".join(items) + indent + "}" if items else "{}"
    items = [inner + json_text(v, inner) for v in value]
    return "[" + ",".join(items) + indent + "]" if items else "[]"


def _loads(text: str):
    """``json.loads``, with a document that nests too deeply as a ``ValueError``."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("document nests too deeply") from None


def model_from_json(text: str) -> Model:
    return model_from_dict(_loads(text))


def rename_map_from_json(text: str) -> RenameMap:
    doc = _loads(text)
    if not isinstance(doc, dict) or set(doc) != {"map", "targets"}:
        raise ValueError("rename document needs exactly the keys 'map' and 'targets'")
    mapping, targets = doc["map"], doc["targets"]
    if not (isinstance(mapping, dict) and isinstance(targets, list)
            and all(isinstance(names, list) for names in mapping.values())):
        raise ValueError("rename document needs a map to name lists and a list of target names")
    return RenameMap.of(mapping, targets)


def decomposition_to_dict(dec: Decomposition) -> dict:
    sig = dec.source.sig
    return {
        "constants": list(sig.names),
        "components": [
            {
                "atom": list(component.atom.names(sig)),
                "top": component.top_name,
                "bottom": component.bottom_name,
            }
            for component in dec.components
        ],
        "generators": {name: list(coords) for name, coords in dec.generators},
    }


def embedding_to_dict(model: Model, free_sig: Signature, terms: tuple[Term, ...]) -> dict:
    return {
        "constants": list(free_sig.names),
        "generators": {
            name: list(term.names(free_sig))
            for name, term in zip(model.sig.names, terms)
        },
    }


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def model_to_dot(model: Model, cap: int = ENUM_CAP_DEFAULT) -> str:
    """The Hasse diagram of the element classes.

    Nodes are element classes labelled by their representative term; edges
    are covering relations, read off the rows of the model's theory. Atoms
    appear as an ``atoms`` attribute listing the lower atomic segment of
    each node, not as nodes of their own; the segments are read off the
    atom columns for the class representatives only.
    """
    theory = enumerate_theory(model, cap)
    classes = theory.elements()
    position = {cls.representative.mask: x for x, cls in enumerate(classes)}
    reps = sum(1 << rep for rep in position)
    segs = segment_signatures(model, position)
    label = dict(canonical_terms(model.sig))
    labels = [_dot_escape(label[rep]) for rep in position]
    names_of = model.sig.names_of
    atom_labels = ["{" + " ".join(names_of(mask)) + "}" for mask in model.masks]
    nodes, edges = [], []
    for x, rep in enumerate(position):
        segment = ", ".join(atom_labels[k] for k in bit_indices(segs[x]))
        nodes.append(f'  "{labels[x]}" [atoms="{_dot_escape(segment)}"];')
        # the classes strictly above x, less those above another one of them
        above = theory.rows[rep] & reps & ~(1 << rep)
        skip = 0
        for z in bit_indices(above):
            skip |= theory.rows[z] & ~(1 << z)
        for y in sorted(position[t] for t in bit_indices(above & ~skip)):
            edges.append(f'  "{labels[x]}" -> "{labels[y]}";')
    return "\n".join(["digraph {", *nodes, *edges, "}"]) + "\n"
