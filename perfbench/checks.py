"""Output checks that share no code with the package under test.

Models are handled here as plain data: a tuple of constant names and a list
of atom bitmasks over their positions. A term ``t`` is below an atom's upper
segment ``a`` when ``a & t``; ``l <= r`` holds iff no atom meets ``l`` while
missing ``r``. Every check returns ``None`` when the output is right and a
short reason string when it is wrong.
"""

from __future__ import annotations

import hashlib
import json


def masks_of(names, atom_lists):
    index = {name: i for i, name in enumerate(names)}
    out = []
    for atom in atom_lists:
        mask = 0
        for name in atom:
            mask |= 1 << index[name]
        out.append(mask)
    return out


def holds(masks, left, right):
    return not any(a & left and not a & right for a in masks)


def own_reduce(masks):
    """Drop every atom that is the union of strictly narrower atoms."""
    kept = []
    for phi in masks:
        cover = 0
        for eta in masks:
            if eta != phi and eta & ~phi == 0:
                cover |= eta
        if cover != phi:
            kept.append(phi)
    return sorted(set(kept))


def digest(names, masks):
    """Formatting-free fingerprint of a model: its constants and atom set."""
    doc = json.dumps([list(names), sorted(set(masks))])
    return hashlib.sha256(doc.encode()).hexdigest()[:20]


def text_digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def parse_model(text):
    """Parse a model document; returns (names, masks) or a reason string."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return f"output is not JSON: {exc}"
    if not isinstance(doc, dict) or set(doc) != {"constants", "atoms"}:
        return "output is not a model document"
    names = tuple(doc["constants"])
    if len(set(names)) != len(names) or not names:
        return "bad constant list"
    try:
        masks = masks_of(names, doc["atoms"])
    except KeyError as exc:
        return f"atom names unknown constant {exc}"
    return names, masks


def model_problem(names, masks):
    """Structural validity: non-empty, distinct atoms covering every constant."""
    full = (1 << len(names)) - 1
    if any(m <= 0 or m & ~full for m in masks):
        return "atom outside the signature"
    if len(set(masks)) != len(masks):
        return "repeated atom"
    covered = 0
    for m in masks:
        covered |= m
    if covered != full:
        return "constant covered by no atom"
    return None


def check_build(text, spec):
    """A built model: asserts hold, atoms non-redundant, same atoms as recorded."""
    parsed = parse_model(text)
    if isinstance(parsed, str):
        return parsed
    names, masks = parsed
    if names != tuple(spec["constants"]):
        return "constants differ from the script"
    problem = model_problem(names, masks)
    if problem:
        return problem
    for left, right in spec["asserts"]:
        if not holds(masks, left, right):
            return "an asserted duple fails (an atom is unsound for it)"
    for left, right in spec["denies"]:
        if holds(masks, left, right):
            return "a denied duple holds"
    if own_reduce(masks) != sorted(masks):
        return "an output atom is a union of narrower output atoms"
    if digest(names, masks) != spec["digest"]:
        return "atom set differs from the recorded reference output"
    return None


def check_query(text, spec):
    """Recompute the answer from the stored atom lists."""
    expected = "positive" if holds(spec["masks"], spec["left"], spec["right"]) else "negative"
    if text.strip() != expected:
        return f"answered {text.strip()!r}, expected {expected!r}"
    return None


def theory_lines(names, relation_rows):
    """``show theory`` lines for a relation given as rows[s] = set of t."""
    def label(mask):
        return " ".join(names[i] for i in range(len(names)) if mask >> i & 1)

    def key(mask):
        return [i for i in range(len(names)) if mask >> i & 1]

    lines = []
    for s in sorted(relation_rows, key=key):
        for t in sorted(relation_rows[s], key=key):
            lines.append(f"{label(s)} <= {label(t)}")
    return lines


def check_theory_check(text, spec):
    """``check --oracle`` output: verdicts and theory as the oracle recorded them."""
    lines = text.splitlines()
    verdicts = [line for line in lines if line.startswith("deny ")]
    if verdicts != spec["verdict_lines"]:
        return "deny verdicts differ from the closure oracle"
    theory = [
        line for line in lines
        if " <= " in line and not line.startswith(("deny ", "element "))
    ]
    if text_digest("\n".join(theory)) != spec["theory_digest"]:
        return "show theory positives differ from the closure oracle"
    if "oracle agrees" not in lines:
        return "missing 'oracle agrees'"
    if text_digest(text) != spec["digest"]:
        return "output differs from the recorded reference output"
    return None


def check_text(text, spec):
    if text_digest(text) != spec["digest"]:
        return "output differs from the recorded reference output"
    return None


def check_axioms(ok, spec):
    return None if ok is True else "axiom_check reported a failure on a built model"


def image(mask, images):
    """Union of the per-constant images of the constants in ``mask``."""
    out = 0
    i = 0
    while mask:
        if mask & 1:
            out |= images[i]
        mask >>= 1
        i += 1
    return out


def expected_image(masks, images, target):
    """Atoms mapped through per-constant image masks; empty images vanish."""
    out = {img for img in (image(m, images) for m in masks) if img}
    full = (1 << len(target)) - 1
    covered = 0
    for m in out:
        covered |= m
    if covered != full:
        out.add(full)
    return out


def check_algebra_model(text, spec):
    """A model-valued algebra result: valid, optional exact recomputation,
    optional identified terms, recorded reference atoms."""
    parsed = parse_model(text)
    if isinstance(parsed, str):
        return parsed
    names, masks = parsed
    if names != tuple(spec["constants"]):
        return "result constants differ from the expected signature"
    problem = model_problem(names, masks)
    if problem:
        return problem
    if "exact" in spec and set(masks) != set(spec["exact"]):
        return "atoms differ from the benchmark's own recomputation"
    if "reduced_exact" in spec and own_reduce(masks) != spec["reduced_exact"]:
        return "reduced atoms differ from the benchmark's own rename-route image"
    for left, right in spec.get("equal", ()):
        if not (holds(masks, left, right) and holds(masks, right, left)):
            return "identified terms are not equal in the result"
    if digest(names, masks) != spec["digest"]:
        return "atom set differs from the recorded reference output"
    return None


def check_algebra_json(text, spec):
    """decompose / embed-free documents, compared with own recomputation."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return f"output is not JSON: {exc}"
    if doc != spec["doc"]:
        return "document differs from the benchmark's own recomputation"
    return None


CHECKS = {
    "build": check_build,
    "query": check_query,
    "theory_check": check_theory_check,
    "text": check_text,
    "axioms": check_axioms,
    "model": check_algebra_model,
    "doc": check_algebra_json,
}
