"""Structural constructions over atomized models.

Everything here is atom images plus the reference crossing fold. The atom
image :func:`map_atoms` sends each source constant to a set of target
constants, possibly empty, and applies that to every atom's upper segment.
Two terms are identified by crossing both directions, ``s <= t`` then
``t <= s``, in one :func:`atomlat.crossing._cross` over a set of bare atom
masks, in place and without reduction, so a construction builds one sorted
model at its end. Renaming is an atom image, and restriction its special
case that keeps some constants in order, which copies the kept bits of each
mask a run of neighbouring constants at a time. A quotient identifies two
terms; a join places two atom sets side by side, identifies the shared
constants and restricts their copies away; the crossing route of a
subalgebra places the free atoms on the fresh names beside the model's,
identifies each fresh name with its generator and restricts to the fresh
names. A product unites two atom images on the pair grid, and the embedding
into a free model and the subdirect decomposition read the atoms off
directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .core import Atom, Signature, Term, bit_indices, canonical_masks, zero_atom
from .errors import (
    EmptyRestrictionSet,
    NameCollision,
    RenameMapIncomplete,
    TrivialModel,
    UnknownConstant,
    UnknownTargetConstant,
)
from .crossing import _cross
from .model import (
    Model,
    _require_in_sig,
    _transpose,
    is_redundant,
    model_of_masks,
    reduce,
    union_model,
)


@dataclass(frozen=True, eq=False)
class RenameMap:
    """Maps each source constant name to a set of target constant names.

    An empty target set deletes the constant from every atom; an atom whose
    upper segment maps to the empty set is annihilated. A target name that
    the target signature does not declare raises
    :class:`~atomlat.errors.UnknownTargetConstant`; one that no signature
    may declare raises :class:`~atomlat.errors.InvalidConstantName`, as
    every other name lookup does.
    """

    target: Signature
    mapping: Mapping[str, tuple[str, ...]]

    @classmethod
    def of(
        cls,
        mapping: Mapping[str, Iterable[str]],
        targets: str | Iterable[str],
    ) -> "RenameMap":
        target = Signature.of(targets)
        fixed = {}
        for source, names in mapping.items():
            try:
                fixed[source] = target.names_of(target.mask_of_names(names))
            except UnknownConstant as exc:
                raise UnknownTargetConstant(f"target of {source!r}: {exc}") from None
        return cls(target, fixed)


def map_atoms(model: Model, images: Sequence[int], target: Signature) -> Model:
    """Send every atom to the union of the images of the constants above it.

    ``images[i]`` is the mask, over ``target``, of the image of constant i.
    Atoms whose image is empty vanish and equal images merge; a target
    constant left uncovered gets the usual zero-atom repair and its warning.
    There must be one image per constant of ``model``.
    """
    if len(images) != len(model.sig):
        raise ValueError(f"map_atoms needs {len(model.sig)} images, got {len(images)}")
    masks = []
    for mask in model.masks:
        image = 0
        for i in bit_indices(mask):
            image |= images[i]
        if image:
            masks.append(image)
    return model_of_masks(target, masks)


def rename(model: Model, rmap: RenameMap) -> Model:
    """Apply a rename map to every atom's upper segment.

    The map must cover every source constant. Atoms mapping to the empty set
    disappear; duplicate images merge; if a target constant ends up uncovered
    the usual zero-atom repair fires with its warning.
    """
    sig = model.sig
    missing = sig.full_mask & ~sig.mask_of_names(rmap.mapping)
    if missing:
        raise RenameMapIncomplete(f"no target set for constant {sig.names_of(missing)[0]!r}")
    image_masks = [rmap.target.mask_of_names(rmap.mapping[name]) for name in sig.names]
    return map_atoms(model, image_masks, rmap.target)


def restrict(model: Model, keep: str | Iterable[str]) -> Model:
    """The subalgebra generated by a subset of the constants.

    Each atom's upper segment is intersected with the kept constants; empty
    intersections drop the atom. The kept constants retain their original
    relative order.
    """
    kept = model.sig.mask_of_names(keep)
    if not kept:
        raise EmptyRestrictionSet("restriction needs at least one constant")
    target = Signature(model.sig.names_of(kept))
    return _restrict(target, model.masks, kept)


def _restrict(target: Signature, masks: Iterable[int], keep: int) -> Model:
    """The atom image that keeps the constants of ``keep``, in order, as ``target``'s.

    Each mask's kept bits are copied one run of neighbouring constants at a
    time, ``(mask >> old & run) << new``; empty images vanish, and one
    :func:`~atomlat.model.model_of_masks` merges equal images and repairs
    lost coverage.
    """
    runs, width = [], 0
    while keep:
        low = keep & -keep
        run = keep & ~(keep + low)  # the lowest run of neighbouring kept bits
        old = low.bit_length() - 1
        runs.append((old, run >> old, width))
        width += run.bit_count()
        keep ^= run
    images = set()
    for mask in masks:
        image = 0
        for old, run, new in runs:
            image |= (mask >> old & run) << new
        images.add(image)
    images.discard(0)
    return model_of_masks(target, list(images))


def quotient(model: Model, a: Term, b: Term) -> Model:
    """The quotient by the principal congruence identifying two terms.

    Computed by crossing both directions: first b <= a, then a <= b. A term
    outside the signature raises :class:`~atomlat.errors.SignatureMismatch`.
    """
    _require_in_sig(model.sig, a.mask | b.mask)
    masks = set(model.masks)
    if not _cross(masks, [(b.mask, a.mask), (a.mask, b.mask)]):
        return model
    return Model(model.sig, canonical_masks(masks))


def join(m: Model, n: Model) -> Model:
    """The freest model over the merged constants satisfying both theories.

    The two atom sets are first placed side by side, n's constants after m's.
    With disjoint constant sets that is the join. A shared constant c is
    split: n's copy of c is a constant of its own, identified with c by
    crossing both directions, and the copies are restricted away.
    """
    offset = len(m.sig)
    names, pairs, keep = list(m.sig.names), [], m.sig.full_mask
    for j, name in enumerate(n.sig.names):
        copy = 1 << (offset + j)
        if name in m.sig:
            bit = 1 << m.sig.index_of(name)
            pairs += [(copy, bit), (bit, copy)]
        else:
            names.append(name)
            keep |= copy
    target = Signature(tuple(names))
    shifted = [mask << offset for mask in n.masks]
    if not pairs:
        # m's atoms use only the low positions and n's shifted ones only the
        # high ones, so the two canonical tuples end to end are canonical,
        # distinct and covering.
        return Model(target, (*m.masks, *shifted))
    masks = set(m.masks)
    masks.update(shifted)
    _cross(masks, pairs)
    return _restrict(target, masks, keep)


SUBALGEBRA_ROUTES = ("rename", "crossing")


def subalgebra(
    model: Model,
    generators: Sequence[Term],
    names: str | Sequence[str],
    route: str = "rename",
) -> Model:
    """The subalgebra generated by the given terms, one fresh name per term.

    The rename route maps each source constant onto the names of the
    generators containing it. The crossing route joins the model with the
    free model on the fresh names, identifies each fresh name with its
    generator term, and restricts to the fresh names. Both atomize the same
    semilattice and agree after reduction.
    """
    if isinstance(names, str):
        names = names.split()
    names = tuple(names)
    generators = tuple(generators)
    if route not in SUBALGEBRA_ROUTES:
        raise ValueError(f"route must be one of {SUBALGEBRA_ROUTES}")
    if len(names) != len(generators):
        raise ValueError("need exactly one name per generator term")
    if len(set(names)) != len(names):
        raise NameCollision(f"repeated generator name in {names}")
    for name in names:
        if name in model.sig:
            raise NameCollision(f"generator name {name!r} already in the signature")
    for term in generators:
        _require_in_sig(model.sig, term.mask)

    if route == "rename":
        images = [0] * len(model.sig)
        for i, term in enumerate(generators):
            for k in bit_indices(term.mask):
                images[k] |= 1 << i
        return map_atoms(model, images, Signature(names))

    offset = len(model.sig)
    fresh = [1 << (offset + i) for i in range(len(names))]
    masks = set(model.masks)
    masks.update(fresh)
    _cross(masks, [pair for term, bit in zip(generators, fresh)
                   for pair in ((term.mask, bit), (bit, term.mask))])
    return _restrict(Signature(names), masks, sum(fresh))


def product(m: Model, n: Model, identify_diagonal: bool = False) -> Model:
    """The product model, over one constant per pair of source constants.

    The pair (a, b) becomes the constant "a*b". Each m-atom spreads over the
    rows of the pair grid, each n-atom over the columns, and the product is
    the union of the two spreads. Constants shared between the operands are
    treated as disjoint; with ``identify_diagonal`` each shared c is glued
    back in by renaming "c*c" to c, which moves no atom. Two pairs that spell
    the same name, such as (x, y*z) and (x*y, z), raise
    :class:`NameCollision`, and so does a shared c that already names a pair.
    """
    width = len(n.sig)
    pairs: dict[str, tuple[str, str]] = {}
    for a in m.sig.names:
        for b in n.sig.names:
            name = f"{a}*{b}"
            if name in pairs:
                raise NameCollision(
                    f"product constant {name!r} names both {pairs[name]} and {(a, b)}"
                )
            pairs[name] = (a, b)
    grid = Signature(tuple(pairs))
    row_masks = [((1 << width) - 1) << (i * width) for i in range(len(m.sig))]
    unit = sum(1 << (i * width) for i in range(len(m.sig)))  # bit 0 of every row
    col_masks = [unit << j for j in range(width)]
    result = union_model(map_atoms(m, row_masks, grid), map_atoms(n, col_masks, grid))
    if not identify_diagonal:
        return result
    diagonal = {f"{name}*{name}": name for name in m.sig.names if name in n.sig}
    for name in diagonal.values():
        if name in pairs:
            raise NameCollision(
                f"shared constant {name!r} also names the pair {pairs[name]}"
            )
    return Model(Signature(tuple([diagonal.get(g, g) for g in grid.names])), result.masks)


@dataclass(frozen=True)
class SubdirectComponent:
    """A two-element factor of the subdirect decomposition.

    The component model has one constant strictly below the other: the atom
    under ``top_name`` alone pins the order, the one under both is the zero.
    """

    atom: Atom
    top_name: str
    bottom_name: str

    def component_model(self) -> Model:
        sig = Signature((self.top_name, self.bottom_name))
        return Model(sig, (0b01, 0b11))


@dataclass(frozen=True)
class Decomposition:
    """A reduced model presented inside a product of two-element factors."""

    source: Model
    components: tuple[SubdirectComponent, ...]
    generators: tuple[tuple[str, tuple[str, ...]], ...]


def subdirect_decomposition(model: Model) -> Decomposition:
    """Present the model as a subdirect product of two-element semilattices.

    One component per non-zero atom of the reduced model. The tuple for a
    constant takes the component's top name when the atom lies below the
    constant and the bottom name otherwise. Rebuilding the product of the
    components and taking the subalgebra generated by the tuples recovers the
    model's theory.
    """
    red = reduce(model)
    full = red.sig.full_mask
    picked = [mask for mask in red.masks if mask != full]
    if not picked:
        raise TrivialModel("the one-element model has no subdirect decomposition")
    components = tuple([
        SubdirectComponent(Atom(mask), f"z{j + 1}", f"zb{j + 1}")
        for j, mask in enumerate(picked)
    ])
    generators = []
    for i, name in enumerate(red.sig.names):
        coords = tuple([
            comp.top_name if comp.atom.mask >> i & 1 else comp.bottom_name
            for comp in components
        ])
        generators.append((name, coords))
    return Decomposition(red, components, tuple(generators))


def embed_in_free(model: Model) -> tuple[Signature, tuple[Term, ...]]:
    """One free constant per atom; each source constant becomes a term.

    The term for constant c sums exactly the constants standing for the atoms
    below c. The subalgebra of the free model over the returned signature
    generated by the returned terms reproduces the model.
    """
    free_sig = Signature(tuple([f"z{k + 1}" for k in range(len(model.masks))]))
    return free_sig, tuple([Term(column) for column in _transpose(model.masks, len(model.sig))])


def restriction_homomorphism_exists(model: Model, keep: str | Iterable[str]) -> bool:
    """Whether restriction to the kept constants extends to a homomorphism.

    Holds exactly when the zero atom of the restriction is non-redundant
    there; equivalently, when the restriction has a bottom constant.
    """
    restricted = restrict(model, keep)
    return not is_redundant(restricted, zero_atom(restricted.sig))
