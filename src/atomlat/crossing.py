"""The full-crossing engine.

Crossing a positive duple replaces the atoms that falsify it (the
discriminant) with their unions against every atom below the right-hand term.
Iterating over a list of duples, starting from the singleton atoms, builds
the freest model of those sentences. A negative sentence is consistent with
them exactly when it fails in that model, which is how the deny verdicts of
:func:`atomlat.script.run_script` are decided. On a reduced model,
:func:`fused_crossing` yields the reduced result of one such step without
building the whole union grid. :func:`cross_positives` is the one crossing
loop of freest models and scripts; the identify step of
:mod:`atomlat.algebra` folds :func:`full_crossing` over its duples.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .core import Atom, Duple, Signature, canonical_key
from .model import AtomColumns, Model, _require_in_sig, reduce

REDUCE_POLICIES = ("after_each", "never")


def full_crossing(model: Model, r: Duple) -> Model:
    """The freest model satisfying the model's positive theory plus ``r``.

    If the duple already holds, the model is returned unchanged. Otherwise
    the discriminant atoms are replaced by their unions with every atom below
    the right term; duplicates produced by the union grid merge immediately,
    and the atoms the crossing keeps are the caller's own objects. This is
    the reference crossing: it works on any atom set, reduced or not. It
    needs no :func:`atomlat.model.new_model` check: its masks stay inside the
    signature, and each moved ``h`` gives way to unions ``h | b ⊇ h``.
    """
    left, right = r.left.mask, r.right.mask
    _require_in_sig(model.sig, left | right)
    kept, moved, below = [], [], []
    for atom in model.atoms:
        mask = atom.mask
        if mask & right:
            below.append(mask)
        elif mask & left:
            moved.append(mask)
            continue
        kept.append(atom)
    if not moved:
        return model
    unions = {h | b for h in moved for b in below}.difference(atom.mask for atom in kept)
    kept.extend(Atom(u) for u in unions)
    return Model(model.sig, tuple(sorted(kept, key=canonical_key)))


def _minimal(masks: Iterable[int]) -> list[int]:
    """The inclusion-minimal masks among ``masks``, each once."""
    kept: list[int] = []
    for mask in sorted(masks, key=int.bit_count):
        for smaller in kept:
            if not smaller & ~mask:
                break
        else:
            kept.append(mask)
    return kept


def _fused_step(index: AtomColumns, sig: Signature, r: Duple) -> bool:
    """Cross ``r`` into the reduced atom set of ``index``, in place.

    Returns whether the set changed; a duple that already holds costs a few
    column ORs. Only the unions ``h | b`` of the moved ``h`` with the
    minimal ``b`` below the right term whose traces ``b & ~h`` are minimal
    get the column test, against the survivors plus those unions.
    """
    left, right = r.left.mask, r.right.mask
    _require_in_sig(sig, left | right)
    below = index.meeting(right)
    moved = index.meeting(left) & ~below
    if not moved:
        return False
    minimal = _minimal(index.masks_at(below))
    unions = set()
    for h in index.masks_at(moved):
        unions.update(h | trace for trace in _minimal({b & ~h for b in minimal}))
    fresh = [u for u in unions if u not in index.position]
    index.drop(moved)
    index.extend(fresh)
    position = index.position
    redundant = 0
    for u in fresh:
        if index.redundant(u):
            redundant |= 1 << position[u]
    index.drop(redundant)
    return True


def _model_of(sig: Signature, index: AtomColumns) -> Model:
    """The live atoms of ``index`` as a model, in canonical order."""
    return Model(sig, tuple(sorted(map(Atom, index.masks_at(index.live)), key=canonical_key)))


def fused_crossing(model: Model, r: Duple) -> Model:
    """``reduce(full_crossing(model, r))`` for a reduced ``model``, exactly.

    It is one step of a :func:`cross_positives` chain on a fresh
    :class:`~atomlat.model.AtomColumns` index. Three facts from the witness
    argument in :func:`atomlat.model.reduce` let it skip most of the union
    grid:

    - every atom of a reduced model that the crossing keeps stays
      non-redundant, so only the new unions ``h | b`` need a check;
    - only the inclusion-minimal atoms ``b`` below the right term need to be
      unioned: for b1 ⊊ b2 the atom ``h | b2 = (h | b1) | b2`` is redundant
      or a duplicate;
    - for each moved ``h``, only the ``b`` whose trace ``b & ~h`` is
      inclusion-minimal need to be unioned: when ``b' & ~h ⊊ b & ~h``, the
      union ``h | b`` is covered by ``h | b'`` and the kept ``b``.

    Dropping a redundant atom before :func:`reduce` changes no other atom's
    verdict, so the column test needs only the survivors and the unions it
    keeps. The result covers every constant the model covers: each removed
    discriminant atom ``h`` is replaced by unions ``h | b ⊇ h``, and a union
    dropped as redundant is itself a union of atoms that are kept. On a model
    that is not reduced the result can differ from the reference; use
    ``reduce(full_crossing(model, r))`` there.

    Below, ``a b c d`` is the union of ``a b`` with ``a c d``, whose trace
    ``c d`` strictly contains the trace ``c`` of ``b c``, so it is skipped:

    >>> sig = Signature.of("a b c d")
    >>> m = Model(sig, tuple(map(sig.atom, ["a b", "a c d", "b c"])))
    >>> r = Duple(sig.term("a"), sig.term("c"))
    >>> [atom.label(sig) for atom in full_crossing(m, r).atoms]
    ['a b c', 'a b c d', 'a c d', 'b c']
    >>> [atom.label(sig) for atom in fused_crossing(m, r).atoms]
    ['a b c', 'a c d', 'b c']
    """
    index = AtomColumns([atom.mask for atom in model.atoms], len(model.sig))
    if not _fused_step(index, model.sig, r):
        return model
    return _model_of(model.sig, index)


def cross_positives(
    model: Model,
    positives: Iterable[Duple],
    reduce_policy: str = "after_each",
    on_step: Callable[[int, Model], None] | None = None,
) -> Model:
    """Cross the positive duples into ``model`` in order, under a reduce policy.

    ``on_step(k, current)`` sees the model after the first ``k`` duples,
    starting at ``k = 0`` with the start as given. Under ``after_each`` the
    first step runs on the reference path ``reduce(full_crossing(...))``,
    which reduces any start. Every later step is the step of
    :func:`fused_crossing`, on one live :class:`~atomlat.model.AtomColumns`
    index that the chain keeps from its second step to its last; the sorted
    model is built only at the end, or at a step that ``on_step`` observes.
    Under ``never`` every step is :func:`full_crossing` and redundant atoms
    stay. With no duples the start is returned unchanged.
    """
    if reduce_policy not in REDUCE_POLICIES:
        raise ValueError(f"reduce_policy must be one of {REDUCE_POLICIES}")
    eager = reduce_policy == "after_each"
    sig = model.sig
    index = None
    if on_step is not None:
        on_step(0, model)
    for k, r in enumerate(positives, start=1):
        if not eager:
            model = full_crossing(model, r)
        elif k == 1:
            model = reduce(full_crossing(model, r))
        else:
            if index is None:
                index = AtomColumns([atom.mask for atom in model.atoms], len(sig))
            if _fused_step(index, sig, r):
                model = None
        if on_step is not None:
            if model is None:
                model = _model_of(sig, index)
            on_step(k, model)
    return _model_of(sig, index) if model is None else model


def freest_model(
    sig: Signature,
    positives: tuple[Duple, ...] | list[Duple] = (),
    reduce_policy: str = "after_each",
) -> Model:
    """Cross the positive duples, in order, into the singleton-atom model.

    The result atomizes the freest model of the given sentences. The policy
    only controls when redundant atoms are dropped; the semilattice itself is
    independent of it, and of the duple order.
    """
    singletons = Model(sig, tuple(Atom(1 << i) for i in range(len(sig))))
    return cross_positives(singletons, positives, reduce_policy)

