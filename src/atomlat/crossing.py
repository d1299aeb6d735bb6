"""The full-crossing engine.

Crossing a positive duple replaces the atoms that falsify it (the
discriminant) with their unions against every atom below the right-hand term.
Iterating over a list of duples, starting from the singleton atoms, builds
the freest model of those sentences. A negative sentence is consistent with
them exactly when it fails in that model, which is how the deny verdicts of
:func:`atomlat.script.run_script` are decided. :func:`cross_runs` is the
one crossing loop: it crosses runs of duples on one chain, one run per
``show`` of a script, and :func:`cross_positives` is its one-run case. On a
reduced atom set, :func:`_replace` yields the reduced result of one step
without building the whole union grid. The reference step is
:func:`_cross`, in place on a bare set of atom masks: :func:`full_crossing`
is that step on a model, a ``never`` run folds it over one mask set, and
the identify step of :mod:`atomlat.algebra` folds it over the masks of a
construction, so each of them sorts and builds one model at its end.

The reduced result of a chain does not depend on the order of its duples:
it is the unique non-redundant atomization of the freest model, and the
theory of that model is the same for every order. The order sets only the
size of the models on the way, which is the whole cost, so an
``after_each`` chain sorts each run once, before crossing it, by
:func:`_growth`: fewest constants in the right term first, since the atoms
below the right term set the growth factor of a step. A ``never`` chain,
whose redundant atoms depend on the order, keeps the script order.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .core import Duple, Signature, canonical_masks
from .model import AtomColumns, Model, _require_in_sig, reduce

REDUCE_POLICIES = ("after_each", "never")


def full_crossing(model: Model, r: Duple) -> Model:
    """The freest model satisfying the model's positive theory plus ``r``.

    If the duple already holds, the model is returned unchanged. Otherwise
    the discriminant atoms are replaced by their unions with every atom below
    the right term (:func:`_cross`), and duplicates produced by the union
    grid merge immediately. This is the reference crossing: it works on any
    atom set, reduced or not. It needs no :func:`atomlat.model.new_model`
    check: its masks stay inside the signature, and each moved ``h`` gives
    way to unions ``h | b ⊇ h``.
    """
    left, right = r.left.mask, r.right.mask
    _require_in_sig(model.sig, left | right)
    masks = set(model.masks)
    return Model(model.sig, canonical_masks(masks)) if _cross(masks, left, right) else model


def _cross(masks: set[int], left: int, right: int) -> bool:
    """Cross ``left <= right`` into a set of atom masks, in place; return whether any moved.

    The masks that meet ``left`` but not ``right`` (the discriminant) are
    removed, and their unions ``h | b`` with every mask ``b`` that meets
    ``right`` are added. Nothing is checked or reduced, so the terms must lie
    inside the signature of the masks.

    >>> sig = Signature.of("a b c d e")
    >>> masks = {sig.mask_of_names(x) for x in ("a", "a b", "c d e", "b e", "c", "d")}
    >>> b, a_d = sig.mask_of_names("b"), sig.mask_of_names("a d")
    >>> _cross(masks, b, a_d)
    True
    >>> sorted(" ".join(sig.names_of(mask)) for mask in masks)
    ['a', 'a b', 'a b e', 'b c d e', 'b d e', 'c', 'c d e', 'd']
    >>> _cross(masks, b, a_d)
    False
    """
    moved, below = [], []
    for mask in masks:
        if mask & right:
            below.append(mask)
        elif mask & left:
            moved.append(mask)
    if not moved:
        return False
    masks.difference_update(moved)
    masks.update({h | b for h in moved for b in below})
    return True


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


def _split(index: AtomColumns, left: int, right: int) -> tuple[int, int]:
    """The positions of the atoms that ``left <= right`` moves, and of those below ``right``."""
    below = index.meeting(right)
    return index.meeting(left) & ~below, below


def _replace(index: AtomColumns, moved: int, below: int):
    """Replace the atoms at ``moved`` by their unions with the atoms at ``below``, in place.

    The live atoms must be reduced; the result is then the reduced result
    of the reference step. Only the unions ``h | b`` of the moved ``h`` with
    the minimal ``b`` below the right term whose traces ``b & ~h`` are
    minimal get the column test, against the survivors plus those unions.
    The witness argument in :func:`atomlat.model.reduce` says why that is
    exact.
    """
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


def cross_positives(
    model: Model, positives: Iterable[Duple], reduce_policy: str = "after_each"
) -> Model:
    """Cross the positive duples into ``model`` under a reduce policy.

    This is one run of :func:`cross_runs`, the one crossing chain, so every
    duple is checked against the signature before the first crossing. Under
    ``after_each`` the duples are crossed in :func:`_growth` order; the
    order cannot change the result, since crossing adds the duples to
    the theory of the start, whatever their order, and a semilattice has
    one non-redundant atomization. Under ``never`` every step is the
    reference step :func:`_cross` and redundant atoms stay, so the atom set
    depends on the order, and the duples are crossed in the given order.
    With no duples the start is returned unchanged.

    >>> sig = Signature.of("a b c")
    >>> a_b, b_c, c_a = (Duple(sig.term(x), sig.term(y)) for x, y in ("ab", "bc", "ca"))
    >>> cross_positives(freest_model(sig), [a_b, b_c, c_a])
    Model<a b c>[a b c]
    >>> cross_positives(freest_model(sig), [c_a, b_c, a_b])
    Model<a b c>[a b c]
    """
    return next(cross_runs(model, [positives], reduce_policy))


def cross_runs(
    model: Model, runs: Iterable[Iterable[Duple]], reduce_policy: str = "after_each"
) -> Iterator[Model]:
    """Cross the runs of duples one after another; yield the model after each run.

    The policy and every duple of every run are checked when the first
    model is asked for, before anything is crossed. Under ``after_each``
    each run is sorted once by :func:`_growth`, ties in the given order.
    The chain's first duple in that order takes the reference path
    ``reduce(full_crossing(...))``, which reduces any start. Every later
    duple is crossed by :func:`_schedule` on one live
    :class:`~atomlat.model.AtomColumns` index that the chain keeps across
    the runs, and a sorted model is built only at the end of a run that
    changed the atoms. Under ``never`` each run folds :func:`_cross` over
    one mask set, in the given order, and a sorted model is built only when
    the run changed it.
    """
    if reduce_policy not in REDUCE_POLICIES:
        raise ValueError(f"reduce_policy must be one of {REDUCE_POLICIES}")
    sig = model.sig
    runs = [tuple(run) for run in runs]
    for run in runs:
        for r in run:
            _require_in_sig(sig, r.left.mask | r.right.mask)
    index = None
    for run in runs:
        if reduce_policy == "never":
            masks = set(model.masks)
            changed = False
            for r in run:
                changed |= _cross(masks, r.left.mask, r.right.mask)
            if changed:
                model = Model(sig, canonical_masks(masks))
        elif run:
            run = sorted(run, key=_growth)
            if index is None:
                model = reduce(full_crossing(model, run[0]))
                index = AtomColumns(model.masks, len(sig))
                run = run[1:]
            if _schedule(index, run):
                model = Model(sig, canonical_masks(index.masks_at(index.live)))
        yield model


def _growth(r: Duple) -> tuple[int, int]:
    """The order key of a duple: its right term's constants, then its left term's outside it.

    A step replaces each moved atom ``h`` by its unions ``h | b`` with the
    atoms below the right term, so their count is the factor by which the
    step can grow the set: a duple with one atom below adds no atom, however
    many it moves. On the free singletons the atoms below the right term are
    its constants and the moved atoms those of the left term outside it, so
    the key is (|below|, |moved|) of the first step, read off the duple.
    """
    right = r.right.mask
    return right.bit_count(), (r.left.mask & ~right).bit_count()


def _schedule(index: AtomColumns, positives: Sequence[Duple]) -> bool:
    """Cross the duples into the reduced atom set of ``index``, in the given order.

    Returns whether the set changed. A duple that moves no atom holds and is
    skipped.
    """
    changed = False
    for r in positives:
        moved, below = _split(index, r.left.mask, r.right.mask)
        if moved:
            _replace(index, moved, below)
            changed = True
    return changed


def freest_model(
    sig: Signature,
    positives: tuple[Duple, ...] | list[Duple] = (),
    reduce_policy: str = "after_each",
) -> Model:
    """Cross the positive duples into the singleton-atom model.

    The result atomizes the freest model of the given sentences. The policy
    only controls when redundant atoms are dropped; the semilattice itself is
    independent of it, and of the duple order. Under ``after_each`` the
    atoms are too, since the reduced atomization is unique, so the duples
    are crossed in :func:`_growth` order (see :func:`cross_runs`); under
    ``never`` they are crossed in the given order.
    """
    singletons = Model(sig, tuple([1 << i for i in range(len(sig))]))
    return cross_positives(singletons, positives, reduce_policy)

