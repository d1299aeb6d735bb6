"""The full-crossing engine.

Crossing a positive duple replaces the atoms that falsify it (the
discriminant) with their unions against every atom below the right-hand term.
Iterating over a list of duples, starting from the singleton atoms, builds
the freest model of those sentences; which is also how consistency of a mixed
positive/negative sentence set is decided. On a reduced model,
:func:`fused_crossing` yields the reduced result of one such step without
building the whole union grid. :func:`cross_positives` is the one crossing
loop: freest models, scripts and the crossing constructions of
:mod:`atomlat.algebra` all chain their duples through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .core import Atom, Duple, Signature, canonical_key
from .model import AtomColumns, Model, _require_in_sig, holds, new_model, reduce

REDUCE_POLICIES = ("after_each", "never")


def full_crossing(model: Model, r: Duple) -> Model:
    """The freest model satisfying the model's positive theory plus ``r``.

    If the duple already holds, the model is returned unchanged. Otherwise
    the discriminant atoms are replaced by their unions with every atom below
    the right term; duplicates produced by the union grid merge immediately.
    This is the reference crossing: it works on any atom set, reduced or not.
    """
    _require_in_sig(model.sig, r.left.mask | r.right.mask)
    moved = {a.mask for a in model.atoms if a.mask & r.left.mask and not a.mask & r.right.mask}
    if not moved:
        return model
    below_right = [a.mask for a in model.atoms if a.mask & r.right.mask]
    masks = {a.mask for a in model.atoms} - moved
    for h in moved:
        for b in below_right:
            masks.add(h | b)
    return new_model(model.sig, (Atom(m) for m in masks))


def fused_crossing(model: Model, r: Duple) -> Model:
    """``reduce(full_crossing(model, r))`` for a reduced ``model``, exactly.

    Two facts from the witness argument in :func:`atomlat.model.reduce` let
    this skip most of the union grid:

    - every atom of a reduced model that the crossing keeps stays
      non-redundant, so only the new unions ``h | b`` need a check;
    - only the inclusion-minimal atoms ``b`` below the right term need to be
      unioned: for b1 ⊊ b2 the atom ``h | b2 = (h | b1) | b2`` is redundant
      or a duplicate, and dropping a redundant atom before :func:`reduce`
      changes no other atom's verdict.

    The result covers every constant the model covers: each removed
    discriminant atom ``h`` is replaced by unions ``h | b ⊇ h``, and a union
    dropped as redundant is itself a union of atoms that are kept. On a model
    that is not reduced the result can differ from the reference; use
    ``reduce(full_crossing(model, r))`` there.
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
    below_index = AtomColumns(below, len(model.sig))
    minimal = [b for b in below if not below_index.narrower(b)]
    survivors = [atom.mask for atom in kept]
    unions = list({h | b for h in moved for b in minimal}.difference(survivors))
    index = AtomColumns(survivors + unions, len(model.sig))
    kept.extend(Atom(u) for u in unions if not index.redundant(u))
    return Model(model.sig, tuple(sorted(kept, key=canonical_key)))


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
    which reduces any start, and every later step is :func:`fused_crossing`
    on the reduced model. Under ``never`` every step is :func:`full_crossing`
    and redundant atoms stay. With no duples the start is returned unchanged.
    """
    if reduce_policy not in REDUCE_POLICIES:
        raise ValueError(f"reduce_policy must be one of {REDUCE_POLICIES}")
    eager = reduce_policy == "after_each"
    if on_step is not None:
        on_step(0, model)
    for k, r in enumerate(positives, start=1):
        if eager and k > 1:
            model = fused_crossing(model, r)
        else:
            model = full_crossing(model, r)
            if eager:
                model = reduce(model)
        if on_step is not None:
            on_step(k, model)
    return model


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
    singletons = new_model(sig, (Atom(1 << i) for i in range(len(sig))))
    return cross_positives(singletons, positives, reduce_policy)


@dataclass(frozen=True)
class ConsistencyReport:
    """Outcome of checking negative sentences against crossed positives."""

    model: Model
    satisfiable: tuple[Duple, ...]
    entailed: tuple[Duple, ...]

    @property
    def consistent(self) -> bool:
        return not self.entailed


def check_consistency(
    sig: Signature,
    positives: tuple[Duple, ...] | list[Duple],
    negatives: tuple[Duple, ...] | list[Duple],
) -> ConsistencyReport:
    """Decide which negatives survive alongside the positives.

    A negative duple is satisfiable together with the positives exactly when
    it still fails in their freest model; if the positives force it, keeping
    it negative is inconsistent.
    """
    model = freest_model(sig, tuple(positives))
    satisfiable = []
    entailed = []
    for r in negatives:
        if holds(model, r.signed(True)):
            entailed.append(r)
        else:
            satisfiable.append(r)
    return ConsistencyReport(model, tuple(satisfiable), tuple(entailed))
