import pytest

from atomlat import algebra
from atomlat.algebra import (
    RenameMap,
    embed_in_free,
    join,
    map_atoms,
    product,
    quotient,
    rename,
    restrict,
    restriction_homomorphism_exists,
    subalgebra,
    subdirect_decomposition,
)
from atomlat.core import Atom, Duple, Signature, Term
from atomlat.crossing import cross_runs, freest_model, full_crossing
from atomlat.errors import (
    EmptyRestrictionSet,
    EmptySignature,
    NameCollision,
    RenameMapIncomplete,
    SignatureMismatch,
    TrivialModel,
    UnknownConstant,
    UnknownTargetConstant,
)
from atomlat.model import (
    Model,
    enumerate_theory,
    is_freer,
    is_redundant,
    new_model,
    reduce,
    union_model,
)
from atomlat.oracle import closure_oracle

from conftest import duple, mk, random_duple, random_model, random_term, seeded, valid


def atom_names(model):
    return {atom.names(model.sig) for atom in model.atoms}


# ---------------------------------------------------------------- restrict


def test_restrict_golden_join_intermediate():
    m = mk("a b c c' d e", "c c' d e", "a b c c' d e")
    out = restrict(m, "a b c d e")
    assert out.sig.names == ("a", "b", "c", "d", "e")
    assert atom_names(out) == {("c", "d", "e"), ("a", "b", "c", "d", "e")}


def test_restrict_to_everything_is_identity():
    m = mk("a b c", "a", "b c", "a b c")
    assert restrict(m, "a b c") == m


def test_restrict_drops_unhit_atoms():
    m = mk("a b", "a", "b", "a b")
    out = restrict(m, "a")
    assert out.sig.names == ("a",)
    assert atom_names(out) == {("a",)}


def test_restrict_rejects_empty_or_unknown():
    m = mk("a b", "a", "b")
    with pytest.raises(EmptyRestrictionSet):
        restrict(m, [])
    with pytest.raises(UnknownConstant):
        restrict(m, "a q")


def test_restricted_nonredundant_atoms_come_from_source():
    rng = seeded(41)
    for _ in range(40):
        m = random_model(rng, "a b c d")
        keep_idx = sorted(rng.sample(range(4), rng.randint(1, 4)))
        keep = [m.sig.names[i] for i in keep_idx]
        keep_mask = sum(1 << i for i in keep_idx)
        sub = reduce(restrict(m, keep))
        source = {
            a.mask & keep_mask for a in reduce(m).atoms if a.mask & keep_mask
        }
        compressed = set()
        for mask in source:
            out = 0
            for pos, i in enumerate(keep_idx):
                if mask & (1 << i):
                    out |= 1 << pos
            compressed.add(out)
        assert {a.mask for a in sub.atoms} <= compressed


# ------------------------------------------------------------------ rename


def test_rename_golden_subalgebra_map():
    m = mk("c1 c2 c3", "c1", "c2", "c3")
    rmap = RenameMap.of(
        {"c1": ["g1", "g3"], "c2": ["g2", "g4"], "c3": ["g3", "g4"]},
        "g1 g2 g3 g4",
    )
    out = rename(m, rmap)
    assert atom_names(out) == {("g1", "g3"), ("g2", "g4"), ("g3", "g4")}


def test_map_atoms_drops_empty_images_and_merges_equal_ones():
    m = mk("a b c d", "a", "b", "c d", "d")
    out = map_atoms(m, [0b01, 0b01, 0b10, 0], Signature.of("x y"))
    assert out.sig.names == ("x", "y")
    assert atom_names(out) == {("x",), ("y",)}


@pytest.mark.parametrize("count", [2, 4])
def test_map_atoms_needs_one_image_per_constant(count):
    m = freest_model(Signature.of("a b c"))
    with pytest.raises(ValueError, match="needs 3 images, got"):
        map_atoms(m, [0b11] * count, Signature.of("x y"))


def test_rename_identity():
    m = mk("a b", "a", "a b")
    rmap = RenameMap.of({"a": ["a"], "b": ["b"]}, "a b")
    assert rename(m, rmap) == m


def test_rename_total_deletion_rejected():
    m = mk("a b", "a", "b")
    with pytest.raises(EmptySignature):
        RenameMap.of({"a": [], "b": []}, [])


def test_rename_map_validation():
    with pytest.raises(UnknownTargetConstant):
        RenameMap.of({"a": ["q"]}, "g1")
    m = mk("a b", "a", "b")
    with pytest.raises(RenameMapIncomplete):
        rename(m, RenameMap.of({"a": ["g1"]}, "g1"))
    with pytest.raises(UnknownConstant):
        rename(m, RenameMap.of({"a": ["g1"], "b": [], "q": ["g1"]}, "g1"))


def test_rename_map_reads_targets_like_a_signature():
    # a string of targets is split on whitespace, as in every name lookup,
    # and each target list is kept in target-signature order
    rmap = RenameMap.of({"a": "x y", "b": "y"}, "x y")
    assert rmap.mapping == {"a": ("x", "y"), "b": ("y",)}
    assert RenameMap.of({"a": ["y", "x"]}, "x y").mapping["a"] == ("x", "y")
    with pytest.raises(UnknownTargetConstant):
        RenameMap.of({"a": "xy"}, "x y")


def test_rename_never_grows_nonredundant_count():
    rng = seeded(42)
    targets = "g1 g2 g3"
    for _ in range(40):
        m = random_model(rng, "a b c d")
        mapping = {
            name: sorted(
                rng.sample(["g1", "g2", "g3"], rng.randint(0, 3))
            )
            for name in m.sig.names
        }
        covered = {t for parts in mapping.values() for t in parts}
        if not covered:
            continue
        rmap = RenameMap.of(mapping, sorted(covered))
        out = rename(m, rmap)
        assert len(reduce(out).atoms) <= len(reduce(m).atoms)


# ---------------------------------------------------------------- quotient


def test_quotient_collapses_free_pair():
    m = mk("a b", "a", "b")
    out = quotient(m, m.sig.term("a"), m.sig.term("b"))
    assert atom_names(out) == {("a", "b")}


def test_quotient_by_trivial_pair_is_identity():
    m = mk("a b c", "c", "a b c")
    t = m.sig.term("a c")
    assert quotient(m, t, t) == m


def test_quotient_golden_join_step():
    m = mk("a b c d e", "c", "a b c", "c d e")
    out = quotient(m, m.sig.term("c"), m.sig.term("d"))
    assert atom_names(reduce(out)) == {("c", "d", "e"), ("a", "b", "c", "d", "e")}


def test_quotient_is_freest_model_of_extended_theory():
    rng = seeded(43)
    for _ in range(25):
        m = random_model(rng, "a b c")
        a = rng.choice(["a", "b", "c", "a b", "b c"])
        b = rng.choice(["a", "b", "c", "a c"])
        q = quotient(m, m.sig.term(a), m.sig.term(b))
        base = list(enumerate_theory(m))
        base += [duple(m.sig, a, b), duple(m.sig, b, a)]
        assert enumerate_theory(q) == closure_oracle(m.sig, base)


def test_a_term_outside_the_signature_fails_before_any_crossing(monkeypatch):
    # the identify step checks nothing itself, so a crossing would fail on None
    monkeypatch.setattr(algebra, "_cross", None)
    m = mk("a b", "a", "b")
    outside = Term(0b100)
    with pytest.raises(SignatureMismatch):
        quotient(m, m.sig.term("a"), outside)
    with pytest.raises(SignatureMismatch):
        quotient(m, outside, m.sig.term("b"))
    with pytest.raises(SignatureMismatch):
        subalgebra(m, [m.sig.term("a"), outside], ["g1", "g2"], route="crossing")


# -------------------------------------------------------------------- join


def test_join_golden_shared_constant():
    m = mk("a b c", "c", "a b c")
    n = mk("c d e", "c d e")
    out = join(m, n)
    assert out.sig.names == ("a", "b", "c", "d", "e")
    assert atom_names(reduce(out)) == {("c", "d", "e"), ("a", "b", "c", "d", "e")}

    th = enumerate_theory(reduce(out))
    sig = out.sig
    for left, right in [("a", "b"), ("b", "a"), ("c", "d"), ("d", "c"),
                        ("d", "e"), ("e", "d"), ("a", "c")]:
        assert duple(sig, left, right) in th
    assert duple(sig, "c", "a") not in th


def test_union_model_of_same_operands_keeps_branches_apart():
    sig = Signature.of("a b c d e")
    u = union_model(
        mk("a b c d e", "c", "a b c"),
        mk("a b c d e", "c d e"),
    )
    th = enumerate_theory(u)
    for left, right in [("a", "b"), ("b", "a"), ("a", "c"), ("d", "e"),
                        ("e", "d"), ("d", "c")]:
        assert duple(sig, left, right) in th
    for left, right in [("c", "a"), ("c", "d"), ("a", "d"), ("d", "a")]:
        assert duple(sig, left, right) not in th


def test_join_disjoint_is_union_over_merged_signature():
    m = mk("a b", "a", "a b")
    n = mk("x y", "x", "y")
    out = join(m, n)
    assert out.sig.names == ("a", "b", "x", "y")
    assert atom_names(out) == {("a",), ("a", "b"), ("x",), ("y",)}


def test_join_with_self_keeps_theory():
    rng = seeded(44)
    for _ in range(20):
        m = random_model(rng, "a b c")
        assert enumerate_theory(reduce(join(m, m))) == enumerate_theory(reduce(m))


def test_union_is_freer_than_join():
    rng = seeded(45)
    sig = Signature.of("a b c")
    for _ in range(25):
        m = random_model(rng, "a b c")
        n = random_model(rng, "a b c")
        assert is_freer(union_model(m, n), join(m, n))


def test_join_preserves_operand_positives():
    rng = seeded(46)
    for _ in range(20):
        m = random_model(rng, "a b c")
        n = random_model(rng, "c d")
        j = join(m, n)
        back_m = restrict(j, m.sig.names)
        back_n = restrict(j, n.sig.names)
        assert set(enumerate_theory(back_m)) >= set(enumerate_theory(m))
        assert set(enumerate_theory(back_n)) >= set(enumerate_theory(n))


def test_join_embeds_second_operand_iff_no_obstruction():
    rng = seeded(47)
    embedded = obstructed = 0
    for _ in range(60):
        m = random_model(rng, "a b c")
        n = random_model(rng, "b c d")
        j = join(m, n)
        back = reduce(restrict(j, n.sig.names))
        same = enumerate_theory(back) == enumerate_theory(reduce(n))
        # an obstruction is a duple over the shared part that m forces
        # positively while n still holds it negative
        shared = Signature.of("b c")
        obstruction = False
        for d in enumerate_theory(restrict(m, "b c")):
            lifted = Duple(
                n.sig.term(" ".join(shared.names_of(d.left.mask))),
                n.sig.term(" ".join(shared.names_of(d.right.mask))),
            )
            if lifted not in enumerate_theory(restrict(n, "b c")):
                obstruction = True
                break
        assert same == (not obstruction)
        embedded += same
        obstructed += obstruction
    assert embedded and obstructed


# -------------------------------------------------------------- subalgebra


SUB_GENS = ("c1", "c2", "c1 c3", "c2 c3")


def test_subalgebra_golden_rename_route():
    m = mk("c1 c2 c3", "c1", "c2", "c3")
    gens = [m.sig.term(g) for g in SUB_GENS]
    out = subalgebra(m, gens, "g1 g2 g3 g4", route="rename")
    assert atom_names(reduce(out)) == {("g1", "g3"), ("g2", "g4"), ("g3", "g4")}


def test_subalgebra_golden_crossing_route():
    m = mk("c1 c2 c3", "c1", "c2", "c3")
    gens = [m.sig.term(g) for g in SUB_GENS]
    out = subalgebra(m, gens, "g1 g2 g3 g4", route="crossing")
    assert atom_names(reduce(out)) == {("g1", "g3"), ("g2", "g4"), ("g3", "g4")}


def test_subalgebra_golden_theory_facts():
    m = mk("c1 c2 c3", "c1", "c2", "c3")
    gens = [m.sig.term(g) for g in SUB_GENS]
    s = subalgebra(m, gens, "g1 g2 g3 g4")
    th = enumerate_theory(s)
    assert duple(s.sig, "g1", "g3") in th
    assert duple(s.sig, "g3", "g1") not in th
    assert duple(s.sig, "g2", "g4") in th
    assert duple(s.sig, "g4", "g2") not in th
    assert duple(s.sig, "g2 g3", "g1 g4") in th
    assert duple(s.sig, "g1 g4", "g2 g3") in th


def test_subalgebra_routes_agree_on_randoms():
    rng = seeded(48)
    for _ in range(30):
        m = random_model(rng, "a b c")
        count = rng.randint(1, 3)
        gens = [random_duple(rng, 3).left for _ in range(count)]
        names = [f"g{i + 1}" for i in range(count)]
        by_rename = reduce(subalgebra(m, gens, names, route="rename"))
        by_crossing = reduce(subalgebra(m, gens, names, route="crossing"))
        assert by_rename == by_crossing


def test_subalgebra_of_all_singletons_is_a_copy():
    m = mk("a b c", "c", "a b c")
    gens = [m.sig.term(n) for n in m.sig.names]
    out = subalgebra(m, gens, "g1 g2 g3")
    assert {a.mask for a in out.atoms} == {a.mask for a in m.atoms}


def test_subalgebra_single_generator():
    m = mk("a b c", "a", "b", "c")
    out = subalgebra(m, [m.sig.term("a c")], ["g1"])
    assert out.sig.names == ("g1",)
    assert atom_names(out) == {("g1",)}


def test_subalgebra_argument_validation():
    m = mk("a b", "a", "b")
    with pytest.raises(NameCollision):
        subalgebra(m, [m.sig.term("a")], ["b"])
    with pytest.raises(NameCollision):
        subalgebra(m, [m.sig.term("a"), m.sig.term("b")], ["g1", "g1"])
    with pytest.raises(ValueError):
        subalgebra(m, [m.sig.term("a")], ["g1", "g2"])
    with pytest.raises(ValueError):
        subalgebra(m, [m.sig.term("a")], ["g1"], route="sideways")
    for route in ("rename", "crossing"):
        with pytest.raises(SignatureMismatch):
            subalgebra(m, [m.sig.term("a"), Term(0b100)], ["g1", "g2"], route=route)


def test_subalgebra_never_grows_nonredundant_count():
    rng = seeded(49)
    for _ in range(30):
        m = random_model(rng, "a b c d")
        count = rng.randint(1, 4)
        gens = [random_duple(rng, 4).left for _ in range(count)]
        names = [f"g{i + 1}" for i in range(count)]
        out = subalgebra(m, gens, names)
        assert len(reduce(out).atoms) <= len(reduce(m).atoms)


# ----------------------------------------------------------------- product


def test_product_of_two_free_points():
    m = mk("a", "a")
    n = mk("b", "b")
    out = product(m, n)
    assert out.sig.names == ("a*b",)
    assert atom_names(out) == {("a*b",)}


def test_product_point_with_free_pair():
    m = mk("a", "a")
    n = mk("b1 b2", "b1", "b2")
    out = product(m, n)
    assert out.sig.names == ("a*b1", "a*b2")
    # the row spread of the single m-atom is redundant over the two columns
    assert atom_names(out) == {("a*b1",), ("a*b2",), ("a*b1", "a*b2")}
    assert atom_names(reduce(out)) == {("a*b1",), ("a*b2",)}


def test_product_order_is_componentwise():
    rng = seeded(50)
    for _ in range(15):
        m = random_model(rng, "a1 a2")
        n = random_model(rng, "b1 b2")
        p = product(m, n)
        th = enumerate_theory(p)
        full_m, full_n = 3, 3
        for xm in range(1, full_m + 1):
            for yn in range(1, full_n + 1):
                for zm in range(1, full_m + 1):
                    for wn in range(1, full_n + 1):
                        left = rectangle_term(p.sig, xm, yn)
                        right = rectangle_term(p.sig, zm, wn)
                        expected = (
                            Duple(Term(xm), Term(zm))
                            in enumerate_theory(m)
                            and Duple(Term(yn), Term(wn))
                            in enumerate_theory(n)
                        )
                        assert (Duple(left, right) in th) == expected


def rectangle_term(sig, row_mask, col_mask):
    # The product element (x, y) is the summation over the grid rectangle
    # rows(x) x cols(y); build it from the pair-named constants.
    mask = 0
    for i in range(2):
        for j in range(2):
            if row_mask & (1 << i) and col_mask & (1 << j):
                mask |= 1 << sig.index_of(f"a{i + 1}*b{j + 1}")
    return Term(mask)


def test_product_atom_bound():
    rng = seeded(51)
    for _ in range(30):
        m = random_model(rng, "a1 a2 a3")
        n = random_model(rng, "b1 b2")
        p = product(m, n)
        assert len(reduce(p).atoms) <= len(reduce(m).atoms) + len(reduce(n).atoms)


def test_product_rejects_pairs_that_spell_the_same_name():
    m = mk("x x*y", "x", "x*y")
    n = mk("y*z z", "y*z", "z")
    with pytest.raises(NameCollision, match=r"\('x', 'y\*z'\).*\('x\*y', 'z'\)"):
        product(m, n)


def test_nested_product_keeps_starred_names():
    ab = product(mk("a", "a"), mk("b", "b"))
    out = product(ab, mk("c1 c2", "c1", "c2"))
    assert out.sig.names == ("a*b*c1", "a*b*c2")
    assert atom_names(reduce(out)) == {("a*b*c1",), ("a*b*c2",)}


def test_product_diagonal_identification():
    m = mk("a c", "a", "c")
    n = mk("c d", "c", "d")
    out = product(m, n, identify_diagonal=True)
    assert "c" in out.sig.names
    assert "c*c" not in out.sig.names
    assert "a*c" in out.sig.names
    assert out.atoms == product(m, n).atoms


def test_product_diagonal_rejects_a_shared_name_that_names_a_pair():
    # p*q is shared, and it is also the name of the pair (p, q)
    m = mk("p p*q", "p", "p*q")
    n = mk("q p*q", "q", "p*q")
    assert "p*q" in product(m, n).sig.names
    with pytest.raises(NameCollision, match=r"'p\*q'.*\('p', 'q'\)"):
        product(m, n, identify_diagonal=True)


# --------------------------------------------------------------- subdirect


def test_subdirect_golden_chain():
    m = mk("a b c", "c", "a b c")
    dec = subdirect_decomposition(m)
    assert len(dec.components) == 1
    comp = dec.components[0]
    assert comp.atom == m.sig.atom("c")
    assert (comp.top_name, comp.bottom_name) == ("z1", "zb1")
    assert dict(dec.generators) == {"a": ("zb1",), "b": ("zb1",), "c": ("z1",)}


def test_subdirect_golden_free_pair():
    m = mk("a b", "a", "b")
    dec = subdirect_decomposition(m)
    assert [c.atom for c in dec.components] == [m.sig.atom("a"), m.sig.atom("b")]
    assert dict(dec.generators) == {"a": ("z1", "zb2"), "b": ("zb1", "z2")}


def test_subdirect_component_model_shape():
    m = mk("a b", "a", "b")
    comp = subdirect_decomposition(m).components[0].component_model()
    assert comp.sig.names == ("z1", "zb1")
    assert atom_names(comp) == {("z1",), ("z1", "zb1")}
    th = enumerate_theory(comp)
    assert duple(comp.sig, "zb1", "z1") in th
    assert duple(comp.sig, "z1", "zb1") not in th


def test_subdirect_rejects_one_element_model():
    with pytest.raises(TrivialModel):
        subdirect_decomposition(mk("a b", "a b"))


def test_subdirect_round_trip_reproduces_theory():
    rng = seeded(52)
    for _ in range(30):
        m = random_model(rng, "a b c", ensure_singleton=True)
        red = reduce(m)
        dec = subdirect_decomposition(m)
        prod = dec.components[0].component_model()
        for comp in dec.components[1:]:
            prod = product(prod, comp.component_model())
        gens = [prod.sig.term("*".join(coords)) for _, coords in dec.generators]
        back = subalgebra(prod, gens, red.sig.names)
        assert enumerate_theory(back) == enumerate_theory(red)


# ------------------------------------------- crossing chains, by reference


def test_crossing_constructions_equal_explicit_full_crossing_chains():
    # no runtime check guards crossing outputs, so each one is checked here
    def cross(model, r):
        out = full_crossing(model, r)
        assert valid(out)
        return out

    def joined(m, n):
        out = join(m, n)
        assert valid(out)
        return out

    rng, primed_rng, disjoint_rng = seeded(54), seeded(55), seeded(56)
    for _ in range(150):
        m = random_model(rng, "a b c d", max_atoms=8)
        a, b = random_term(rng, 4), random_term(rng, 4)
        expected = cross(cross(m, Duple(b, a)), Duple(a, b))
        assert quotient(m, a, b) == expected

        # join over the shared c and d: each primed copy equals its original
        n = random_model(rng, "c d e", max_atoms=5)
        ext = Signature(("a", "b", "c", "d", "c'", "d'", "e"))
        crossed = new_model(ext, m.atoms + tuple(Atom(x.mask << 4) for x in n.atoms))
        for i in (2, 3):
            original, copy = Term(1 << i), Term(1 << (i + 2))
            crossed = cross(crossed, Duple(copy, original))
            crossed = cross(crossed, Duple(original, copy))
        assert joined(m, n) == restrict(crossed, "a b c d e")

        # the first prime of the shared c is taken, so n's copy of c is c''
        mp = random_model(primed_rng, "a b c c'", max_atoms=8)
        np_ = random_model(primed_rng, "c e", max_atoms=3)
        ext = Signature(("a", "b", "c", "c'", "c''", "e"))
        crossed = new_model(ext, mp.atoms + tuple(Atom(x.mask << 4) for x in np_.atoms))
        original, copy = Term(1 << 2), Term(1 << 4)
        crossed = cross(crossed, Duple(copy, original))
        crossed = cross(crossed, Duple(original, copy))
        assert joined(mp, np_) == restrict(crossed, "a b c c' e")

        # disjoint constants: the join is the side-by-side atom set itself
        disjoint = random_model(disjoint_rng, "x y", max_atoms=3)
        assert joined(m, disjoint) == new_model(
            Signature.of("a b c d x y"), m.atoms + tuple(Atom(x.mask << 4) for x in disjoint.atoms)
        )

        gens = [random_term(rng, 4) for _ in range(rng.randint(1, 3))]
        names = [f"g{i}" for i in range(len(gens))]
        ext = Signature(m.sig.names + tuple(names))
        crossed = new_model(ext, m.atoms + tuple(Atom(1 << (4 + i)) for i in range(len(gens))))
        for i, term in enumerate(gens):
            fresh = Term(1 << (4 + i))
            crossed = cross(crossed, Duple(term, fresh))
            crossed = cross(crossed, Duple(fresh, term))
        assert subalgebra(m, gens, names, route="crossing") == restrict(crossed, names)


def workload_model(rng, names, low, high):
    """low to high random atoms of 1 to 3 constants, plus a singleton for
    each constant left uncovered, as the algebra benchmark draws them."""
    n = len(names)
    masks = {random_term(rng, n).mask for _ in range(rng.randint(low, high))}
    covered = 0
    for mask in masks:
        covered |= mask
    masks.update(1 << i for i in range(n) if not covered >> i & 1)
    return new_model(Signature(tuple(names)), map(Atom, masks))


def restrict_by_images(model, keep):
    """The restriction to the kept indices as a plain :func:`map_atoms` image."""
    images = [1 << keep.index(i) if i in keep else 0 for i in range(len(model.sig))]
    return map_atoms(model, images, Signature(tuple(model.sig.names[i] for i in keep)))


def test_constructions_at_workload_scale_equal_the_reference_fold():
    # m over 8-13 constants, 5-6 of them shared with o, as the algebra
    # benchmark draws them; the reference folds full_crossing and restricts.
    # Like the benchmark, the join check leaves out the few joins of over a
    # thousand atoms, whose reference fold takes seconds.
    def fold(model, duples):
        for r in duples:
            model = full_crossing(model, r)
        return model

    def both_ways(pairs):
        return [d for s, t in pairs for d in (Duple(s, t), Duple(t, s))]

    rng = seeded(2511)
    joins = skip_zero = single_runs = empty_images = 0
    for _ in range(200):
        nm = rng.randint(8, 13)
        m_names = [f"m{j}" for j in range(nm)]
        m = workload_model(rng, m_names, nm, 2 * nm)
        shared = rng.sample(m_names, rng.randint(5, 6))
        o_names = shared + [f"o{j}" for j in range(rng.randint(3, 6))]
        o = workload_model(rng, o_names, len(o_names), 2 * len(o_names))

        # join: o's copy of each shared c is c', identified with c both ways
        joined = join(m, o)
        ext = Signature(tuple(m_names + [x + "'" if x in shared else x for x in o_names]))
        side_by_side = new_model(ext, m.atoms + tuple(Atom(x.mask << nm) for x in o.atoms))
        copies = [(Term(1 << (nm + j)), Term(1 << m_names.index(x)))
                  for j, x in enumerate(o_names) if x in shared]
        if len(joined.atoms) <= 1000:
            joins += 1
            crossed = fold(side_by_side, both_ways(copies))
            keep = m_names + [x for x in o_names if x not in shared]
            assert joined == restrict(crossed, keep)

        # quotient: first b <= a, then a <= b
        a, b = Term(1 << rng.randrange(nm)), random_term(rng, nm, 2)
        assert quotient(m, a, b) == fold(m, [Duple(b, a), Duple(a, b)])

        # crossing-route subalgebra: the free atoms on the fresh names beside m's
        gens = [random_term(rng, nm) for _ in range(rng.randint(3, 4))]
        names = [f"g{k}" for k in range(len(gens))]
        fresh = [Term(1 << (nm + k)) for k in range(len(gens))]
        ext = Signature(tuple(m_names + names))
        beside = new_model(ext, m.atoms + tuple(Atom(t.mask) for t in fresh))
        crossed = fold(beside, both_ways(zip(gens, fresh)))
        assert subalgebra(m, gens, names, route="crossing") == restrict(crossed, names)

        # never runs: one full_crossing fold per run, empty runs included
        duples = [random_duple(rng, nm) for _ in range(rng.randint(nm, 3 * nm))]
        cuts = sorted(rng.choices(range(len(duples) + 1), k=rng.randint(0, 4)))
        runs = [duples[i:j] for i, j in zip([0, *cuts], [*cuts, len(duples)])]
        expected, model = [], m
        for run in runs:
            model = fold(model, run)
            expected.append(model)
        assert list(cross_runs(m, runs, "never")) == expected

        # restriction by runs of neighbouring indices, against the plain image
        for keep in (
            sorted(rng.sample(range(1, nm), rng.randint(1, nm - 1))),
            list(range(rng.randrange(2), nm, 2)),
            sorted(rng.sample(range(nm), rng.randint(1, nm))),
        ):
            restricted = restrict(m, [m_names[i] for i in keep])
            assert restricted == restrict_by_images(m, keep)
            skip_zero += 0 not in keep
            single_runs += any(i + 1 not in keep and i - 1 not in keep for i in keep)
            kept = sum(1 << i for i in keep)
            empty_images += any(not x.mask & kept for x in m.atoms)
    assert joins >= 190
    assert min(skip_zero, single_runs, empty_images) >= 200


# ------------------------------------------------------------ embed_in_free


def test_embed_free_pair_maps_to_itself():
    m = mk("a b", "a", "b")
    free_sig, terms = embed_in_free(m)
    assert free_sig.names == ("z1", "z2")
    assert [t.mask for t in terms] == [0b01, 0b10]


def test_embed_chain_shares_generator():
    # canonical atom order puts the wide atom first, so z1 covers a and b
    m = mk("a b c", "c", "a b c")
    free_sig, terms = embed_in_free(m)
    assert free_sig.names == ("z1", "z2")
    t_a, t_b, t_c = terms
    assert t_a == t_b == free_sig.term("z1")
    assert t_c == free_sig.term("z1 z2")


def test_embed_terms_are_the_atom_columns_of_hand_built_models():
    rng = seeded(55)
    for _ in range(100):
        n = rng.randint(1, 7)
        sig = Signature(tuple(f"c{i}" for i in range(n)))
        # atoms over the lower constants only: the top ones may stay uncovered
        top = rng.randint(1, n)
        atoms = tuple(Atom(rng.randrange(1, 1 << top)) for _ in range(rng.randint(1, 8)))
        m = Model(sig, atoms)
        columns = [sum(1 << k for k, x in enumerate(atoms) if x.mask >> i & 1) for i in range(n)]
        if all(columns):
            free_sig, terms = embed_in_free(m)
            assert len(free_sig) == len(atoms)
            assert [t.mask for t in terms] == columns
        else:
            with pytest.raises(ValueError):
                embed_in_free(m)


def test_embed_round_trip_reproduces_theory():
    rng = seeded(53)
    for _ in range(30):
        m = random_model(rng, "a b c d")
        free_sig, terms = embed_in_free(m)
        free = freest_model(free_sig, [])
        back = subalgebra(free, list(terms), m.sig.names)
        assert enumerate_theory(back) == enumerate_theory(m)


# ----------------------------------------- restriction homomorphism check


def test_homomorphism_exists_with_bottom_constant():
    m = mk("a b", "a", "a b")
    assert restriction_homomorphism_exists(m, "a b")


def test_homomorphism_missing_for_free_pair():
    m = mk("a b", "a", "b")
    assert not restriction_homomorphism_exists(m, "a b")


def test_homomorphism_always_exists_to_singleton():
    m = mk("a b", "a", "b")
    assert restriction_homomorphism_exists(m, "a")


def test_homomorphism_matches_zero_atom_redundancy():
    rng = seeded(54)
    from atomlat.core import zero_atom

    for _ in range(40):
        m = random_model(rng, "a b c d")
        keep = sorted(
            rng.sample(m.sig.names, rng.randint(1, 4)),
            key=m.sig.names.index,
        )
        sub = restrict(m, keep)
        expected = not is_redundant(sub, zero_atom(sub.sig))
        assert restriction_homomorphism_exists(m, keep) == expected
