import atomlat

# The public API, spelled out so that adding or removing a name is a
# deliberate change to this list.
PUBLIC_NAMES = {
    "Atom", "AxiomCheck", "AxiomReport", "Decomposition", "Duple",
    "ENUM_CAP_DEFAULT", "ElementClass", "Model", "REDUCE_POLICIES", "RenameMap",
    "Script", "Signature", "SubdirectComponent", "Term", "TheorySlice",
    "axiom_check", "closure_oracle", "congruence_oracle", "embed_in_free",
    "enumerate_elements", "enumerate_theory", "errors", "freest_model",
    "full_crossing", "holds", "is_freer", "is_redundant", "join", "map_atoms",
    "model_from_json", "model_to_dict", "model_to_dot", "model_to_json",
    "new_model", "parse_script", "pinning", "product", "quotient", "reduce",
    "rename", "rename_map_from_json", "restrict",
    "restriction_homomorphism_exists", "run_script", "subalgebra",
    "subdirect_decomposition", "union_model", "zero_atom",
}


def test_public_api_is_pinned():
    assert set(atomlat.__all__) == PUBLIC_NAMES
    assert len(atomlat.__all__) == len(set(atomlat.__all__))
    assert all(hasattr(atomlat, name) for name in atomlat.__all__)
