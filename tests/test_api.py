import ast
import importlib.util
from pathlib import Path

import atomlat

ROOT = Path(__file__).resolve().parent.parent

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


def resolves(module, name):
    """Whether ``from module import name`` would succeed."""
    found = importlib.import_module(module)
    if hasattr(found, name):
        return True
    return hasattr(found, "__path__") and importlib.util.find_spec(f"{module}.{name}") is not None


def test_names_the_benchmark_uses_resolve():
    # perfbench traces names by module and imports others; read both
    # without running perfbench, so removing such a name fails here too
    spans = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    traced = next(
        ast.literal_eval(node.value) for node in spans.body
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["TRACED"]
    )
    missing = [
        f"atomlat.{layer}.{name}" for layer, names in traced.items() for name in names
        if not resolves(f"atomlat.{layer}", name)
    ]
    record = ast.parse((ROOT / "perfbench" / "record.py").read_text(encoding="utf-8"))
    imported = [
        (node.module, alias.name) for node in ast.walk(record)
        if isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "atomlat"
        for alias in node.names
    ]
    assert len(imported) > 1
    missing += [f"{module}.{name}" for module, name in imported if not resolves(module, name)]
    assert missing == []


def test_package_parses_as_python_3_10():
    """Every module parses with the 3.10 grammar, so syntax from a later
    version (``except*``, PEP 695 type parameters) fails on any interpreter.
    A standard-library name that 3.10 lacks is not caught here."""
    for path in sorted((ROOT / "src" / "atomlat").glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
