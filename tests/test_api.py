import ast
import importlib.util
import re
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


MODULES = {path.stem for path in (ROOT / "src" / "atomlat").glob("[!_]*.py")}


def readme_names():
    """The dotted names in README's inline code that start with ``atomlat``,
    one of its modules or one of its public names, such as
    ``atomlat.cli.main``, ``core.canonical_terms`` or ``Signature.atom``."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    spans = re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", text, flags=re.S))
    firsts = {"atomlat", *MODULES, *atomlat.__all__}
    return sorted({
        name for span in spans for name in re.findall(r"(?<![\w.])\w+(?:\.\w+)+", span)
        if name.partition(".")[0] in firsts
    })


def resolves_dotted(name):
    """Whether the dotted name is an attribute path from ``atomlat`` or one of its modules."""
    found = atomlat
    for part in name.removeprefix("atomlat.").split("."):
        if found is atomlat and part in MODULES:
            found = importlib.import_module(f"atomlat.{part}")
        elif hasattr(found, part):
            found = getattr(found, part)
        else:
            return False
    return True


def test_names_the_readme_uses_resolve_and_are_public():
    # README describes behaviour a caller relies on, so every package name
    # it quotes is one a caller can reach, and none is private
    names = readme_names()
    assert "atomlat.cli.main" in names
    assert [name for name in names if not resolves_dotted(name)] == []
    assert [name for name in names if any(part.startswith("_") for part in name.split("."))] == []


def test_package_parses_as_python_3_10():
    """Every module parses with the 3.10 grammar, so syntax from a later
    version (``except*``, PEP 695 type parameters) fails on any interpreter.
    A standard-library name that 3.10 lacks is not caught here."""
    for path in sorted((ROOT / "src" / "atomlat").glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
