"""Atomized semilattices as an executable calculus.

Models are finite sets of atoms over a signature of constants; atoms fully
determine the order between terms. Full crossing enforces positive sentences
one at a time and builds freest models; reduction finds the unique
non-redundant atomization; restriction, rename, quotient, join, subalgebra,
product, and subdirect decomposition are built on top. Independent oracles
(deductive closure, congruence enumeration) verify the whole stack on small
signatures.
"""

from .core import (
    Atom,
    Duple,
    Signature,
    SignedDuple,
    Term,
    pinning,
    zero_atom,
)
from .model import (
    ENUM_CAP_DEFAULT,
    ElementClass,
    Model,
    TheorySlice,
    discriminant,
    enumerate_elements,
    enumerate_theory,
    holds,
    is_freer,
    is_redundant,
    lower_atomic_segment,
    new_model,
    reduce,
    union_model,
)
from .crossing import (
    REDUCE_POLICIES,
    ConsistencyReport,
    check_consistency,
    freest_model,
    full_crossing,
)
from .algebra import (
    Decomposition,
    RenameMap,
    SubdirectComponent,
    embed_in_free,
    join,
    product,
    quotient,
    rename,
    restrict,
    restriction_homomorphism_exists,
    subalgebra,
    subdirect_decomposition,
)
from .oracle import (
    AxiomCheck,
    AxiomReport,
    axiom_check,
    closure_oracle,
    congruence_oracle,
)
from .script import Script, parse_script, run_script
from .serialize import (
    model_from_json,
    model_to_dict,
    model_to_dot,
    model_to_json,
    rename_map_from_json,
)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "AxiomCheck",
    "AxiomReport",
    "ConsistencyReport",
    "Decomposition",
    "Duple",
    "ENUM_CAP_DEFAULT",
    "ElementClass",
    "Model",
    "REDUCE_POLICIES",
    "RenameMap",
    "Script",
    "Signature",
    "SignedDuple",
    "SubdirectComponent",
    "Term",
    "TheorySlice",
    "axiom_check",
    "check_consistency",
    "closure_oracle",
    "congruence_oracle",
    "discriminant",
    "embed_in_free",
    "enumerate_elements",
    "enumerate_theory",
    "errors",
    "freest_model",
    "full_crossing",
    "holds",
    "is_freer",
    "is_redundant",
    "join",
    "lower_atomic_segment",
    "model_from_json",
    "model_to_dict",
    "model_to_dot",
    "model_to_json",
    "new_model",
    "parse_script",
    "pinning",
    "product",
    "quotient",
    "reduce",
    "rename",
    "rename_map_from_json",
    "restrict",
    "restriction_homomorphism_exists",
    "run_script",
    "subalgebra",
    "subdirect_decomposition",
    "union_model",
    "zero_atom",
]
