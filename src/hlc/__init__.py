"""Hypergraph Lambek calculus toolkit.

Hypergraph algebra with hyperedge replacement, backward proof search for
hypergraph sequents, grammars over hypergraphs with membership checking, and
finite language models.
"""

from .calculus import (
    BudgetExceeded,
    DerivationTree,
    NotDerivable,
    Prover,
    SearchBudget,
    check_derivation,
    cut_compose,
    derive,
    normalize,
)
from .canon import IsoWitness, canonical_form, canonical_key, isomorphic
from .graphs import (
    Hypergraph,
    RankedLabel,
    build_graph,
    dollar,
    flowerbed,
    handle,
    isolated_node_count,
    relabel,
    relabel_one,
    replace,
    replace_all,
    string_graph,
    validate,
)
from .grammars import (
    HLGrammar,
    HRG,
    MemberWitness,
    NotMember,
    Production,
    hl_member,
    hrg_generate,
    hrg_member,
    is_wgnf,
    type_set,
    wgnf_to_hl,
)
from .hltypes import (
    Division,
    HLType,
    Primitive,
    Product,
    Sequent,
    connective_count,
    is_balanced,
    primitive_counts,
    validate_sequent,
    validate_type,
)
from .matching import (
    ContextExtraction,
    Decomposition,
    enumerate_context_extractions,
    enumerate_decompositions,
)
from .models import (
    NOT_ENUMERABLE,
    UNDECIDED,
    Valuation,
    denotation_contains,
    denotation_enumerate,
    sequent_holds,
)

__all__ = [name for name in dir() if not name.startswith("_")]
