"""Exact workbench for torus invariants of flag and spin varieties.

Enumerate invariant standard monomials, straighten polynomial relations,
factor invariants through degree-one generators with graph-theoretic
certificates, and verify generation-degree bounds by exact linear
algebra.
"""

from .weights import (
    FAMILY_A,
    FAMILY_B,
    GroupInstance,
    ShapeA,
    ShapeB,
    catalog_instances,
    default_generation_degree,
    descent_ok,
    instance_by_label,
    shape_from_weight,
)
from .tableau_a import TableauA, count_standard, enumerate_standard
from .tableau_b import (
    TableauB,
    count_standard_b,
    enumerate_standard_b,
    is_admissible,
    s_op,
)
from .plucker import (
    PluckerMonomial,
    PluckerPoly,
    eval_on_matrix,
    monomial_from_tableau,
    seeded_matrices,
    straighten,
    tableau_from_monomial,
)
from .graphs import (
    LoopedMultigraph,
    classify_two_regular,
    edge_loop_relation,
    edge_pair_relation,
    graph_from_monomial,
    monomial_from_graph,
    normalize_loops,
    one_factorize_bipartite,
    two_factorize,
)
from .extract import (
    extract_degree_one,
    find_interchange,
    iter_interchanges,
    merge_odd_cycles,
    one_factor_selection,
    rebalance_loops,
)
from .verifier import (
    FactorCertificate,
    GenerationReport,
    check_duality,
    check_generation,
    check_typeB_factorization,
    factor_by_linear_algebra,
    run_paper_suite,
    validate_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "FAMILY_A",
    "FAMILY_B",
    "FactorCertificate",
    "GenerationReport",
    "GroupInstance",
    "LoopedMultigraph",
    "PluckerMonomial",
    "PluckerPoly",
    "ShapeA",
    "ShapeB",
    "TableauA",
    "TableauB",
    "catalog_instances",
    "check_duality",
    "check_generation",
    "check_typeB_factorization",
    "classify_two_regular",
    "count_standard",
    "count_standard_b",
    "default_generation_degree",
    "descent_ok",
    "edge_loop_relation",
    "edge_pair_relation",
    "enumerate_standard",
    "enumerate_standard_b",
    "eval_on_matrix",
    "extract_degree_one",
    "factor_by_linear_algebra",
    "find_interchange",
    "iter_interchanges",
    "graph_from_monomial",
    "instance_by_label",
    "is_admissible",
    "merge_odd_cycles",
    "monomial_from_graph",
    "monomial_from_tableau",
    "normalize_loops",
    "one_factor_selection",
    "one_factorize_bipartite",
    "rebalance_loops",
    "run_paper_suite",
    "s_op",
    "seeded_matrices",
    "shape_from_weight",
    "straighten",
    "tableau_from_monomial",
    "two_factorize",
    "validate_certificate",
]
