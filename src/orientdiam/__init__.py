"""Exact toolkit for diameter-2 orientations of complete multipartite graphs.

Builds the known orientation families, verifies their diameters exactly,
analyzes orientations through sign classes and antichain reports,
and decides diameter-2 orientability by exhaustive search with symmetry
breaking, with a DIMACS CNF export for instances handed to external SAT
solvers.
"""

__version__ = "0.1.0"

from .analysis import (
    AntichainReport,
    CaseSignature,
    canonical_case_classes,
    case_signature,
    sign_condition_violations,
    max_antichain,
    out_neighborhood_family,
    sign_partition,
    sperner_bound,
)
from .claims import ClaimRecord, ClaimReport, verify_claims
from .cnf import CnfStats, decode_model, encode_diameter2, export_cnf
from .constructions import (
    build_33q,
    build_34q,
    complete_graph_orientation,
    construct_33q,
    construct_34q,
    middle_layer_bipartite,
)
from .graphcore import (
    INFINITE,
    GraphTopology,
    Orientation,
    diameter,
    distance,
    has_diameter_at_most_2,
    induced_suborientation,
    is_strong,
    make_complete_multipartite,
    orient,
    reverse,
)
from .search import (
    SearchConfig,
    SearchOutcome,
    SearchStats,
    Verdict,
    brute_force_min_diameter,
    decide_diameter2,
    enumerate_diameter2,
)

__all__ = [
    "AntichainReport",
    "CaseSignature",
    "ClaimRecord",
    "ClaimReport",
    "CnfStats",
    "GraphTopology",
    "INFINITE",
    "Orientation",
    "SearchConfig",
    "SearchOutcome",
    "SearchStats",
    "Verdict",
    "brute_force_min_diameter",
    "build_33q",
    "build_34q",
    "canonical_case_classes",
    "case_signature",
    "complete_graph_orientation",
    "construct_33q",
    "construct_34q",
    "decide_diameter2",
    "decode_model",
    "diameter",
    "distance",
    "encode_diameter2",
    "enumerate_diameter2",
    "export_cnf",
    "has_diameter_at_most_2",
    "induced_suborientation",
    "is_strong",
    "sign_condition_violations",
    "make_complete_multipartite",
    "max_antichain",
    "middle_layer_bipartite",
    "orient",
    "out_neighborhood_family",
    "reverse",
    "sign_partition",
    "sperner_bound",
    "verify_claims",
]
