"""Exact toolkit for diameter-2 orientations of complete multipartite graphs.

Builds the known orientation families, verifies their diameters exactly,
analyzes orientations through sign classes and antichain reports,
and decides diameter-2 orientability by exhaustive search with symmetry
breaking, with a DIMACS CNF export for instances handed to external SAT
solvers.

`import orientdiam` loads only graphcore and search, which deciding needs.
Each public name of analysis, claims, cnf and constructions, and each of
those modules, loads its module on first use (PEP 562).
"""

__version__ = "0.1.0"

import importlib

from .graphcore import (
    INFINITE,
    GraphTopology,
    Orientation,
    diameter,
    has_diameter_at_most_2,
    make_complete_multipartite,
    orient,
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

# public name -> the module that defines it, imported when the name is first used
_LAZY = {name: module for module, names in {
    "analysis": ("AntichainReport", "CaseSignature", "canonical_case_classes", "case_signature",
                 "max_antichain", "out_neighborhood_family", "sign_condition_violations",
                 "sign_partition"),
    "claims": ("ClaimRecord", "ClaimReport", "verify_claims"),
    "cnf": ("CnfStats", "decode_model", "encode_diameter2", "export_cnf"),
    "constructions": ("build_33q", "build_34q", "complete_graph_orientation", "construct_33q",
                      "construct_34q", "middle_layer_bipartite"),
}.items() for name in names}

__all__ = sorted([
    "INFINITE", "GraphTopology", "Orientation", "diameter", "has_diameter_at_most_2",
    "make_complete_multipartite", "orient",
    "SearchConfig", "SearchOutcome", "SearchStats", "Verdict", "brute_force_min_diameter",
    "decide_diameter2", "enumerate_diameter2",
    *_LAZY,
])


def __getattr__(name):
    # not cached in globals(): every lookup reads the home module, so a
    # function rebound there, wrapped or put back, is the one returned
    if name in _LAZY.values():
        return importlib.import_module(f"{__name__}.{name}")
    if name in _LAZY:
        return getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAZY})
