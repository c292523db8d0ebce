"""Acceptance suite: the classification results this toolkit must reproduce.

Each test prints one PASS line once its assertions hold, so a verbose run
reads as a checklist.  Expected values are exact; runtime ceilings are part
of the criteria and asserted alongside.
"""

from __future__ import annotations

import time

import orientdiam as od
from orientdiam.constructions import _ROWS
from orientdiam.search import SearchConfig, Verdict

from conftest import all_orientations, distance, reverse
from test_analysis import enumerate_antichains
from test_cnf import expected_counts


def report(name: str, detail: str):
    print(f"ACCEPTANCE {name}: PASS  [{detail}]")


def test_criterion_1_constructive_table_33q():
    t0 = time.monotonic()
    for q in (3, 4, 5, 6):
        assert od.diameter(od.construct_33q(q)) == 2
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report("1", f"K(3,3,q) q=3..6 all diameter 2 in {elapsed:.3f}s")


def test_criterion_2_constructive_table_34q():
    t0 = time.monotonic()
    D10 = od.construct_34q(10)
    d10_arcs = set(D10.arcs())
    for q in range(4, 12):
        D = od.construct_34q(q)
        assert od.diameter(D) == 2
        if q <= 9:
            top, deleted = _ROWS[4, q]
            assert top == 10
            parent = [v for v in range(17) if v not in deleted]
            lifted = {(parent[u], parent[v]) for u, v in D.arcs()}
            shared = {a for a in d10_arcs if a[0] in parent and a[1] in parent}
            assert lifted == shared
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report("2", f"K(3,4,q) q=4..11 diameter 2, deletions restrict q=10, {elapsed:.3f}s")


def test_criterion_3_threshold_refutation_337():
    cfg = SearchConfig(node_budget=1_000_000_000, time_budget=600.0)
    outcome = od.decide_diameter2((3, 3, 7), cfg)
    assert outcome.verdict is Verdict.NONE
    assert outcome.stats.nodes <= cfg.node_budget
    assert outcome.stats.wall_time < 600.0
    # no diameter-2 orientation, and every complete tripartite graph
    # orients to diameter <= 3, so the oriented diameter is exactly 3
    report("3", f"K(3,3,7) exhausted in {outcome.stats.nodes} nodes, "
                f"{outcome.stats.wall_time:.3f}s -> oriented diameter 3")


def test_criterion_4_k3412_cnf_and_search(tmp_path):
    path = tmp_path / "k34_12.cnf"
    stats = od.export_cnf((3, 4, 12), path)
    v, c, edge_vars, aux, lex_vars = expected_counts((3, 4, 12))
    assert (stats.variables, stats.clauses) == (v, c)
    assert stats.edge_variables == edge_vars == 96
    header = path.read_text().splitlines()
    p_line = next(l for l in header if l.startswith("p cnf"))
    assert p_line == f"p cnf {v} {c}"
    outcome = od.decide_diameter2((3, 4, 12))
    assert outcome.verdict in (Verdict.NONE, Verdict.UNKNOWN)
    report("4", f"K(3,4,12) DIMACS {v} vars / {c} clauses; internal search: "
                f"{outcome.verdict.value}")


def test_criterion_5_oracle_equivalence():
    t0 = time.monotonic()
    topologies = [
        (1, 1, 1), (1, 1, 1, 1), (1, 1, 2), (2, 2, 2), (1, 2, 2),
        (3, 2, 2), (2, 3), (2, 4), (3, 3),
    ]
    for parts in topologies:
        topo = od.make_complete_multipartite(parts)
        assert topo.n_edges <= 16
        exact = od.brute_force_min_diameter(topo)
        on = od.decide_diameter2(parts, SearchConfig(symmetry_breaking=True))
        off = od.decide_diameter2(parts, SearchConfig(symmetry_breaking=False))
        assert on.verdict == off.verdict
        assert (on.verdict is Verdict.EXISTS) == (exact <= 2), parts
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report("5", f"{len(topologies)} topologies agree with brute force in {elapsed:.1f}s")


def test_criterion_6_baselines():
    values = {}
    for name, parts in (("K4", (1, 1, 1, 1)), ("K5", (1, 1, 1, 1, 1)),
                        ("K(2,2)", (2, 2)), ("K(2,3)", (2, 3))):
        values[name] = od.brute_force_min_diameter(od.make_complete_multipartite(parts))
    assert values == {"K4": 3, "K5": 2, "K(2,2)": 3, "K(2,3)": 4}
    report("6", "f(K4)=3 f(K5)=2 f(K(2,2))=3 f(K(2,3))=4 by enumeration")


def test_criterion_7_sign_condition_suite_k322():
    t0 = time.monotonic()
    topo = od.make_complete_multipartite((3, 2, 2))
    found = od.enumerate_diameter2(topo)
    for D in found:
        assert od.sign_condition_violations(D, 0) == []
        assert od.sign_condition_violations(reverse(D), 0) == []
    # cross-check the census against the exact oriented diameter: K(3,2,2)
    # has none (its oriented diameter is 3), so the sweep is vacuous there;
    # decision-procedure witnesses keep the conditions exercised for real
    assert bool(found) == (od.brute_force_min_diameter(topo) <= 2)
    for parts in ((3, 3, 2), (3, 3, 3)):
        witness = od.decide_diameter2(parts).witness
        assert od.sign_condition_violations(witness, 0) == []
        assert od.sign_condition_violations(reverse(witness), 0) == []
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report("7", f"all {len(found)} diameter-2 orientations of K(3,2,2) pass "
                f"(census matches oracle) in {elapsed:.1f}s")


def test_criterion_8_sperner_suite():
    sizes = {p: od.max_antichain(p)[0] for p in range(1, 6)}
    assert sizes == {1: 1, 2: 2, 3: 3, 4: 6, 5: 10}

    # uniqueness at p=4 via an independent enumeration of all antichains
    maxima = [a for a in enumerate_antichains(4) if len(a) == 6]
    middle = tuple(m for m in range(16) if bin(m).count("1") == 2)
    assert maxima == [middle]

    # antichain <=> all big-side ordered pairs within distance 2, exhaustively
    for parts in ((2, 3), (3, 3)):
        topo = od.make_complete_multipartite(parts)
        big = list(topo.part_vertices(1))
        for D in all_orientations(topo):
            within = all(distance(D, u, v) <= 2 for u in big for v in big if u != v)
            assert within == od.out_neighborhood_family(D, 1).is_antichain
    report("8", "antichain maxima 1,2,3,6,10; size-6 antichain over a 4-set unique; "
                "equivalence checked on all orientations of K(2,3) and K(3,3)")


def test_criterion_9_case_class_counts():
    assert len(od.canonical_case_classes(3)) == 10
    assert len(od.canonical_case_classes(4)) == 19
    report("9", "canonical (i,j,k) classes: 10 at p=3, 19 at p=4")
