"""Sign partitions, the diameter-2 necessary conditions, case classes, antichains.

Exhaustive oracles are rebuilt locally where a claim deserves independent
confirmation: distances via the test-owned reference BFS in conftest,
antichain families via a from-scratch recursive enumerator.
"""

from __future__ import annotations

import itertools
from math import comb

import pytest
from hypothesis import given, settings

import orientdiam as od
from orientdiam.analysis import (
    AnchorNotSize3,
    DiameterNotTwo,
    NotBipartite,
    PTooLarge,
    canonicalize_case,
)
from orientdiam.search import MAX_BLOCK_VERTICES

from conftest import all_orientations, anchored_orientations, distance, random_orientation, reverse


class TestSignVector:
    def test_exactly_eight(self):
        assert len(od.analysis.SIGN_LABELS) == 8
        assert len(set(od.analysis.SIGN_LABELS)) == 8


class TestSignPartition:
    def test_d6_sizes(self):
        classes = od.sign_partition(od.construct_33q(6), 0)[2]
        assert len(classes["+++"]) == 1 and len(classes["+--"]) == 2
        assert len(classes["-+-"]) == 2 and len(classes["---"]) == 1

    def test_all_anchorward_is_all_minus(self):
        # orient every edge toward the anchor part: everything is ---
        topo = od.make_complete_multipartite([3, 3])
        arcs = [(v, x) for x in range(3) for v in range(3, 6)]
        D = od.orient(topo, arcs)
        assert len(od.sign_partition(D, 0)[1]["---"]) == 3

    def test_anchor_must_have_three_vertices(self):
        D = od.middle_layer_bipartite(2, 2)
        with pytest.raises(AnchorNotSize3):
            od.sign_partition(D, 0)

    # 0.0 used to index parts with a float (TypeError) and True to read part 1
    @pytest.mark.parametrize("anchor", [0.0, True, "0"])
    @pytest.mark.parametrize("read", [od.sign_partition, od.case_signature,
                                      od.sign_condition_violations])
    def test_anchor_must_be_an_int_index(self, read, anchor):
        with pytest.raises(od.analysis.AnalysisError, match="anchor part index"):
            read(od.construct_33q(6), anchor)

    @given(anchored_orientations())
    @settings(deadline=None)
    def test_partition_totality(self, D):
        for pi, classes in od.sign_partition(D, 0).items():
            assert set(classes) == set(od.analysis.SIGN_LABELS)
            members = [v for vs in classes.values() for v in vs]
            assert sorted(members) == list(D.topology.part_vertices(pi))

    @given(anchored_orientations())
    @settings(deadline=None)
    def test_reversal_swaps_classes_with_complements(self, D):
        forward = od.sign_partition(D, 0)
        backward = od.sign_partition(reverse(D), 0)
        complement = str.maketrans("+-", "-+")
        for pi in forward:
            for label in od.analysis.SIGN_LABELS:
                assert forward[pi][label] == backward[pi][label.translate(complement)]


class TestNecessaryConditions:
    def test_d6_passes(self):
        assert od.sign_condition_violations(od.construct_33q(6), 0) == []

    def test_d10_passes(self):
        assert od.sign_condition_violations(od.construct_34q(10), 0) == []

    def test_rejects_larger_diameter(self):
        topo = od.make_complete_multipartite([3, 1, 1])
        D = od.orient(topo, topo.edges())  # low -> high everywhere; not strong
        with pytest.raises(DiameterNotTwo):
            od.sign_condition_violations(D, 0)

    def test_rejects_non_tripartite(self):
        D = od.middle_layer_bipartite(3, 3)
        with pytest.raises(od.analysis.AnalysisError):
            od.sign_condition_violations(D, 0)

    def test_violation_messages(self, monkeypatch):
        # no diameter-2 orientation violates the conditions, so lift the
        # precondition: anchors beat everything and part 2 beats part 3,
        # making both +++ classes too big and part 3's dominate nothing
        monkeypatch.setattr(od.analysis, "diameter", lambda D: 2)
        topo = od.make_complete_multipartite([3, 2, 2])
        D = od.orient(topo, topo.edges())
        expected = [
            "part 2 class {0} has size 2 != 1",
            "part 3 class {0} has size 2 != 1",
            *(f"part 3 class {{0}} vertex {y} {{1}} {z}" for y in (5, 6) for z in (3, 4)),
            "both non-anchor parts have a nonempty {0} class",
        ]
        assert od.sign_condition_violations(D) == [
            m.format("+++", "does not dominate") for m in expected]
        assert od.sign_condition_violations(reverse(D)) == [
            m.format("---", "not dominated by") for m in expected]

    def test_exhaustive_small_tripartite(self):
        # every diameter-2 orientation found by exhaustive enumeration passes,
        # and so does its reversal (duality); the small anchored topologies
        # all turn out empty, which the brute-force oracle confirms
        for parts in ([3, 1, 2], [3, 2, 1], [3, 1, 1]):
            topo = od.make_complete_multipartite(parts)
            found = od.enumerate_diameter2(topo)
            for D in found:
                assert od.sign_condition_violations(D, 0) == []
                assert od.sign_condition_violations(reverse(D), 0) == []
            assert bool(found) == (od.brute_force_min_diameter(topo) <= 2)

    @pytest.mark.parametrize("parts", [(3, 3, 2), (3, 3, 3), (3, 4, 4), (4, 3, 11)])
    def test_search_witnesses_pass(self, parts):
        # non-vacuous coverage: decision-procedure witnesses and reversals,
        # anchored at the default, the first part of size 3
        outcome = od.decide_diameter2(parts)
        assert outcome.verdict is od.Verdict.EXISTS
        assert od.sign_condition_violations(outcome.witness) == []
        assert od.sign_condition_violations(reverse(outcome.witness)) == []

    def test_every_construction_passes(self):
        for q in range(3, 7):
            assert od.sign_condition_violations(od.construct_33q(q), 0) == []
        for q in range(4, 12):
            D = od.construct_34q(q)
            assert od.sign_condition_violations(D, 0) == []
            assert od.sign_condition_violations(reverse(D), 0) == []


class TestCaseSignature:
    def test_d4_raw(self):
        assert od.case_signature(od.construct_33q(4)).raw == (0, 1, 1)

    def test_all_toward_anchor_raw(self):
        topo = od.make_complete_multipartite([3, 3, 4])
        arcs = []
        for y in range(3, 6):
            arcs += [(y, x) for x in range(3)]
        for z in range(6, 10):
            arcs += [(x, z) for x in range(3)] + [(y, z) for y in range(3, 6)]
        D = od.orient(topo, arcs)
        assert od.case_signature(D).raw == (0, 0, 0)

    def test_canonical_identifies_reversal(self):
        assert canonicalize_case((3, 3, 2), 3) == canonicalize_case((0, 0, 1), 3)
        assert od.case_signature(od.construct_33q(4)).canonical == (0, 1, 1)

    def test_requires_size_three_first_part(self):
        with pytest.raises(AnchorNotSize3):
            od.case_signature(od.middle_layer_bipartite(3, 3))
        topo = od.make_complete_multipartite([2, 2, 2])
        D = random_orientation(topo, 0)
        with pytest.raises(AnchorNotSize3):
            od.case_signature(D)

    @pytest.mark.parametrize("parts", [(3, 4, 11), (4, 3, 11), (11, 3, 4)])
    def test_agrees_with_search_cases(self, parts):
        # the search explores the witness block, so its case is among those reported
        outcome = od.decide_diameter2(parts)
        assert od.case_signature(outcome.witness).canonical in outcome.stats.cases_enumerated

    @given(anchored_orientations(max_extra=3))
    @settings(deadline=None)
    def test_canonical_stable_under_reversal(self, D):
        assert od.case_signature(D).canonical == od.case_signature(reverse(D)).canonical

    def test_class_counts(self):
        assert len(od.canonical_case_classes(3)) == 10
        assert len(od.canonical_case_classes(4)) == 19

    def test_classes_partition_the_cube(self):
        # the classes come from the sorted triples; every triple of the cube
        # must land in one of them, and each of them be some triple's class
        for p in range(1, MAX_BLOCK_VERTICES + 1):
            cube = {canonicalize_case(ijk, p) for ijk in itertools.product(range(p + 1), repeat=3)}
            assert set(od.canonical_case_classes(p)) == cube, p

    def test_p_past_the_block_cap_is_refused_before_enumerating(self, monkeypatch):
        # C(p + 3, 3) sorted triples, and claims asks for p = m - 3 of an in-cap block only
        calls = []
        monkeypatch.setattr(od.analysis, "canonicalize_case", lambda *args: calls.append(args))
        with pytest.raises(PTooLarge, match=f"p={MAX_BLOCK_VERTICES}, got {MAX_BLOCK_VERTICES + 1}$"):
            od.canonical_case_classes(MAX_BLOCK_VERTICES + 1)
        assert calls == []
        od.canonical_case_classes(MAX_BLOCK_VERTICES)  # the cap itself is served
        assert len(calls) == comb(MAX_BLOCK_VERTICES + 3, 3)

    # -1 used to give no classes and True those of p = 1; 2.5 and "3" a bare TypeError
    @pytest.mark.parametrize("p", [-1, 0, True, 2.5, "3", None])
    def test_p_must_be_a_positive_int(self, p):
        with pytest.raises(od.analysis.AnalysisError, match="integer p"):
            od.canonical_case_classes(p)


class TestOutNeighborhoodFamily:
    def test_middle_layer_is_antichain(self):
        report = od.out_neighborhood_family(od.middle_layer_bipartite(4, 6), big_side=1)
        assert report.is_antichain and report.violating_pair is None

    def test_duplicate_out_sets_violate(self):
        topo = od.make_complete_multipartite([2, 2])
        # both big-side vertices beat vertex 0 and lose to vertex 1
        D = od.orient(topo, [(2, 0), (3, 0), (1, 2), (1, 3)])
        report = od.out_neighborhood_family(D, big_side=1)
        assert not report.is_antichain
        assert report.violating_pair is not None
        i, j = report.violating_pair
        zi, zj = 2 + i, 2 + j
        assert distance(D, zi, zj) >= 3

    def test_requires_bipartite(self):
        with pytest.raises(NotBipartite):
            od.out_neighborhood_family(od.construct_33q(4), big_side=1)

    # 2 and -1 used to raise a bare IndexError, 1.0 a TypeError
    @pytest.mark.parametrize("big_side", [2, -1, 1.0, True, None])
    def test_big_side_must_be_part_0_or_1(self, big_side):
        with pytest.raises(od.analysis.AnalysisError, match="big_side"):
            od.out_neighborhood_family(od.middle_layer_bipartite(4, 6), big_side)

    def test_k23_always_has_far_pair(self):
        # q = 3 beats the antichain capacity of a 2-set: all 64 orientations fail
        topo = od.make_complete_multipartite([2, 3])
        for D in all_orientations(topo):
            big = list(topo.part_vertices(1))
            far = any(
                distance(D, u, v) >= 3 for u in big for v in big if u != v
            )
            assert far
            assert not od.out_neighborhood_family(D, big_side=1).is_antichain

    @pytest.mark.parametrize("parts", [(2, 3), (3, 3), (2, 2), (3, 4)])
    def test_antichain_iff_big_side_within_two(self, parts):
        topo = od.make_complete_multipartite(list(parts))
        big = list(topo.part_vertices(1))
        for D in all_orientations(topo):
            within_two = all(
                distance(D, u, v) <= 2 for u in big for v in big if u != v
            )
            assert within_two == od.out_neighborhood_family(D, big_side=1).is_antichain


def enumerate_antichains(p):
    """Independent oracle: every antichain family over subsets of a p-set."""
    subsets = list(range(1 << p))

    def rec(start, chosen):
        yield tuple(chosen)
        for idx in range(start, len(subsets)):
            s = subsets[idx]
            if all((s & ~c) and (c & ~s) for c in chosen):
                chosen.append(s)
                yield from rec(idx + 1, chosen)
                chosen.pop()

    yield from rec(0, [])


class TestMaxAntichain:
    @pytest.mark.parametrize("p,expected",
                             [(p, comb(p, p // 2)) for p in range(1, MAX_BLOCK_VERTICES + 1)])
    def test_sizes_match_binomial(self, p, expected):
        size, witness = od.max_antichain(p)
        assert size == expected
        assert len(set(witness)) == size
        assert all(s <= set(range(p)) for s in witness)
        for a, b in itertools.combinations(witness, 2):
            assert not (a <= b or b <= a)

    def test_cap(self):
        with pytest.raises(PTooLarge):
            od.max_antichain(MAX_BLOCK_VERTICES + 1)
        with pytest.raises(od.analysis.AnalysisError):
            od.max_antichain(0)

    @pytest.mark.parametrize("p", [2.5, 4.0, True, "4", None])
    def test_p_must_be_an_int(self, p):
        with pytest.raises(od.analysis.AnalysisError, match="integer p"):
            od.max_antichain(p)

    def test_p4_maximum_is_unique_middle_layer(self):
        # oracle: enumerate every antichain family over the 4-set power set
        maxima = [a for a in enumerate_antichains(4) if len(a) == 6]
        assert len(maxima) == 1
        middle = tuple(
            sorted(m for m in range(16) if bin(m).count("1") == 2)
        )
        assert tuple(sorted(maxima[0])) == middle
        assert not any(len(a) > 6 for a in enumerate_antichains(4))
