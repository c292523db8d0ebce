"""Every family builder must deliver the exact diameter it promises."""

from __future__ import annotations

import collections

import pytest

import orientdiam as od
from orientdiam import constructions
from orientdiam.constructions import (
    ConstructionError,
    NTooSmall,
    QOutOfRange,
    ThresholdExceeded,
    _ROWS,
    build_33q,
    build_34q,
    paper_families,
)

from conftest import distance


def _class_sizes(D):
    """Sign-class sizes of the third part, anchored at the first."""
    return {label: len(vs) for label, vs in od.sign_partition(D, 0)[2].items()}


class TestK33q:
    @pytest.mark.parametrize("q", [3, 4, 5, 6])
    def test_diameter_two(self, q):
        D = od.construct_33q(q)
        assert D.topology.parts == (3, 3, q)
        assert od.diameter(D) == 2

    def test_q6_class_sizes(self):
        sizes = _class_sizes(od.construct_33q(6))
        assert sizes["+++"] == 1 and sizes["---"] == 1
        assert sizes["+--"] == 2 and sizes["-+-"] == 2
        assert sum(sizes.values()) == 6

    def test_q4_class_sizes(self):
        sizes = _class_sizes(od.construct_33q(4))
        assert sizes == {
            "+++": 1, "++-": 1, "+-+": 1, "+--": 1,
            "-++": 0, "-+-": 0, "--+": 0, "---": 0,
        }

    @pytest.mark.parametrize("q", [2, 7])
    def test_out_of_range(self, q):
        with pytest.raises(QOutOfRange):
            od.construct_33q(q)

    def test_q3_log_names_its_restriction(self):
        _, log = build_33q(3)
        assert log == ("q=3: restriction of the q=4 orientation, deleted vertices (9,)",)


class TestK34q:
    @pytest.mark.parametrize("q", list(range(4, 12)))
    def test_diameter_two(self, q):
        D = od.construct_34q(q)
        assert D.topology.parts == (3, 4, q)
        assert od.diameter(D) == 2

    def test_q11_class_sizes(self):
        sizes = _class_sizes(od.construct_34q(11))
        assert sizes["+--"] == 6
        assert sizes["+++"] == 1 and sizes["++-"] == 2 and sizes["+-+"] == 2

    @pytest.mark.parametrize("q", [3, 12])
    def test_out_of_range(self, q):
        with pytest.raises(QOutOfRange):
            od.construct_34q(q)

    def test_q10_recipe_is_explicit(self):
        _, log = build_34q(10)
        assert any("explicit" in line for line in log)


_RESTRICTIONS = sorted(key for key, row in _ROWS.items() if not callable(row))


def test_rows_cover_both_paper_families():
    assert sorted(_ROWS) == [(3, q) for q in range(3, 7)] + [(4, q) for q in range(4, 12)]
    assert {(3, 3), (3, 5), (4, 4), (4, 9)} <= set(_RESTRICTIONS)
    # a restriction names a recipe row of its own family
    assert all(callable(_ROWS[p, _ROWS[p, q][0]]) for p, q in _RESTRICTIONS)


@pytest.mark.parametrize("p,q", _RESTRICTIONS)
def test_restriction_row_is_induced_by_its_recipe(p, q):
    _, build = paper_families()[p]
    top, deleted = _ROWS[p, q]
    parent = [v for v in range(3 + p + top) if v not in deleted]
    assert len(parent) == 3 + p + q
    D, log = build(q)
    assert D.topology.parts == (3, p, q)
    lifted = {(parent[u], parent[v]) for u, v in D.arcs()}
    shared = {a for a in build(top)[0].arcs() if a[0] in parent and a[1] in parent}
    assert lifted == shared
    assert log[-1] == f"q={q}: restriction of the q={top} orientation, deleted vertices {deleted}"


@pytest.mark.parametrize("p,q", _RESTRICTIONS)
def test_restriction_row_is_oriented_and_measured_once(monkeypatch, p, q):
    # the row takes its recipe's arcs, not its recipe's orientation, so
    # nothing is built, measured or re-indexed twice
    calls = collections.Counter()

    def counted(name, call):
        def wrapper(*args):
            calls[name] += 1
            return call(*args)
        return wrapper

    for name in ("orient", "diameter"):
        monkeypatch.setattr(constructions, name, counted(name, getattr(constructions, name)))
    D, _ = paper_families()[p][1](q)
    assert D.topology.parts == (3, p, q)
    assert calls == collections.Counter(orient=1, diameter=1)


@pytest.mark.parametrize("build", [build_33q, build_34q])
@pytest.mark.parametrize("q", [4.5, 9.5, 4.0, True, "4"], ids=repr)
def test_q_that_is_not_a_row_is_refused(build, q):
    # 4.0 and True compare equal to a row's q, so the lookup alone would take them
    with pytest.raises(QOutOfRange):
        build(q)


def test_wrong_diameter_is_refused(monkeypatch):
    monkeypatch.setattr(constructions, "diameter", lambda D: 3)
    with pytest.raises(ConstructionError, match="built diameter 3, promised 2"):
        build_33q(6)


class TestMiddleLayer:
    def test_k46_big_side_within_two(self):
        D = od.middle_layer_bipartite(4, 6)
        for u in range(4, 10):
            for v in range(4, 10):
                assert distance(D, u, v) <= 2

    def test_k33_big_side_within_two(self):
        # q = 3 distinct singletons on a 3-set: verify all 6 ordered pairs
        D = od.middle_layer_bipartite(3, 3)
        report = od.out_neighborhood_family(D, big_side=1)
        assert all(len(s) == 1 for s in report.family)
        assert len(set(report.family)) == 3
        for u in range(3, 6):
            for v in range(3, 6):
                if u != v:
                    assert distance(D, u, v) == 2

    def test_threshold(self):
        with pytest.raises(ThresholdExceeded):
            od.middle_layer_bipartite(2, 3)
        with pytest.raises(ThresholdExceeded):
            od.middle_layer_bipartite(4, 7)

    def test_vertex_cap_comes_before_the_capacity(self):
        # C(p, p/2) for a huge p would take unbounded time and memory
        with pytest.raises(od.graphcore.TooManyVertices):
            od.middle_layer_bipartite(od.graphcore.MAX_VERTICES, 1)

    def test_out_set_family_is_equal_size_antichain(self):
        for p, q in ((2, 2), (3, 3), (4, 6), (5, 10), (4, 4)):
            D = od.middle_layer_bipartite(p, q)
            report = od.out_neighborhood_family(D, big_side=1)
            assert report.is_antichain
            assert {len(s) for s in report.family} == {p // 2}


class TestTournaments:
    @pytest.mark.parametrize(
        "n,expected", [(3, 2), (4, 3), (5, 2), (6, 2), (7, 2), (8, 2), (9, 2), (10, 2)]
    )
    def test_minimum_diameter(self, n, expected):
        D = od.complete_graph_orientation(n)
        assert D.topology.parts == tuple([1] * n)
        assert od.diameter(D) == expected

    def test_too_small(self):
        with pytest.raises(NTooSmall):
            od.complete_graph_orientation(2)

    @pytest.mark.parametrize("n", [5.5, 5.0, True, "5"], ids=repr)
    def test_n_must_be_an_int(self, n):
        with pytest.raises(ConstructionError, match="n must be an integer"):
            od.complete_graph_orientation(n)
