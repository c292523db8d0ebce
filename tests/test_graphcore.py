"""Topology construction, orientation validation, exact diameters, serialization."""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import orientdiam as od
from orientdiam.graphcore import (
    MAX_VERTICES,
    DoubleOrientation,
    EmptyParts,
    GraphError,
    GraphTopology,
    IntraPartArc,
    MissingEdge,
    OrientdiamError,
    ParseError,
    SelfLoop,
    TooManyVertices,
    VertexOutOfRange,
    ZeroPart,
    _diameter_below,
    dumps,
    loads,
    to_dot,
)

from conftest import all_orientations, distance, orientations, reverse, topologies


def three_cycle():
    topo = od.make_complete_multipartite([1, 1, 1])
    return od.orient(topo, [(0, 1), (1, 2), (2, 0)])


class TestTopology:
    def test_vertex_and_edge_counts(self):
        topo = od.make_complete_multipartite([3, 3, 6])
        assert topo.n_vertices == 12
        assert topo.n_edges == 9 + 18 + 18

    def test_triangle(self):
        topo = od.make_complete_multipartite([1, 1, 1])
        assert topo.n_vertices == 3
        assert topo.n_edges == 3

    def test_k34_11(self):
        topo = od.make_complete_multipartite([3, 4, 11])
        assert topo.n_vertices == 18
        assert topo.n_edges == 12 + 33 + 44

    def test_part_major_indexing(self):
        topo = od.make_complete_multipartite([2, 3])
        assert list(topo.part_vertices(0)) == [0, 1]
        assert list(topo.part_vertices(1)) == [2, 3, 4]
        assert topo.part_of == (0, 0, 1, 1, 1)
        assert not topo.adjacent(2, 4)
        assert topo.adjacent(0, 2)

    def test_empty_parts_rejected(self):
        with pytest.raises(EmptyParts):
            od.make_complete_multipartite([])

    def test_zero_part_rejected(self):
        with pytest.raises(ZeroPart):
            od.make_complete_multipartite([3, 0, 2])

    # int() would read 6.9 as 6 and True as 1, and build another graph
    @pytest.mark.parametrize("parts,bad", [
        ((3, 3, 6.9), "6.9"), ([3, True, 2.5], "True"), ((3, "4"), "'4'"), ([2, None], "None"),
    ])
    def test_non_integer_part_rejected(self, parts, bad):
        with pytest.raises(GraphError, match=f"part sizes must be integers, got {bad}$"):
            od.make_complete_multipartite(parts)
        with pytest.raises(OrientdiamError):
            od.decide_diameter2(parts)

    def test_vertex_cap(self):
        assert od.make_complete_multipartite([MAX_VERTICES - 1, 1]).n_vertices == MAX_VERTICES
        with pytest.raises(TooManyVertices):
            od.make_complete_multipartite([MAX_VERTICES, 1])


def _reference_orient(topology, arcs):
    """orient as it stood with a set of edge tuples, kept as an oracle."""
    n = topology.n_vertices
    out = [0] * n
    seen = set()
    for u, v in arcs:
        u, v = int(u), int(v)
        if not (0 <= u < n and 0 <= v < n):
            raise VertexOutOfRange(f"arc ({u},{v}) out of range for {n} vertices")
        if u == v:
            raise SelfLoop(f"arc ({u},{v})")
        if not topology.adjacent(u, v):
            raise IntraPartArc(f"arc ({u},{v}) joins two vertices of part {topology.part_of[u] + 1}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise DoubleOrientation(f"edge {{{key[0]},{key[1]}}} oriented more than once")
        seen.add(key)
        out[u] |= 1 << v
    if len(seen) != topology.n_edges:
        for u, v in topology.edges():
            if (u, v) not in seen:
                raise MissingEdge(f"edge {{{u},{v}}} has no orientation")
    return od.Orientation(topology=topology, out_adj=tuple(out))


def _outcome(orient, topology, arcs):
    """The out-masks orient builds, or the type and message of what it raises."""
    try:
        return orient(topology, arcs).out_adj
    except (GraphError, IndexError) as exc:
        return type(exc), str(exc)


@st.composite
def arc_lists(draw):
    """A topology and a shuffled orientation's arcs with up to four faults.

    The faults are dropped arcs, duplicates, reversed duplicates, self-loops,
    intra-part arcs and out-of-range arcs, inserted anywhere in the list.
    """
    topo = draw(topologies(min_parts=1))
    n = topo.n_vertices
    edges = topo.edges()
    bits = draw(st.integers(0, (1 << len(edges)) - 1))
    arcs = draw(st.permutations([(u, v) if bits >> i & 1 else (v, u)
                                 for i, (u, v) in enumerate(edges)]))
    intra = [(u, v) for u in range(n) for v in range(n) if u != v and not topo.adjacent(u, v)]
    # a drop shows only when no other fault raises, so drops come thrice as often
    faults = ["drop"] * 3 + ["duplicate", "reverse", "loop", "range"] + ["intra"] * bool(intra)
    for fault in draw(st.lists(st.sampled_from(faults), max_size=4)):
        at = draw(st.integers(0, len(arcs)))
        if fault in ("drop", "duplicate", "reverse"):
            if not arcs:
                continue
            u, v = arcs[at % len(arcs)]
            if fault == "drop":
                del arcs[at % len(arcs)]
            else:
                arcs.insert(at, (u, v) if fault == "duplicate" else (v, u))
        elif fault == "loop":
            u = draw(st.integers(0, n - 1))
            arcs.insert(at, (u, u))
        elif fault == "intra":
            arcs.insert(at, draw(st.sampled_from(intra)))
        else:
            arcs.insert(at, draw(st.sampled_from([(n, 0), (0, n), (-1, 0), (0, n + 5)])))
    return topo, arcs


class TestOrient:
    def test_three_cycle_valid(self):
        D = three_cycle()
        assert D.arcs() == [(0, 1), (1, 2), (2, 0)]

    def test_double_orientation(self):
        topo = od.make_complete_multipartite([1, 1, 1])
        with pytest.raises(DoubleOrientation, match=r"^edge \{0,1\} oriented more than once$"):
            od.orient(topo, [(0, 1), (1, 0), (1, 2), (2, 0)])

    def test_missing_edge(self):
        topo = od.make_complete_multipartite([1, 2])
        with pytest.raises(MissingEdge, match=r"^edge \{0,2\} has no orientation$"):
            od.orient(topo, [(0, 1)])

    def test_missing_edge_after_an_in_arc(self):
        # edge {0,1} is covered, but only by an arc into vertex 0
        topo = od.make_complete_multipartite([1, 2])
        with pytest.raises(MissingEdge, match=r"^edge \{0,2\} has no orientation$"):
            od.orient(topo, [(1, 0)])

    def test_missing_edge_builds_no_edge_list(self, monkeypatch):
        # 4,096 singleton parts have 8.4M edges; naming the first missing
        # one must not list them
        def built(self):
            raise AssertionError("edge list built")

        monkeypatch.setattr(GraphTopology, "edges", built)
        topo = od.make_complete_multipartite([1] * MAX_VERTICES)
        with pytest.raises(MissingEdge, match=r"^edge \{0,1\} has no orientation$"):
            od.orient(topo, [])

    @settings(max_examples=400, deadline=None)
    @given(arc_lists())
    def test_matches_set_based_reference(self, topo_arcs):
        topo, arcs = topo_arcs
        assert _outcome(od.orient, topo, arcs) == _outcome(_reference_orient, topo, arcs)

    def test_intra_part_arc(self):
        topo = od.make_complete_multipartite([1, 2])
        with pytest.raises(IntraPartArc):
            od.orient(topo, [(0, 1), (0, 2), (1, 2)])

    def test_self_loop(self):
        topo = od.make_complete_multipartite([1, 1, 1])
        with pytest.raises(SelfLoop):
            od.orient(topo, [(0, 0), (0, 1), (1, 2), (2, 0)])

    def test_out_of_range(self):
        topo = od.make_complete_multipartite([1, 1, 1])
        with pytest.raises(IndexError):
            od.orient(topo, [(0, 5), (1, 2), (2, 0)])

    # int() would read 0.9 as 0 and "1" as 1, and accept an arc nobody gave
    @pytest.mark.parametrize("arc", [(0.9, 1.2), ("1", "0"), (True, 0), (0, 1.0)], ids=repr)
    def test_non_integer_vertex_rejected(self, arc):
        topo = od.make_complete_multipartite([1, 1])
        with pytest.raises(GraphError, match="has a vertex id that is not an integer$"):
            od.orient(topo, [arc])

    @given(orientations())
    def test_totality(self, D):
        assert len(D.arcs()) == D.topology.n_edges


class TestInduced:
    # the vertex range check of orient, once shared with the deleted
    # induced_suborientation; the class keeps its name so the test keeps its id
    def test_out_of_range_has_the_package_root(self):
        # an error the CLI and callers catch as OrientdiamError, and still an IndexError
        D = three_cycle()
        with pytest.raises(OrientdiamError) as caught:
            od.orient(D.topology, [(0, 5), (1, 2), (2, 0)])
        assert type(caught.value) is VertexOutOfRange
        assert isinstance(caught.value, IndexError)
        assert str(caught.value) == "arc (0,5) out of range for 3 vertices"


class TestDistance:
    # the conftest reference BFS, which _diameter_below and the frames are checked against
    def test_cycle_distance(self):
        D = three_cycle()
        assert distance(D, 0, 2) == 2
        assert distance(D, 0, 0) == 0

    def test_sink_unreachable(self):
        # every arc into vertex 2: nothing leaves it
        topo = od.make_complete_multipartite([1, 1, 1])
        D = od.orient(topo, [(0, 1), (0, 2), (1, 2)])
        assert distance(D, 2, 0) == od.INFINITE

    def test_d6_all_pairs_within_two(self):
        D = od.construct_33q(6)
        worst = max(
            distance(D, u, v)
            for u in range(D.n_vertices)
            for v in range(D.n_vertices)
        )
        assert worst == 2

    def test_index_bounds(self):
        D = three_cycle()
        with pytest.raises(IndexError):
            distance(D, 0, 7)


class TestDiameter:
    def test_d10_diameter(self):
        assert od.diameter(od.construct_34q(10)) == 2

    def test_three_cycle_diameter(self):
        assert od.diameter(three_cycle()) == 2

    def test_sink_infinite(self):
        topo = od.make_complete_multipartite([1, 1, 1])
        D = od.orient(topo, [(0, 1), (0, 2), (1, 2)])
        assert od.diameter(D) == od.INFINITE

    def test_specialized_two_test_matches(self):
        for D in (three_cycle(), od.construct_33q(4), od.construct_34q(5)):
            assert od.has_diameter_at_most_2(D) == (od.diameter(D) <= 2)

    @pytest.mark.parametrize("parts, outcomes", [((1, 2, 2), {False}), ((2, 2, 2), {True, False})])
    def test_specialized_two_test_matches_every_orientation(self, parts, outcomes):
        # K(1,2,2) has no diameter-2 orientation; K(2,2,2) has 28 of 4,096
        seen = set()
        for D in all_orientations(od.make_complete_multipartite(parts)):
            two = od.has_diameter_at_most_2(D)
            assert two == (od.diameter(D) <= 2)
            seen.add(two)
        assert seen == outcomes


def transitive_closure_reaches_all(D) -> bool:
    """Independent strongness oracle: boolean matrix closure, no BFS."""
    n = D.n_vertices
    reach = [[bool((D.out_adj[u] >> v) & 1) or u == v for v in range(n)] for u in range(n)]
    for w in range(n):
        for u in range(n):
            if reach[u][w]:
                row_w = reach[w]
                row_u = reach[u]
                for v in range(n):
                    if row_w[v]:
                        row_u[v] = True
    return all(all(row) for row in reach)


# a non-iterable argument, an arc that is not a pair, or a model holding an
# unhashable entry, used to escape as a bare TypeError or ValueError instead
# of an error of the package
@pytest.mark.parametrize("call,message", [
    (lambda: od.make_complete_multipartite(7), "part sizes must be iterable, got 7$"),
    (lambda: od.make_complete_multipartite(None), "part sizes must be iterable, got None$"),
    (lambda: od.decide_diameter2(7), "part sizes must be iterable, got 7$"),
    (lambda: od.encode_diameter2(None), "part sizes must be iterable, got None$"),
    (lambda: od.orient(three_cycle().topology, [(0, 2, 1)]),
     r"arc \(0, 2, 1\) is not a pair of vertex ids$"),
    (lambda: od.orient(three_cycle().topology, [5]), "arc 5 is not a pair of vertex ids$"),
    (lambda: od.orient(three_cycle().topology, None), "arcs must be iterable, got None$"),
    (lambda: od.decode_model((2, 2), 5), "true_vars must be iterable, got 5$"),
    (lambda: od.decode_model((2, 2), None), "true_vars must be iterable, got None$"),
    (lambda: od.decode_model((2, 2), [[1]]),
     r"true_vars must hold integer variable indices, got \[\[1\]\]$"),
    (lambda: od.decode_model((2, 2), [{1}]),
     r"true_vars must hold integer variable indices, got \[\{1\}\]$"),
], ids=["parts-int", "parts-none", "decide-int", "cnf-none", "arc-triple", "arc-int",
        "arcs-none", "model-int", "model-none", "model-list", "model-set"])
def test_malformed_argument_is_a_graph_error(call, message):
    with pytest.raises(GraphError, match=message):
        call()


class TestProperties:
    @given(orientations(max_vertices=12))
    @settings(deadline=None)
    def test_strong_iff_finite_diameter(self, D):
        assert (od.diameter(D) != od.INFINITE) == transitive_closure_reaches_all(D)

    @given(orientations())
    @settings(deadline=None)
    def test_distance_symmetry_under_reversal(self, D):
        R = reverse(D)
        for u in range(D.n_vertices):
            for v in range(D.n_vertices):
                assert distance(R, u, v) == distance(D, v, u)

    @given(orientations())
    def test_reverse_involution(self, D):
        assert reverse(reverse(D)) == D

    def test_reverse_of_cycle(self):
        R = reverse(three_cycle())
        assert R.arcs() == [(0, 2), (1, 0), (2, 1)]
        assert od.diameter(R) == 2

    def test_reverse_d6_diameter(self):
        # expected value computed by the diameter engine on the flipped arc list
        D6 = od.construct_33q(6)
        flipped = od.orient(D6.topology, [(v, u) for (u, v) in D6.arcs()])
        assert od.diameter(flipped) == 2
        assert reverse(D6).out_adj == flipped.out_adj

    @given(orientations(max_vertices=7))
    @settings(deadline=None)
    def test_triangle_inequality(self, D):
        n = D.n_vertices
        dist = [[distance(D, u, v) for v in range(n)] for u in range(n)]
        for u in range(n):
            for v in range(n):
                for w in range(n):
                    if dist[u][v] != od.INFINITE and dist[v][w] != od.INFINITE:
                        assert dist[u][w] <= dist[u][v] + dist[v][w]

    @given(orientations())
    @settings(deadline=None)
    def test_no_common_neighbor_blocks_two_paths(self, D):
        ins = D.in_adj()
        for u in range(D.n_vertices):
            for v in range(D.n_vertices):
                if u == v:
                    continue
                if not (D.out_adj[u] >> v) & 1 and not (D.out_adj[u] & ins[v]):
                    assert distance(D, u, v) not in (1, 2)

    @given(orientations(), st.data())
    def test_diameter_below_matches_distance(self, D, data):
        n = D.n_vertices
        bound = data.draw(st.integers(1, n + 1))
        worst = max(distance(D, u, v) for u in range(n) for v in range(n))
        assert _diameter_below(D.out_adj, bound) == (worst if worst < bound else None)


class TestSerialization:
    def test_json_round_trip(self):
        D = od.construct_34q(7)
        assert loads(dumps(D)) == D

    @given(orientations())
    @settings(deadline=None)
    def test_round_trip_any_orientation(self, D):
        assert loads(dumps(D)).out_adj == D.out_adj

    def test_byte_identical_reemission(self):
        D = od.construct_33q(6)
        text = dumps(D, completion_log=["choice"])
        again = dumps(loads(text), completion_log=["choice"])
        assert text == again

    def test_arcs_sorted_in_json(self):
        D = od.construct_33q(5)
        doc = od.graphcore.to_json_dict(D)
        assert doc["arcs"] == sorted(doc["arcs"])

    def test_parse_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            loads('{"parts": [1,1,1], "arcs": [[0,1], }')
        assert err.value.line == 1
        assert err.value.column is not None

    def test_missing_arc_in_json(self):
        with pytest.raises(MissingEdge):
            loads('{"parts":[1,1,1],"arcs":[[0,1],[1,2]]}')

    def test_dot_export(self):
        dot = to_dot(three_cycle())
        assert dot.startswith("digraph")
        assert "rank=same" in dot
        assert "x1 -> y1;" in dot

    def test_tripartite_names(self):
        topo = od.make_complete_multipartite([3, 3, 6])
        assert topo.vertex_name(0) == "x1"
        assert topo.vertex_name(3) == "y1"
        assert topo.vertex_name(11) == "z6"
