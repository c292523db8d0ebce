"""Decision procedure vs brute-force oracles, budgets, determinism."""

from __future__ import annotations

import collections
import functools
import gc
import itertools
import math
import random
import time

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import orientdiam as od
from orientdiam import search
from orientdiam.search import (
    MAX_BLOCK_EDGES,
    MAX_BLOCK_VERTICES,
    SearchConfig,
    SearchError,
    TooLarge,
    TooManyEdges,
    Verdict,
    _antichain_cover,
    _block_representatives,
    _BlockFrame,
    _Budget,
    _Reading,
    _chain_partition,
    _symmetric_chains,
)
from orientdiam.graphcore import Orientation, _bit_members, _diameter_below

from conftest import all_orientations, bfs_diameter, distance

# every complete multipartite topology with at most 16 edges that the
# agreement suite pins down (spec of the oracle-equivalence criterion)
SMALL_TOPOLOGIES = [
    (1, 1, 1),        # K3
    (1, 1, 1, 1),     # K4
    (1, 1, 2),
    (2, 2, 2),
    (1, 2, 2),
    (3, 2, 2),
    (2, 3),
    (2, 4),
    (3, 3),
]

# every complete multipartite topology with at most 12 edges, parts in
# non-decreasing order (six parts already induce 15 edges), and two edgeless ones
PLAIN_TOPOLOGIES = [(1,), (3,)] + [
    parts
    for k in range(2, 6)
    for parts in itertools.combinations_with_replacement(range(1, 13), k)
    if od.make_complete_multipartite(parts).n_edges <= 12
]

# topologies past the 16-edge enumeration cap, up to brute force's 20-edge
# cap, with the values the per-orientation oracle gave
CHUNKED_VALUES = [
    ((1, 1, 2, 3), 3),
    ((3, 6), 4),
    ((1, 2, 2, 2), 2),
    ((1, 1, 1, 2, 2), 2),
    ((2, 2, 4), 3),
    ((4, 5), 3),
    ((2, 10), 4),
    ((1, 1, 1, 1, 1, 2), 2),
    ((1, 20), od.INFINITE),
]

# every listing of K(3,3,q), q <= 6, and of K(3,4,q), q <= 11
THRESHOLD_LISTINGS = sorted(
    {ps for q in range(1, 7) for ps in itertools.permutations((3, 3, q))}
    | {ps for q in range(1, 12) for ps in itertools.permutations((3, 4, q))}
)

# listings of K(3,5,19), which has a witness; with the chain bound they are
# cheap even with symmetry breaking off
K3519_LISTINGS = [(3, 5, 19), (5, 3, 19), (19, 3, 5)]

# (parts, symmetry breaking, verdict, nodes), the largest part last
_NODE_PINS = [
    ((3, 3, 7), True, Verdict.NONE, 18),
    ((3, 4, 12), True, Verdict.NONE, 47),
    ((3, 5, 20), True, Verdict.NONE, 95),
    ((3, 3, 7), False, Verdict.NONE, 512),
    ((3, 4, 12), False, Verdict.NONE, 4_096),
    ((3, 4, 11), True, Verdict.EXISTS, 38),
    ((4, 4, 26), True, Verdict.EXISTS, 185),
    ((4, 4, 34), True, Verdict.EXISTS, 206),
    ((3, 5, 19), True, Verdict.EXISTS, 61),
    ((4, 4, 35), True, Verdict.NONE, 173),
    ((4, 4, 35), False, Verdict.NONE, 65_536),
]

# (parts, symmetry breaking, matchings stopped at the width): refutations,
# each within the 16-edge cap in both modes
_WIDTH_EXITS = [
    ((3, 3, 7), True, 0),
    ((3, 3, 7), False, 6),
    ((3, 4, 12), True, 0),
    ((3, 4, 12), False, 82),
    ((3, 5, 20), True, 6),
    ((3, 5, 20), False, 850),
    ((4, 4, 35), True, 0),
    ((4, 4, 35), False, 0),
    ((2, 2, 3, 20), True, 42),
    ((2, 2, 3, 20), False, 856),
    ((1, 3, 3, 18), True, 9),
    ((1, 3, 3, 18), False, 348),
]

# the brute-force kernel check enumerates C(|profiles|, q) subsets; a q drawn
# at the frame's width is kept only while that stays below this many
COMBINATION_CAP = 30_000

# every block shape of two or three parts with at most 12 edges, except the
# eight stars of one vertex against 9 to 12: their 2 * 9! or more relabelings
# are too many to enumerate one by one
BLOCK_SHAPES = [
    sizes
    for k in (2, 3)
    for sizes in itertools.product(range(1, 9), repeat=k)
    if sum(a * b for a, b in itertools.combinations(sizes, 2)) <= 12
]

# four and five parts whose largest part has one or two vertices, so that
# the quotient by it leaves little or nothing to merge
MANY_PART_SHAPES = [(1, 1, 1, 1), (2, 1, 1, 1), (1, 2, 1, 1), (1, 1, 1, 1, 1)]


def _partitions(n, largest):
    """The partitions of n into parts of at most `largest`, each non-increasing."""
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k, *rest)


# every block shape the search accepts, up to the order of its parts
IN_CAP_SHAPES = [
    sizes
    for m in range(1, MAX_BLOCK_VERTICES + 1)
    for sizes in _partitions(m, m)
    if sum(a * b for a, b in itertools.combinations(sizes, 2)) <= MAX_BLOCK_EDGES
]

# The first K(3,4,11) witness in the kernel's search order (ascending profile
# index, pruning only subtrees without a solution).  A kernel change that
# reorders the search, and so changes the witnesses, shows up here.
_K3411_ARCS = (
    (0, 3), (0, 4), (0, 6), (0, 14), (0, 16), (0, 17), (1, 3), (1, 4), (1, 5), (1, 13),
    (1, 15), (1, 17), (2, 7), (2, 8), (2, 9), (2, 10), (2, 11), (2, 12), (2, 13),
    (2, 14), (2, 15), (2, 16), (2, 17), (3, 2), (3, 9), (3, 11), (3, 12), (3, 15),
    (3, 16), (4, 2), (4, 8), (4, 10), (4, 12), (4, 13), (4, 14), (5, 0), (5, 2),
    (5, 7), (5, 10), (5, 11), (6, 1), (6, 2), (6, 7), (6, 8), (6, 9), (7, 0), (7, 1),
    (7, 3), (7, 4), (8, 0), (8, 1), (8, 3), (8, 5), (9, 0), (9, 1), (9, 4), (9, 5),
    (10, 0), (10, 1), (10, 3), (10, 6), (11, 0), (11, 1), (11, 4), (11, 6), (12, 0),
    (12, 1), (12, 5), (12, 6), (13, 0), (13, 3), (13, 5), (13, 6), (14, 1), (14, 3),
    (14, 5), (14, 6), (15, 0), (15, 4), (15, 5), (15, 6), (16, 1), (16, 4), (16, 5),
    (16, 6), (17, 3), (17, 4), (17, 5), (17, 6),
)


# The first three diameter-2 orientations of K(2,2,2) in enumeration order.
_K222_FIRST_THREE = [
    ((0, 2), (0, 3), (1, 3), (1, 4), (2, 1), (2, 5), (3, 4), (3, 5), (4, 0), (4, 2), (5, 0), (5, 1)),
    ((0, 3), (0, 4), (1, 2), (1, 3), (2, 0), (2, 5), (3, 4), (3, 5), (4, 1), (4, 2), (5, 0), (5, 1)),
    ((0, 2), (0, 3), (1, 3), (1, 5), (2, 1), (2, 4), (3, 4), (3, 5), (4, 0), (4, 1), (5, 0), (5, 2)),
]


def _frame(m, bedges, bits, q):
    """The frame of block code bits at q on a fresh reading, as a
    symmetry-off decide builds it."""
    return _BlockFrame(_Reading(search._vertex_tables(m, bedges), bits), q)


@st.composite
def block_frames(draw):
    """The kernel's input (frame, q) for a random orientation of a small block,
    and the block's cover pairs, from a q = 0 frame, which lists them all.

    Half the draws put q at the width of the feasible profiles or one above
    it, where the chain bound decides the block at the root.
    """
    rest_parts = draw(
        st.lists(st.integers(1, 3), min_size=2, max_size=3).filter(lambda ps: sum(ps) <= 5)
    )
    bedges = _block_edges(rest_parts)
    bits = draw(st.integers(0, (1 << len(bedges)) - 1))
    m = sum(rest_parts)
    every = _frame(m, bedges, bits, 0)
    width = _width(tuple(every.profiles))
    edge = [q for q in (width, width + 1) if math.comb(len(every.profiles), q) <= COMBINATION_CAP]
    if edge and draw(st.booleans()):
        q = draw(st.sampled_from(edge))
    else:
        q = draw(st.integers(1, 4))
    return _frame(m, bedges, bits, q), q, every.cover_pairs


def _block_edges(rest_parts):
    # a tuple, as decide_diameter2 passes: the frame table is cached by it
    return tuple(od.make_complete_multipartite(rest_parts).edges())


def _arcs(outcome):
    return None if outcome.witness is None else outcome.witness.arcs()


@functools.cache
def _width(profiles: tuple[int, ...]) -> int:
    """Size of the largest antichain, by include/exclude recursion."""
    if not profiles:
        return 0
    first, rest = profiles[0], profiles[1:]
    return max(_width(rest),
               1 + _width(tuple(pr for pr in rest if first & ~pr and pr & ~first)))


def _is_antichain(chosen) -> bool:
    return all(x & ~y and y & ~x for x, y in itertools.combinations(chosen, 2))


def _covers(chosen, cover_pairs) -> bool:
    return all(any(not (pr >> a) & 1 and (pr >> b) & 1 for pr in chosen)
               for a, b in cover_pairs)


def _chain_counts(frame) -> tuple[int, int]:
    """The chains that a frame's profiles meet in each symmetric chain decomposition."""
    return tuple(len({chain_of[pr] for pr in frame.profiles})
                 for chain_of in _symmetric_chains(len(frame.bout)))


def _per_block_decide(parts, cfg):
    """Symmetry-off decide_diameter2 as one block node, one frame and one
    kernel call per block code.

    Returns verdict, witness arcs, nodes, max_depth, blocks_explored and
    cases_enumerated.
    """
    topology = od.make_complete_multipartite(parts)
    big = max(range(len(parts)), key=lambda i: (parts[i], i))
    q, rest = parts[big], [p for i, p in enumerate(parts) if i != big]
    m, bedges = sum(rest), _block_edges(rest)
    anchor = ()
    if len(rest) == 2 and 3 in rest:
        anchor = range(3) if rest[0] == 3 else range(rest[0], m)
    budget = _Budget(cfg, time.monotonic())
    raw_cases, explored, witness = set(), 0, None
    for bits in range(1 << len(bedges)):
        if not budget.blocks(1):
            break
        explored += 1
        frame = _frame(m, bedges, bits, q)
        if anchor:
            raw_cases.add(tuple(frame.bout[x].bit_count() for x in anchor))
        chosen = _antichain_cover(frame, q, budget)
        if budget.exhausted:
            break
        if chosen is not None:
            witness = search._assemble_witness(topology, big, frame.bout, chosen)
            break
    if witness is not None:
        verdict = Verdict.EXISTS
    else:
        verdict = Verdict.UNKNOWN if budget.exhausted else Verdict.NONE
    cases = tuple(sorted({search.canonicalize_case(ijk, m - 3) for ijk in raw_cases}))
    return (verdict, None if witness is None else witness.arcs(), budget.nodes,
            budget.max_depth, explored, cases)


class TestDecide:
    def test_k336_exists(self):
        outcome = od.decide_diameter2((3, 3, 6))
        assert outcome.verdict is Verdict.EXISTS
        assert od.diameter(outcome.witness) == 2

    def test_k337_none(self):
        outcome = od.decide_diameter2((3, 3, 7))
        assert outcome.verdict is Verdict.NONE
        assert outcome.witness is None
        assert outcome.stats.nodes == 18  # one node per block

    def test_one_part(self):
        # the block is empty and its one profile serves a single vertex only
        assert od.decide_diameter2((5,)).verdict is Verdict.NONE
        outcome = od.decide_diameter2((1,))
        assert outcome.verdict is Verdict.EXISTS
        assert outcome.witness.arcs() == []

    def test_k222_exists(self):
        outcome = od.decide_diameter2((2, 2, 2))
        assert outcome.verdict is Verdict.EXISTS

    def test_k3412_none(self):
        outcome = od.decide_diameter2((3, 4, 12))
        assert outcome.verdict is Verdict.NONE
        assert outcome.stats.nodes == 47  # one node per block

    # every block costs one node and each kernel search node one more; every
    # block of these None runs closes at its root tests or at the Dilworth
    # exit, so each count is the number of blocks: the Burnside orbit count
    # with symmetry on and 2^|block edges| with it off; Exists counts follow
    # the chain partition fixed at each kernel root
    @pytest.mark.parametrize("parts,symmetry,verdict,nodes", _NODE_PINS, ids=[
        f"{','.join(map(str, parts))}-{'on' if symmetry else 'off'}"
        for parts, symmetry, *_ in _NODE_PINS])
    def test_node_counts_are_pinned(self, parts, symmetry, verdict, nodes):
        outcome = od.decide_diameter2(parts, SearchConfig(symmetry_breaking=symmetry))
        assert (outcome.verdict, outcome.stats.nodes) == (verdict, nodes)
        if verdict is Verdict.NONE:
            rest = parts[:-1]
            blocks = _burnside_orbits(rest) if symmetry else 1 << len(_block_edges(rest))
            assert nodes == outcome.stats.blocks_explored == blocks

    @pytest.mark.parametrize("parts,symmetric,stopped", _WIDTH_EXITS, ids=str)
    def test_refutations_close_every_block_before_routing(self, monkeypatch, parts, symmetric,
                                                          stopped):
        # every block of a refutation closes at a count or at the width, so
        # no reading is routed and every matching stops early; a warm decide
        # reads the stops back and runs none.  A chain bound is counted once
        # per reading: with symmetry on, once for each reading that holds one
        # after the cold decide; with it off, never, since the bit-sliced
        # pass has proved it for every framed code
        chain_partition, route = search._chain_partition, search._Reading.route
        chain_bound = search._Reading.chain_bound
        runs = collections.Counter()

        def counted_partition(codes, m, q=0):
            chains = chain_partition(codes, m, q)
            runs["stopped" if chains is None else "ended"] += 1
            return chains

        def counted_route(reading):
            runs["routed"] += 1
            route(reading)

        def counted_bound(reading):
            runs["bounded"] += 1
            return chain_bound(reading)

        monkeypatch.setattr(search, "_chain_partition", counted_partition)
        monkeypatch.setattr(search._Reading, "route", counted_route)
        monkeypatch.setattr(search._Reading, "chain_bound", counted_bound)
        search._block_plan.cache_clear()
        cfg = SearchConfig(symmetry_breaking=symmetric)
        assert od.decide_diameter2(parts, cfg).verdict is Verdict.NONE
        bounded = 0
        if symmetric:
            rest = parts[:-1]
            plan = search._block_plan(rest, _block_edges(rest))
            bounded = sum(reading.bound is not None for reading in plan.readings)
            assert bounded
        assert runs == collections.Counter(stopped=stopped, bounded=bounded)
        if symmetric:
            runs.clear()
            assert od.decide_diameter2(parts, cfg).verdict is Verdict.NONE
            assert not runs

    def test_k4435_visits_one_block_per_orbit(self):
        # a None run explores every representative, so exactly the orbits of [4,4]
        outcome = od.decide_diameter2((4, 4, 35))
        assert outcome.verdict is Verdict.NONE
        assert outcome.stats.blocks_explored == _burnside_orbits((4, 4)) == 173

    def test_k37q_past_the_edge_cap(self, monkeypatch):
        # the [3,7] block has 21 edges; ascending code order alone needs
        # 50,533 nodes to reach K(3,7,69)'s witness
        monkeypatch.setattr(search, "MAX_BLOCK_EDGES", 21)
        outcome = od.decide_diameter2((3, 7, 69))
        assert outcome.verdict is Verdict.EXISTS
        assert outcome.stats.nodes <= 1_000
        assert bfs_diameter(outcome.witness) == 2
        outcome = od.decide_diameter2((3, 7, 70))
        assert outcome.verdict is Verdict.NONE
        assert outcome.stats.cases_enumerated == od.canonical_case_classes(7)
        assert len(outcome.stats.cases_enumerated) == 60

    def test_witness_for_every_constructive_q(self):
        for q in range(3, 7):
            outcome = od.decide_diameter2((3, 3, q))
            assert outcome.verdict is Verdict.EXISTS
            assert od.diameter(outcome.witness) == 2

    def test_budget_exhaustion_is_unknown(self):
        cfg = SearchConfig(node_budget=2)
        outcome = od.decide_diameter2((3, 4, 12), cfg)
        assert outcome.verdict is Verdict.UNKNOWN
        assert outcome.witness is None

    @pytest.mark.parametrize("node_budget", [1, 2, 3, 40, 5_000, 200, 4_095, 4_096])
    @pytest.mark.parametrize("parts,symmetry", [((3, 4, 12), True), ((3, 4, 12), False),
                                                ((4, 4, 26), True), ((3, 5, 19), True)])
    def test_node_budget_never_exceeded(self, parts, symmetry, node_budget):
        # the tick that breaks the budget is not counted; K(3,5,19) at 40
        # nodes runs out inside the kernel, below its root.  K(3,4,12) with
        # symmetry off frames no code past 3,988 of its 4,096, so at 4,095
        # nodes the budget runs out on the closed codes after the last frame,
        # and at 4,096 the run reads None.  An unbudgeted run reads its pin
        cfg = SearchConfig(node_budget=node_budget, symmetry_breaking=symmetry)
        outcome = od.decide_diameter2(parts, cfg)
        verdict, nodes = next((v, n) for p, s, v, n in _NODE_PINS if (p, s) == (parts, symmetry))
        if nodes > node_budget:
            assert outcome.verdict is Verdict.UNKNOWN
            assert outcome.witness is None
            assert outcome.stats.nodes <= node_budget
        else:
            assert outcome.verdict is verdict
            assert outcome.stats.nodes == nodes

    def test_too_large(self):
        for parts, cap in (((5, 5, 5), "25 edges, cap is 16"), ((6, 6, 6), "12 vertices, cap is 10")):
            with pytest.raises(TooLarge, match=cap):
                od.decide_diameter2(parts)

    # anything but a SearchConfig or None used to end in an AttributeError
    # on the first field read; it is refused before the graph is built
    @pytest.mark.parametrize("cfg", [{"node_budget": 5}, "fast", 0], ids=repr)
    def test_config_must_be_a_search_config(self, monkeypatch, cfg):
        def unexpected(*args):
            raise AssertionError("graph built for a refused config")

        monkeypatch.setattr(search, "make_complete_multipartite", unexpected)
        with pytest.raises(SearchError, match="cfg must be a SearchConfig or None, got"):
            od.decide_diameter2((3, 3, 7), cfg)

    def test_config_validation(self):
        with pytest.raises(SearchError):
            SearchConfig(node_budget=0)
        with pytest.raises(SearchError):
            SearchConfig(time_budget=-1.0)
        # _replace builds through _make, which checks as the constructor does
        with pytest.raises(SearchError, match="positive and finite"):
            SearchConfig()._replace(node_budget=0)
        with pytest.raises(SearchError, match="positive and finite"):
            SearchConfig()._replace(time_budget=math.nan)

    # bool is an int, and a string or a float node count is no count at all
    @pytest.mark.parametrize("nodes", [True, 2.5, "5"])
    def test_node_budget_must_be_an_int(self, nodes):
        with pytest.raises(SearchError, match="whole number of nodes"):
            SearchConfig(node_budget=nodes)

    def test_time_budget_must_not_be_a_bool(self):
        with pytest.raises(SearchError, match="number of seconds"):
            SearchConfig(time_budget=True)

    # a truthy or falsy stand-in would silently pick one of the two routes
    @pytest.mark.parametrize("flag", ["false", 0, None])
    def test_symmetry_breaking_must_be_a_bool(self, flag):
        with pytest.raises(SearchError, match="symmetry_breaking must be True or False"):
            SearchConfig(symmetry_breaking=flag)

    @pytest.mark.parametrize("seconds", [math.nan, math.inf])
    def test_non_finite_time_budget_rejected(self, seconds):
        with pytest.raises(SearchError):
            SearchConfig(time_budget=seconds)

    # NaN would pass a plain node_budget <= 0 check and leave the search uncapped
    @pytest.mark.parametrize("nodes", [math.nan, math.inf])
    def test_non_finite_node_budget_rejected(self, nodes):
        with pytest.raises(SearchError, match="positive and finite"):
            SearchConfig(node_budget=nodes)

    def test_case_split_exhaustiveness(self):
        outcome = od.decide_diameter2((3, 3, 7))
        assert outcome.stats.cases_enumerated == od.canonical_case_classes(3)
        outcome = od.decide_diameter2((3, 4, 12))
        assert outcome.stats.cases_enumerated == od.canonical_case_classes(4)

    @pytest.mark.parametrize("parts,p", [((3, 3, 7), 3), ((3, 4, 12), 4)])
    def test_case_split_exhaustiveness_with_symmetry_off(self, parts, p):
        # every block code, so every raw anchor triple, reaches the one
        # canonicalisation at the end of the search
        outcome = od.decide_diameter2(parts, SearchConfig(symmetry_breaking=False))
        assert outcome.verdict is Verdict.NONE
        assert outcome.stats.blocks_explored == 1 << 3 * p
        assert outcome.stats.cases_enumerated == od.canonical_case_classes(p)

    @pytest.mark.parametrize("parts,p", [((7, 3, 3), 3), ((12, 3, 4), 4), ((4, 12, 3), 4)])
    def test_case_coverage_does_not_depend_on_listing(self, parts, p):
        outcome = od.decide_diameter2(parts)
        assert outcome.verdict is Verdict.NONE
        assert outcome.stats.cases_enumerated == od.canonical_case_classes(p)

    def test_determinism_across_identical_runs(self):
        a = od.decide_diameter2((3, 3, 5))
        b = od.decide_diameter2((3, 3, 5))
        assert a.verdict == b.verdict
        assert a.witness.arcs() == b.witness.arcs()

    def test_k3411_witness_is_frozen(self):
        outcome = od.decide_diameter2((3, 4, 11))
        assert outcome.verdict is Verdict.EXISTS
        assert tuple(outcome.witness.arcs()) == _K3411_ARCS

    @pytest.mark.parametrize("parts", SMALL_TOPOLOGIES + THRESHOLD_LISTINGS + K3519_LISTINGS)
    def test_symmetry_breaking_preserves_verdicts(self, parts):
        # the least block code with a witness is the least of its orbit, so
        # both runs stop on the same block and return the same witness
        with_sym = od.decide_diameter2(parts, SearchConfig(symmetry_breaking=True))
        without = od.decide_diameter2(parts, SearchConfig(symmetry_breaking=False))
        assert with_sym.verdict == without.verdict
        assert _arcs(with_sym) == _arcs(without)
        # the witness is lifted from masks: it must still orient every edge once
        for W in (with_sym.witness, without.witness):
            if W is not None:
                assert od.orient(W.topology, W.arcs()).out_adj == W.out_adj

    @pytest.mark.parametrize("symmetry", [True, False])
    @pytest.mark.parametrize("parts", [(3, 5, 20), (4, 4, 26)])
    def test_time_budget_checked_per_block(self, parts, symmetry):
        # both searches finish in fewer than 1,024 nodes with symmetry on, so
        # only the clock reads after orbit enumeration and per block can stop
        # them; with it off, the read on the first run of closed codes does
        cfg = SearchConfig(time_budget=1e-9, symmetry_breaking=symmetry)
        outcome = od.decide_diameter2(parts, cfg)
        assert outcome.verdict is Verdict.UNKNOWN
        assert outcome.witness is None
        assert outcome.stats.blocks_explored == 0
        assert outcome.stats.nodes == 0

    @pytest.mark.parametrize("q,verdict", [(19, Verdict.EXISTS), (20, Verdict.NONE)])
    def test_k35q_with_symmetry_off(self, q, verdict):
        # every one of the 2^15 block codes, no orbit reduction
        outcome = od.decide_diameter2((3, 5, q), SearchConfig(symmetry_breaking=False))
        assert outcome.verdict is verdict
        if verdict is Verdict.NONE:
            assert outcome.stats.cases_enumerated == od.canonical_case_classes(5)
            assert len(outcome.stats.cases_enumerated) == 28
        else:
            assert od.diameter(outcome.witness) == 2
            assert od.has_diameter_at_most_2(outcome.witness)

    # the last budget is the default, which none of these runs reaches
    @pytest.mark.parametrize("node_budget", [1, 2, 3, 40, 200, 5_000, SearchConfig().node_budget])
    @pytest.mark.parametrize("parts", [
        (3, 3, 3), (3, 3, 4), (3, 3, 5), (3, 3, 6), (3, 3, 7), (3, 4, 4), (3, 4, 9), (3, 4, 11),
        (3, 4, 12), (2, 2, 3, 8), (2, 2, 3, 19), (1, 3, 3, 3), (2, 3, 6)])
    def test_symmetry_off_matches_the_per_block_loop(self, parts, node_budget):
        # the chain bound runs bit-sliced in one pass over all codes and closes
        # runs of blocks in one budget step; that must change no count
        cfg = SearchConfig(node_budget=node_budget, symmetry_breaking=False)
        outcome = od.decide_diameter2(parts, cfg)
        stats = outcome.stats
        got = (outcome.verdict, _arcs(outcome), stats.nodes, stats.max_depth,
               stats.blocks_explored, stats.cases_enumerated)
        assert got == _per_block_decide(parts, cfg)

    @pytest.mark.parametrize("q,verdict", [(19, Verdict.EXISTS), (20, Verdict.NONE)])
    def test_three_part_block_with_symmetry_off(self, q, verdict):
        # the [2,2,3] block has 16 edges and parts of size 2 and 3: orbits
        # under three parts' relabelings, none of which the two-part cases see
        with_sym = od.decide_diameter2((2, 2, 3, q))
        without = od.decide_diameter2((2, 2, 3, q), SearchConfig(symmetry_breaking=False))
        assert with_sym.verdict is without.verdict is verdict
        assert _arcs(with_sym) == _arcs(without)
        if verdict is Verdict.NONE:
            assert (without.stats.blocks_explored, without.stats.nodes) == (65_536, 65_536)

    @pytest.mark.parametrize("parts", SMALL_TOPOLOGIES)
    def test_agreement_with_brute_force(self, parts):
        topo = od.make_complete_multipartite(parts)
        exact = od.brute_force_min_diameter(topo)
        outcome = od.decide_diameter2(parts)
        assert (outcome.verdict is Verdict.EXISTS) == (exact <= 2)

    def test_agreement_sweep_all_enumerable_topologies(self):
        # every labeled part tuple (up to 5 parts, sizes up to 4) whose edge
        # count permits full enumeration; 73 topologies in all
        import itertools

        checked = 0
        for n_parts in range(2, 6):
            for sizes in itertools.product(range(1, 5), repeat=n_parts):
                topo = od.make_complete_multipartite(sizes)
                if not 0 < topo.n_edges <= 16:
                    continue
                exact = od.brute_force_min_diameter(topo)
                outcome = od.decide_diameter2(sizes)
                assert (outcome.verdict is Verdict.EXISTS) == (exact <= 2), sizes
                if outcome.witness is not None:
                    assert od.diameter(outcome.witness) <= 2
                checked += 1
        assert checked == 73


class TestOrbits:
    @pytest.mark.parametrize("rest_parts", BLOCK_SHAPES + MANY_PART_SHAPES, ids=str)
    def test_representatives_are_orbit_minima(self, rest_parts):
        # orbits built from every explicit relabeling: a permutation inside
        # each part, with or without global reversal
        starts = itertools.accumulate(rest_parts, initial=0)
        ranges = [range(start, start + p) for start, p in zip(starts, rest_parts)]
        bedges = _block_edges(rest_parts)
        slot = {e: i for i, e in enumerate(bedges)}
        total = 1 << len(bedges)
        actions = []
        for perms in itertools.product(*(itertools.permutations(r) for r in ranges)):
            image = [v for perm in perms for v in perm]
            actions.append([(slot[min(image[a], image[b]), max(image[a], image[b])],
                             image[a] > image[b]) for a, b in bedges])

        def orbit(code):
            found = set()
            for action in actions:
                img = 0
                for i, (j, flip) in enumerate(action):
                    if (code >> i) & 1 ^ flip:
                        img |= 1 << j
                found.update((img, img ^ (total - 1)))
            return found

        seen = set()
        sizes = {}
        for code in range(total):
            if code not in seen:
                members = orbit(code)
                seen |= members
                sizes[min(members)] = len(members)
        reps = _block_representatives(list(rest_parts), bedges)
        assert reps == sorted(sizes)
        assert sum(sizes[r] for r in reps) == total

    # in (2,2,2) a rest-slot swap and a key-count swap share one distance
    @pytest.mark.parametrize("rest_parts", list(dict.fromkeys(
        [(3, 5), (5, 3), (4, 4), (2, 2, 3), (3, 2, 2), (2, 3, 2)]
        + [shape for shape in IN_CAP_SHAPES if len(shape) >= 3])), ids=str)
    def test_matches_flood_over_every_code(self, rest_parts):
        bedges = _block_edges(rest_parts)
        assert (_block_representatives(list(rest_parts), bedges)
                == _flood_representatives(rest_parts, bedges))

    # representative counts of the shapes past the 16-edge cap, from the
    # flood over every code; (3,6) and (4,5) also match the ROADMAP's counts
    @pytest.mark.parametrize("rest_parts,count", [
        ((3, 6), 200), ((6, 3), 200), ((4, 5), 545), ((3, 7), 367), ((2, 2, 4), 8_388),
    ], ids=str)
    def test_representative_counts_past_the_edge_cap(self, rest_parts, count):
        reps = _block_representatives(list(rest_parts), _block_edges(rest_parts))
        assert len(reps) == count == _burnside_orbits(rest_parts)
        assert all(a < b for a, b in zip(reps, reps[1:]))

    @pytest.mark.parametrize("rest_parts", IN_CAP_SHAPES, ids=str)
    def test_representative_count_matches_burnside(self, rest_parts):
        reps = _block_representatives(list(rest_parts), _block_edges(rest_parts))
        assert len(reps) == _burnside_orbits(rest_parts)


def _burnside_orbits(rest_parts):
    """The number of block orbits, by Burnside's lemma, without touching a code.

    The group is the relabelings inside each part times global reversal, of
    order 2 * prod(a!).  A relabeling acts on the arcs between a cycle of
    length l in one part and a cycle of length l' in another as gcd(l, l')
    orbits of lcm(l, l') arcs each, so it fixes 2^(sum of gcds) codes.  Composed
    with reversal it fixes as many when every lcm is even (each orbit of arcs
    alternates direction), and none otherwise.  Relabelings of one cycle type
    per part fix the same number, so each type is weighted by its count.
    """
    def permutations_of_type(lengths):
        count = math.factorial(sum(lengths))
        for k in set(lengths):
            count //= k ** lengths.count(k) * math.factorial(lengths.count(k))
        return count

    fixed = 0
    for cycles in itertools.product(*(_partitions(a, a) for a in rest_parts)):
        pairs = [(x, y) for ci, cj in itertools.combinations(cycles, 2) for x in ci for y in cj]
        with_reversal = 1 + all(math.lcm(x, y) % 2 == 0 for x, y in pairs)
        fixed += (math.prod(map(permutations_of_type, cycles))
                  * 2 ** sum(math.gcd(x, y) for x, y in pairs) * with_reversal)
    order = 2 * math.prod(map(math.factorial, rest_parts))
    assert fixed % order == 0
    return fixed // order


def _flood_representatives(rest_parts, bedges):
    """Least code of every block orbit, by a flood over all 2^E codes.

    Each generator is an XOR mask and a list of delta swaps: global reversal
    flips every bit, and an adjacent transposition t <-> t+1 inside a part
    trades the bits of the slots of (t, c) and (t+1, c), one swap per slot
    distance.
    """
    total = 1 << len(bedges)
    slot = {e: i for i, e in enumerate(bedges)}
    gens = [(total - 1, ())]
    for t in range(sum(rest_parts) - 1):
        if (t, t + 1) not in slot:  # t and t+1 share a part
            masks = {}  # slot distance -> the lower slots
            for i, (a, b) in enumerate(bedges):
                if t in (a, b):
                    d = slot[(t + 1, b) if a == t else (a, t + 1)] - i
                    masks[d] = masks.get(d, 0) | 1 << i
            gens.append((0, tuple(masks.items())))
    visited = bytearray(total)
    reps = []
    for bits in range(total):
        if visited[bits]:
            continue
        reps.append(bits)
        stack = [bits]
        visited[bits] = 1
        while stack:
            cur = stack.pop()
            for flip, swaps in gens:
                img = cur ^ flip
                for d, mask in swaps:
                    x = (img ^ img >> d) & mask
                    img ^= x | x << d
                if not visited[img]:
                    visited[img] = 1
                    stack.append(img)
    return reps


def _reference_frame(rest_parts, bits):
    """Feasible profiles, cover pairs and their routers of one block, from distances.

    A profile is feasible when the block plus one L-vertex z holding it
    (arcs z -> a for a in the profile, a -> z otherwise) puts z within two
    steps of every block vertex both ways; a cover pair is an ordered pair
    more than two steps apart in the block; a profile routes the cover pairs
    (a, b) that z puts within two steps, which can only be by a -> z -> b.
    """
    m = sum(rest_parts)
    full = (1 << m) - 1
    out = _reference_out(rest_parts, bits)
    ins = _reference_out(rest_parts, ~bits)  # the reversed block
    block = Orientation(od.make_complete_multipartite(rest_parts), tuple(out))
    cover_pairs = [(a, b) for a in range(m) for b in range(m)
                   if a != b and distance(block, a, b) > 2]
    profiles, routed = [], []
    for pr in range(1 << m):
        # z reaches every block vertex within two steps, and in the reversed
        # graph, where z holds the complement, too
        if _two_step_reach(out, pr) != full or _two_step_reach(ins, full ^ pr) != full:
            continue
        with_z = _with_vertex(out, pr)
        profiles.append(pr)
        routed.append({(a, b) for a, b in cover_pairs
                       if (with_z[a] >> m) & 1 and (with_z[m] >> b) & 1})
    routers = [sum(1 << pr for pr, pairs in zip(profiles, routed) if pair in pairs)
               for pair in cover_pairs]
    return profiles, cover_pairs, routers


def _reference_out(rest_parts, bits):
    """Block out-masks: edge i of the sorted block edges runs low -> high iff bit i is set."""
    out = [0] * sum(rest_parts)
    for i, (a, b) in enumerate(_block_edges(rest_parts)):
        if (bits >> i) & 1:
            out[a] |= 1 << b
        else:
            out[b] |= 1 << a
    return out


def _two_step_reach(out, first):
    """Block vertices within two steps of a new vertex whose block out-set is `first`."""
    reach = first
    for a in range(len(out)):
        if (first >> a) & 1:
            reach |= out[a]
    return reach


def _with_vertex(out, pr):
    z = len(out)
    return [mask | (not (pr >> a) & 1) << z for a, mask in enumerate(out)] + [pr]


# every code of the small shapes, a seeded sample of the larger ones
FRAME_SHAPES = [(3, 3), (3, 4), (2, 2, 2), (1, 1, 1, 1, 1)]
# (2,8), (1,9) and (1,1,7) give one vertex 8 or 9 edge slots: the largest
# per-vertex tables of any in-cap shape
FRAME_SAMPLES = [((4, 4), 64), ((3, 5), 64), ((3, 6), 16), ((2, 8), 32), ((1, 9), 32), ((1, 1, 7), 32)]


class TestFrames:
    @pytest.mark.parametrize("shape", FRAME_SHAPES, ids=str)
    def test_every_code_matches_distances(self, shape):
        for bits in range(1 << len(_block_edges(shape))):
            self._check(shape, bits)

    @pytest.mark.parametrize("shape,count", FRAME_SAMPLES, ids=str)
    def test_sampled_codes_match_distances(self, shape, count):
        rng = random.Random(f"frames {shape}")
        for bits in rng.sample(range(1 << len(_block_edges(shape))), count):
            self._check(shape, bits)

    def _check(self, shape, bits):
        profiles, cover_pairs, routers = _reference_frame(shape, bits)
        m, bedges = sum(shape), _block_edges(shape)
        tables = search._vertex_tables(m, bedges)
        # at q = 0 every count passes, so the frame splits its profiles into
        # width chains and routes every cover pair
        frame = _frame(m, bedges, bits, 0)
        routed, width = all(routers), _width(tuple(profiles))
        assert frame.profiles == profiles, (shape, bits)
        assert frame.codes == sum(1 << pr for pr in profiles)
        assert frame.cover_pairs == cover_pairs, (shape, bits)
        assert frame.routers == routers, (shape, bits)
        assert frame.feasible == routed
        assert len(frame.chains) == width, (shape, bits)
        bound = min(_chain_counts(frame))
        # the frame runs the matching only past the chain bound, routes only
        # past the width, and stops at the first test that fails; a matching
        # that finds the width below q stops at q and lists no chains
        for q in sorted({bound, bound + 1, width, width + 1, len(profiles)}):
            reading = _Reading(tables, bits)
            frame = _BlockFrame(reading, q)
            chained, wide = bound >= q, width >= q
            assert frame.feasible == (wide and routed), (shape, bits, q)
            assert (reading.chains is not None, reading.stop) == (
                wide, q if chained and not wide else None), (shape, bits, q)
            assert len(frame.chains) == (width if wide else 0), (shape, bits, q)
            assert (frame.cover_pairs, frame.routers) == (
                (cover_pairs, routers) if wide else ([], [])), (shape, bits, q)
            assert (reading.routers is not None) == wide, (shape, bits, q)
        frame = _frame(m, bedges, bits, len(profiles) + 1)
        assert (frame.profiles, frame.cover_pairs, frame.routers, frame.chains,
                frame.feasible) == (profiles, [], [], [], False), (shape, bits)


def _root_truth(shape, bits):
    """The two counts that a block's root tests compare with q (its feasible
    profiles, and its reading's chain bound, checked against the fewest
    chains they meet in either symmetric chain decomposition), and whether
    every cover pair has a router."""
    reading = _Reading(search._vertex_tables(sum(shape), _block_edges(shape)), bits)
    frame = _BlockFrame(reading, 0)
    bound = reading.chain_bound()
    assert bound == min(_chain_counts(frame)), (shape, bits)
    return (len(frame.profiles), bound), frame.feasible


class TestRootTests:
    """The bit-sliced chain bound against one _BlockFrame per code and q.

    Bit c of the live set is exactly "code c's chain bound is at least q",
    and every code whose frame passes all its root tests is live; the frame
    alone tests routing and the Dilworth width.  Every code is checked at
    every q from 0 to one past the shape's largest profile count; a sampled
    code at its profile count, each decomposition's chain count and its
    width, and at each + 1.
    """

    @pytest.mark.parametrize("shape", FRAME_SHAPES, ids=str)
    def test_every_code_matches_frames(self, shape):
        m, bedges = sum(shape), _block_edges(shape)
        truth = [_root_truth(shape, bits) for bits in range(1 << len(bedges))]
        # from q = 0, where every code is live, to past every profile count
        for q in range(max(counts[0] for counts, _ in truth) + 2):
            live = list(_bit_members(search._live_codes(m, bedges, q)))
            assert live == [bits for bits, ((_, bound), _) in enumerate(truth)
                            if bound >= q], q
            assert set(live) >= {bits for bits in range(len(truth))
                                 if _frame(m, bedges, bits, q).feasible}, q

    @pytest.mark.parametrize("shape,count", FRAME_SAMPLES, ids=str)
    def test_sampled_codes_match_frames(self, shape, count):
        m, bedges = sum(shape), _block_edges(shape)
        live = functools.cache(lambda q: search._live_codes(m, bedges, q))  # once per q
        rng = random.Random(f"root tests {shape}")
        for bits in rng.sample(range(1 << len(bedges)), count):
            (n_profiles, bound), routed = _root_truth(shape, bits)
            frame = _frame(m, bedges, bits, 0)
            width = _width(tuple(frame.profiles))
            for q in sorted({n + k for n in (n_profiles, *_chain_counts(frame), width)
                             for k in (0, 1)}):
                is_live = bool(live(q) >> bits & 1)
                feasible = _frame(m, bedges, bits, q).feasible
                assert is_live == (bound >= q), (bits, q)
                assert is_live or not feasible, (bits, q)
                assert feasible == (routed and min(n_profiles, bound, width) >= q), (bits, q)

    def test_frames_close_what_the_pass_lets_through(self):
        # the pass leaves routing to the frame: at (3,3), q = 3, it lets 492
        # codes through, and their frames pass 444
        m, bedges = 6, _block_edges((3, 3))
        live = list(_bit_members(search._live_codes(m, bedges, 3)))
        feasible = [bits for bits in live if _frame(m, bedges, bits, 3).feasible]
        assert (len(live), len(feasible)) == (492, 444)

    @pytest.mark.parametrize("seed", range(20))
    def test_at_least_counts_like_a_plain_count(self, seed):
        rng = random.Random(seed)
        width = rng.randrange(1, 70)
        full = (1 << width) - 1
        sets = [rng.getrandbits(width) & rng.getrandbits(width) for _ in range(rng.randrange(40))]
        # q = 0 keeps every code, and a q past the number of sets none
        for q in sorted({0, 1, len(sets), len(sets) + 1, len(sets) + 5, rng.randrange(70)}):
            want = sum(1 << c for c in range(width) if sum(x >> c & 1 for x in sets) >= q)
            assert search._at_least(q, sets, full) == want, q


# the first blocks' canonical cases of K(3,5,20), the first 7 and the first 50
# orbit representatives: what a node budget of 7 or 50 lets it explore
_K3520_CASES_7 = ((0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 0, 3), (0, 0, 4), (0, 0, 5), (0, 1, 1))
_K3520_CASES_50 = _K3520_CASES_7 + (
    (0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 1, 5), (0, 2, 2), (0, 2, 3), (0, 2, 4), (0, 2, 5),
    (0, 3, 3), (0, 3, 4), (0, 4, 4), (1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 1, 4), (1, 2, 2))


def _observed(outcome):
    """What a decide answers: its verdict, witness arcs and every stat but wall time."""
    stats = outcome.stats
    return (outcome.verdict, _arcs(outcome), stats.nodes, stats.max_depth,
            stats.blocks_explored, stats.cases_enumerated)


class TestBlockPlan:
    """The per-shape cache of orbit representatives, which no decide of any q
    may make answer differently from a fresh process."""

    @pytest.mark.parametrize("shape", [(3, 3), (3, 4), (3, 5), (4, 4), (2, 8), (2, 2, 3)], ids=str)
    def test_plan_is_the_flood_computed_once(self, shape):
        bedges = _block_edges(shape)
        search._block_plan.cache_clear()
        plan = search._block_plan(shape, bedges)
        assert plan.reps == tuple(_block_representatives(list(shape), bedges))
        assert search._block_plan(shape, bedges) is plan
        # no reading is read before a decide reaches its representative
        assert len(plan.readings) == len(plan.reps)
        assert all(reading.profiles is None for reading in plan.readings)

    @pytest.mark.parametrize("parts,qs,threshold", [((3, 4), range(4, 13), 12),
                                                    ((4, 4), range(25, 36), 35)], ids=str)
    def test_warm_plan_answers_like_a_fresh_one(self, parts, qs, threshold):
        def decide(q):
            return _observed(od.decide_diameter2((*parts, q)))

        fresh = {}
        for q in qs:
            search._block_plan.cache_clear()
            fresh[q] = decide(q)
        assert [fresh[q][0] is Verdict.NONE for q in qs] == [q >= threshold for q in qs]
        exists = [q for q in qs if q < threshold]
        orders = {"ascending": list(qs), "descending": list(qs)[::-1],
                  "exists then none": exists[::-1] + [q for q in qs if q >= threshold]}
        for name, order in orders.items():
            search._block_plan.cache_clear()
            for q in order:
                assert decide(q) == fresh[q], (name, q)

    @pytest.mark.parametrize("parts,qs", [((3, 4), (12, 11, 4, 12)), ((4, 4), (35, 26, 34)),
                                          ((2, 2, 3), (20, 19, 3))], ids=str)
    def test_readings_live_on_reached_representatives_only(self, parts, qs):
        # one reading per representative some decide reached, however many q
        # reach it; a symmetry-off decide builds its readings fresh and keeps none
        bedges = _block_edges(parts)
        search._block_plan.cache_clear()
        reached = 0
        for q in qs:
            reached = max(reached, od.decide_diameter2((*parts, q)).stats.blocks_explored)
        plan = search._block_plan(parts, bedges)
        assert len(plan.readings) == len(plan.reps)
        assert [r.profiles is not None for r in plan.readings] == [
            i < reached for i in range(len(plan.reps))]
        del plan
        search._block_plan.cache_clear()
        od.decide_diameter2((*parts, qs[0]), SearchConfig(symmetry_breaking=False))
        assert search._block_plan.cache_info().currsize == 0
        gc.collect()
        assert not any(type(obj) is _Reading for obj in gc.get_objects())

    @pytest.mark.parametrize("shape", [(3, 4), (4, 4), (2, 2, 3)], ids=str)
    def test_staged_reading_frames_like_a_fresh_one(self, shape, monkeypatch):
        # each reading is first tested at a q above its profile count, which
        # fills no stage past the profiles; then at the q values around its
        # bound and its width, each against a frame on a fresh reading.  A
        # matching that stopped at q runs again at a lower q only, and none
        # runs once one has reached its end
        m, bedges = sum(shape), _block_edges(shape)
        chain_partition, runs = search._chain_partition, []

        def counted(codes, m, q=0):
            runs.append(q)
            return chain_partition(codes, m, q)

        monkeypatch.setattr(search, "_chain_partition", counted)
        search._block_plan.cache_clear()
        plan = search._block_plan(shape, bedges)
        stopped = 0
        for bits, reading in zip(plan.reps, plan.readings):
            assert not _BlockFrame(reading, (1 << m) + 1).feasible  # above every profile count
            profiles = reading.profiles
            assert not _BlockFrame(reading, len(profiles) + 1).feasible
            assert (reading.bound, reading.stop, reading.chains, reading.routers) == (
                None, None, None, None), bits
            bound = min(len(profiles), *_chain_counts(_frame(m, bedges, bits, 0)))
            width = _width(tuple(profiles))
            least, ended = None, False  # what the reading should hold after each frame
            for q in (bound + 1, bound, width + 1, *range(bound, width, -1), width, 0):
                fresh = _frame(m, bedges, bits, q)
                runs.clear()
                staged = _BlockFrame(reading, q)
                assert (staged.profiles, staged.cover_pairs, staged.routers, len(staged.chains),
                        staged.feasible) == (fresh.profiles, fresh.cover_pairs, fresh.routers,
                                             len(fresh.chains), fresh.feasible), (bits, q)
                rerun = q <= bound and not ended and (least is None or q < least)
                assert runs == [q] * rerun, (bits, q, least)
                if rerun and width >= q:
                    ended = True
                elif rerun:
                    least = q
                assert (reading.stop, reading.chains is not None) == (least, ended), (bits, q)
            assert reading.bound == bound, bits
            assert len(reading.chains) == width, bits
            stopped += least is not None
        assert stopped  # some representative's width is below its bound

    @pytest.mark.parametrize("shape", [(3, 4), (4, 4), (2, 2, 3)], ids=str)
    def test_chain_bound_stage_leaves_a_reading_unrouted(self, shape):
        # a q past the chain bound but within the profile count fills the
        # bound and nothing after it: routing waits for a q the bound passes.
        # The q run down, so the first of them is the frame that counts it
        m, bedges = sum(shape), _block_edges(shape)
        staged = 0
        search._block_plan.cache_clear()
        plan = search._block_plan(shape, bedges)
        for bits, reading in zip(plan.reps, plan.readings):
            assert not _BlockFrame(reading, (1 << m) + 1).feasible  # reads the profiles alone
            bound = min(_chain_counts(_frame(m, bedges, bits, 0)))
            for q in range(len(reading.profiles), bound, -1):
                assert not _BlockFrame(reading, q).feasible, (bits, q)
                assert (reading.bound, reading.routers) == (bound, None), (bits, q)
                staged += 1
        assert staged  # some representative has a bound below its profile count

    def test_no_reading_is_filled_outside_a_frame(self, monkeypatch):
        # every reading is built empty, but for the bound a symmetry-off
        # reading is built with, proved by the bit-sliced pass; its stages
        # change only while a frame is being built: each reading's stages are
        # compared, as it enters a frame and at the end, with what its last
        # frame left
        reading_class, frame_class = search._Reading, search._BlockFrame
        framing = False
        left = {}  # id(reading) -> (reading, which of its stages are filled)

        def stages(reading):
            # the stop is the least q a matching stopped at, so a lower one is a change
            return (reading.stop, *(x is not None for x in (
                reading.profiles, reading.bound, reading.chains, reading.routers)))

        def build_reading(tables, bits, bound=None):
            built = reading_class(tables, bits, bound)
            proved = bound is not None
            assert framing or stages(built) == (None, False, proved, False, False)
            left[id(built)] = built, stages(built)
            return built

        def build_frame(reading, q):
            nonlocal framing
            assert stages(reading) == left[id(reading)][1]
            framing = True
            try:
                return frame_class(reading, q)
            finally:
                framing = False
                left[id(reading)] = reading, stages(reading)

        monkeypatch.setattr(search, "_Reading", build_reading)
        monkeypatch.setattr(search, "_BlockFrame", build_frame)
        for parts in ((3, 4, 11), (3, 4, 12), (2, 2, 3, 19), (4, 4, 35)):
            for symmetric in (True, False):
                search._block_plan.cache_clear()
                cfg = SearchConfig(symmetry_breaking=symmetric)
                for _ in range(2):  # cold, then warm
                    od.decide_diameter2(parts, cfg)
        assert all(stages(built) == filled for built, filled in left.values())
        assert any(filled[1] for _, filled in left.values())
        assert any(filled[0] is not None for _, filled in left.values())

    @pytest.mark.parametrize("budget,cases", [(7, _K3520_CASES_7), (50, _K3520_CASES_50)])
    def test_node_budget_stops_cold_and_warm_plans_alike(self, budget, cases):
        # every block of K(3,5,20) is closed; the budget stops the loop at
        # exactly that many blocks, with a cold plan and a warm one
        search._block_plan.cache_clear()
        for _ in range(2):
            outcome = od.decide_diameter2((3, 5, 20), SearchConfig(node_budget=budget))
            assert outcome.verdict is Verdict.UNKNOWN
            assert outcome.stats.nodes == outcome.stats.blocks_explored == budget
            assert outcome.stats.cases_enumerated == cases

    @pytest.mark.parametrize("shape,ns", [
        ((3, 3), range((1 << 9) + 1)), ((3, 4), range((1 << 12) + 1)),
        ((3, 5), sorted({1 << 15, *random.Random(5).sample(range(1 << 15), 50)}))],
        ids=["3,3", "3,4", "3,5"])
    def test_case_halves_read_every_prefix(self, shape, ns):
        # the packed cases of codes 0 .. n - 1, summed from the two half
        # tables, against each code's own anchor out-degrees, a byte each
        bedges = _block_edges(shape)
        halves = search._case_reader(shape, bedges)
        seen, below = set(), 0
        for n in ns:
            for code in range(below, n):
                out = od.graphcore._out_masks(sum(shape), bedges, code)
                seen.add(sum(out[x].bit_count() << 8 * x for x in range(3)))
            below = n
            assert search._cases_below(halves, n) == seen, (shape, n)


class TestKernel:
    @settings(max_examples=200, deadline=None)
    @given(block_frames())
    def test_agrees_with_brute_force(self, frame_q):
        # the cover pairs come from the q = 0 frame, since a frame that fails
        # a count lists none
        frame, q, cover_pairs = frame_q
        if len(frame.profiles) < q:
            # the frame stops at its profiles: nothing else is built
            assert (frame.cover_pairs, frame.feasible) == ([], False)
        found = _antichain_cover(frame, q, _Budget(SearchConfig(), time.monotonic()))
        exists = any(_is_antichain(c) and _covers(c, cover_pairs)
                     for c in itertools.combinations(frame.profiles, q))
        assert (found is not None) == exists
        if found is not None:
            assert len(set(found)) == q
            assert set(found) <= set(frame.profiles)
            assert _is_antichain(found)
            assert _covers(found, cover_pairs)


    @pytest.mark.parametrize("shape", [(3, 3), (3, 4), (2, 2, 2)], ids=str)
    def test_only_a_searched_block_costs_a_node(self, shape):
        # every root exit is the frame's, so the kernel takes a node exactly
        # when the frame passes, and its None means a searched block
        m, bedges = sum(shape), _block_edges(shape)
        for bits in range(1 << len(bedges)):
            profiles = _frame(m, bedges, bits, 0).profiles
            width = _width(tuple(profiles))
            for q in sorted({width, width + 1, len(profiles)}):
                frame = _frame(m, bedges, bits, q)
                budget = _Budget(SearchConfig(), time.monotonic())
                _antichain_cover(frame, q, budget)
                assert (budget.nodes == 0) == (not frame.feasible), (bits, q)


class TestChainPartition:
    @settings(max_examples=200, deadline=None)
    @given(block_frames())
    def test_minimum_chain_partition(self, frame_q):
        frame = frame_q[0]
        chains = _chain_partition(frame.codes, len(frame.bout))
        union = 0
        for chain in chains:
            assert not union & chain
            union |= chain
        assert union == frame.codes
        for chain in chains:
            members = [pr for pr in frame.profiles if (chain >> pr) & 1]
            assert not any(_is_antichain(pair) for pair in itertools.combinations(members, 2))
        # Dilworth: no partition into chains is smaller than the width
        assert len(chains) == _width(tuple(frame.profiles))

    @pytest.mark.parametrize("m", range(1, 9))
    def test_stops_exactly_below_the_width(self, m):
        # at every q from 0 to one past the profile count, a run with its
        # stop at q says None iff the width is below q, and else returns the
        # partition that a run without a stop returns
        rng = random.Random(f"stop {m}")
        for _ in range(8):
            profiles = sorted(rng.sample(range(1 << m), rng.randrange(min(1 << m, 40) + 1)))
            codes = sum(1 << pr for pr in profiles)
            whole, width = _chain_partition(codes, m), _width(tuple(profiles))
            assert len(whole) == width, profiles
            for q in range(len(profiles) + 2):
                got = _chain_partition(codes, m, q)
                assert got == (None if width < q else whole), (profiles, q)

    @pytest.mark.parametrize("shape", [(3, 3), (3, 4)], ids=str)
    def test_root_count_bounds_the_width(self, shape):
        # every code, as with symmetry breaking off: the chains of either
        # symmetric decomposition that the profiles meet never undercount
        # the width, and the seeded
        # matching still ends minimum
        m, bedges = sum(shape), _block_edges(shape)
        for bits in range(1 << len(bedges)):
            frame = _frame(m, bedges, bits, 0)
            width = _width(tuple(frame.profiles))
            assert min(_chain_counts(frame)) >= width, bits
            assert len(_chain_partition(frame.codes, m)) == width, bits


class TestSymmetricChains:
    @pytest.mark.parametrize("m", range(1, MAX_BLOCK_VERTICES + 1))
    def test_decomposition(self, m):
        self._check(m, _symmetric_chains(m)[0])

    @pytest.mark.parametrize("m", range(1, MAX_BLOCK_VERTICES + 1))
    def test_mirrored_decomposition(self, m):
        plain, mirrored = _symmetric_chains(m)
        chains = self._check(m, mirrored)
        if m > 1:  # a second partition, not the first renumbered
            assert set(map(tuple, chains)) != set(map(tuple, self._check(m, plain)))

    @staticmethod
    def _check(m, chain_of):
        assert len(chain_of) == 1 << m
        chains = [[] for _ in range(math.comb(m, m // 2))]
        for code, index in enumerate(chain_of):
            chains[index].append(code)  # ascending, so by size along a chain
        for chain in chains:
            for small, big in zip(chain, chain[1:]):
                assert small != big and not small & ~big, (m, chain)
            sizes = [code.bit_count() for code in chain]
            k = sizes[0]
            assert sizes == list(range(k, m - k + 1)), (m, chain)
        return chains


class TestBruteForce:
    def test_k4(self):
        topo = od.make_complete_multipartite((1, 1, 1, 1))
        assert od.brute_force_min_diameter(topo) == 3

    def test_k5(self):
        topo = od.make_complete_multipartite((1, 1, 1, 1, 1))
        assert od.brute_force_min_diameter(topo) == 2

    def test_k23(self):
        topo = od.make_complete_multipartite((2, 3))
        assert od.brute_force_min_diameter(topo) == 4

    def test_k22(self):
        topo = od.make_complete_multipartite((2, 2))
        assert od.brute_force_min_diameter(topo) == 3

    def test_bridged_star_never_strong(self):
        topo = od.make_complete_multipartite((1, 2))
        assert od.brute_force_min_diameter(topo) == od.INFINITE

    def test_cap(self):
        with pytest.raises(TooManyEdges):
            od.brute_force_min_diameter(od.make_complete_multipartite((3, 3, 2)))


    @pytest.mark.parametrize("parts,value", CHUNKED_VALUES)
    def test_chunked_edge_codes(self, parts, value):
        topo = od.make_complete_multipartite(parts)
        assert 16 < topo.n_edges <= 20
        assert od.brute_force_min_diameter(topo) == value


@pytest.mark.parametrize("oracle,parts,answer", [
    (od.brute_force_min_diameter, (4096,), od.INFINITE),
    (od.brute_force_min_diameter, (1, 20), od.INFINITE),
    (od.brute_force_min_diameter, (1,), 0),
    (od.enumerate_diameter2, (4096,), []),
    (od.enumerate_diameter2, (1, 16), []),
])
def test_oracles_skip_graphs_with_fewer_edges_than_vertices(monkeypatch, oracle, parts, answer):
    # a strong orientation on n >= 2 vertices has at least n arcs
    def unexpected(*args):
        raise AssertionError("sliced levels built for a graph that cannot be strong")

    monkeypatch.setattr(search, "_diameter_levels", unexpected)
    assert oracle(od.make_complete_multipartite(parts)) == answer


# a parts tuple used to end in an AttributeError on topology.n_edges
@pytest.mark.parametrize("oracle", [od.brute_force_min_diameter, od.enumerate_diameter2])
@pytest.mark.parametrize("topology", [(2, 2), [1, 1, 1], "2,2", None], ids=repr)
def test_oracles_refuse_anything_but_a_topology(oracle, topology):
    with pytest.raises(SearchError, match="topology must be a GraphTopology, got"):
        oracle(topology)


def _records():
    """Each of the package's ten records, built twice from equal values."""
    def topology():
        return od.make_complete_multipartite((1, 1, 1))

    def orientation():
        return od.orient(topology(), [(0, 1), (1, 2), (2, 0)])

    def stats():
        return od.SearchStats(18, 0, 0.0, 18, ((0, 0, 0),))

    def outcome():
        return od.SearchOutcome(Verdict.EXISTS, orientation(), stats())

    def config():
        return SearchConfig(node_budget=5, time_budget=2.5, symmetry_breaking=False)

    def signature():
        return od.case_signature(od.construct_33q(3))

    def antichain():
        return od.out_neighborhood_family(od.middle_layer_bipartite(4, 6), 1)

    def claim():
        return od.ClaimRecord("33q-q3", "33q", 3, 2, "construct", 2, True, False, 0.5)

    def report():
        return od.ClaimReport((claim(),), ("k3_3_7.cnf",))

    def cnf_stats():
        return od.encode_diameter2((1, 1, 1))[1]

    return [topology, orientation, stats, outcome, config, signature, antichain, claim, report,
            cnf_stats]


@pytest.mark.parametrize("build", _records(), ids=lambda build: build.__name__)
def test_records_are_immutable_values(build):
    a, b = build(), build()
    assert a is not b and a == b and hash(a) == hash(b)
    for name in (*a._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    # 1 is a valid node budget, so SearchConfig's checking _replace accepts it
    assert a == b and a != a._replace(**{a._fields[0]: 1})


class TestOracleRevalidation:
    """Every orientation an oracle returns is re-measured by the exact BFS."""

    @pytest.fixture
    def bfs_calls(self, monkeypatch):
        calls = []

        def recording(out, bound):
            calls.append((tuple(out), bound))
            return _diameter_below(out, bound)

        monkeypatch.setattr(search, "_diameter_below", recording)
        return calls

    def test_brute_force_measures_its_minimum(self, bfs_calls):
        assert od.brute_force_min_diameter(od.make_complete_multipartite((2, 2, 3))) == 3
        ((out, bound),) = bfs_calls
        assert bound == 4 and _diameter_below(out, bound) == 3

    def test_nothing_to_measure_without_a_strong_orientation(self, bfs_calls):
        assert od.brute_force_min_diameter(od.make_complete_multipartite((1, 5))) == od.INFINITE
        assert bfs_calls == []

    def test_enumerate_measures_every_result(self, bfs_calls):
        found = od.enumerate_diameter2(od.make_complete_multipartite((2, 2, 2)), limit=5)
        assert [out for out, _ in bfs_calls] == [D.out_adj for D in found]

    @pytest.mark.parametrize("oracle", [od.brute_force_min_diameter, od.enumerate_diameter2])
    def test_mismatch_is_an_internal_error(self, monkeypatch, oracle):
        monkeypatch.setattr(search, "_diameter_below", lambda out, bound: None)
        with pytest.raises(SearchError, match="internal error"):
            oracle(od.make_complete_multipartite((1, 1, 1)))


@pytest.mark.parametrize("parts", PLAIN_TOPOLOGIES)
def test_oracles_match_plain_enumeration(parts):
    # conftest counts edge codes up and the oracles count them down
    topo = od.make_complete_multipartite(parts)
    measured = [(D, od.diameter(D)) for D in all_orientations(topo)]
    assert od.brute_force_min_diameter(topo) == min(d for _, d in measured)
    diameter2 = [D.arcs() for D, d in reversed(measured) if d == 2]
    for limit in (None, 1, 3):
        found = [D.arcs() for D in od.enumerate_diameter2(topo, limit)]
        assert found == diameter2[:limit]


def test_diameter_levels_stop_at_the_fixpoint():
    # a leaf of the star K(1,2) is a source or a sink under every edge code,
    # so no level reaches every pair and the reach sets stop growing
    edges = od.make_complete_multipartite((1, 2)).edges()
    assert list(search._diameter_levels(3, edges)) == [(1, 0), (2, 0)]


class TestAnds:
    """Every bit-sliced set of the decision procedure is one _ands entry."""

    @pytest.mark.parametrize("m", range(1, 9))
    def test_supersets_are_the_plain_supersets(self, m):
        sup = search._supersets(m)
        assert len(sup) == 1 << m
        for c, got in enumerate(sup):
            assert got == sum(1 << d for d in range(1 << m) if not c & ~d), (m, c)

    @pytest.mark.parametrize("seed", range(20))
    def test_every_mask_is_a_plain_and(self, seed):
        rng = random.Random(seed)
        width = rng.randrange(1, 70)
        full = (1 << width) - 1
        bits = sorted(rng.sample(range(12), rng.randrange(7)))
        family = [(i, rng.getrandbits(width) | rng.getrandbits(width)) for i in bits]
        ands = search._ands(full, family)
        # every mask of the family's bits, inserted in ascending order
        assert list(ands) == sorted(sum(1 << i for i in sub) for k in range(len(bits) + 1)
                                    for sub in itertools.combinations(bits, k))
        for mask, got in ands.items():
            want = full
            for i, x in family:
                if mask >> i & 1:
                    want &= x
            assert got == want, mask


@pytest.mark.parametrize("w", range(13))
def test_slice_variables_spell_out_the_codes(w):
    var = search._slice_variables(w)
    assert len(var) == w
    for i, bits in enumerate(var):
        assert all((bits >> c & 1) == (c >> i & 1) for c in range(1 << w))


class TestEnumerate:
    def test_k3_has_exactly_two(self):
        topo = od.make_complete_multipartite((1, 1, 1))
        found = od.enumerate_diameter2(topo)
        assert len(found) == 2
        arc_sets = {tuple(D.arcs()) for D in found}
        assert arc_sets == {((0, 1), (1, 2), (2, 0)), ((0, 2), (1, 0), (2, 1))}

    def test_k12_empty(self):
        topo = od.make_complete_multipartite((1, 2))
        assert od.enumerate_diameter2(topo) == []

    def test_k322_matches_brute_force(self):
        topo = od.make_complete_multipartite((3, 2, 2))
        found = od.enumerate_diameter2(topo)
        if od.brute_force_min_diameter(topo) <= 2:
            assert found
        else:
            assert found == []

    def test_every_result_has_diameter_two(self):
        topo = od.make_complete_multipartite((2, 2, 2))
        found = od.enumerate_diameter2(topo)
        assert found
        for D in found:
            assert od.diameter(D) == 2

    def test_limit(self):
        topo = od.make_complete_multipartite((2, 2, 2))
        assert [tuple(D.arcs()) for D in od.enumerate_diameter2(topo, limit=3)] == _K222_FIRST_THREE

    @pytest.mark.parametrize("limit", [0, -3])
    def test_limit_below_one_rejected(self, limit):
        with pytest.raises(SearchError):
            od.enumerate_diameter2(od.make_complete_multipartite((1, 1, 1)), limit=limit)

    # limit=1.5 would return two orientations
    @pytest.mark.parametrize("limit", [1.5, 2.0, True, "3"], ids=repr)
    def test_non_integer_limit_rejected(self, limit):
        with pytest.raises(SearchError, match="limit must be an integer"):
            od.enumerate_diameter2(od.make_complete_multipartite((1, 1, 1)), limit=limit)

    def test_deterministic_order(self):
        topo = od.make_complete_multipartite((2, 2, 2))
        first = [D.arcs() for D in od.enumerate_diameter2(topo)]
        second = [D.arcs() for D in od.enumerate_diameter2(topo)]
        assert first == second

    def test_cap(self):
        with pytest.raises(TooManyEdges):
            od.enumerate_diameter2(od.make_complete_multipartite((3, 3, 2)))
