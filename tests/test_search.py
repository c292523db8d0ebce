"""Decision procedure vs brute-force oracles, budgets, determinism."""

from __future__ import annotations

import functools
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
    _chain_partition,
    _symmetric_chains,
)
from orientdiam.graphcore import Orientation, _diameter_below

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

# topologies past the 16-edge slice, so brute force runs in several chunks,
# with the values the per-orientation oracle gave
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


@st.composite
def block_frames(draw):
    """The kernel's input (frame, q) for a random orientation of a small block.

    Half the draws put q at the width of the feasible profiles or one above
    it, where the chain bound decides the block at the root.
    """
    rest_parts = draw(
        st.lists(st.integers(1, 3), min_size=2, max_size=3).filter(lambda ps: sum(ps) <= 5)
    )
    bedges = _block_edges(rest_parts)
    bits = draw(st.integers(0, (1 << len(bedges)) - 1))
    m = sum(rest_parts)
    profiles = _BlockFrame(m, bedges, bits, 0).profiles
    width = _width(tuple(profiles))
    edge = [q for q in (width, width + 1) if math.comb(len(profiles), q) <= COMBINATION_CAP]
    if edge and draw(st.booleans()):
        q = draw(st.sampled_from(edge))
    else:
        q = draw(st.integers(1, 4))
    return _BlockFrame(m, bedges, bits, q), q


def _block_edges(rest_parts):
    return od.make_complete_multipartite(rest_parts).edges()


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


class TestDecide:
    def test_k336_exists(self):
        outcome = od.decide_diameter2((3, 3, 6))
        assert outcome.verdict is Verdict.EXISTS
        assert od.diameter(outcome.witness) == 2

    def test_k337_none(self):
        outcome = od.decide_diameter2((3, 3, 7))
        assert outcome.verdict is Verdict.NONE
        assert outcome.witness is None
        assert outcome.stats.nodes == 24  # 77 without the chain bound

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
        assert outcome.stats.nodes == 65  # 1,505 without the chain bound

    # None counts come from root exits alone and must never move; Exists
    # counts follow the chain partition fixed at each kernel root
    @pytest.mark.parametrize("parts,symmetry,verdict,nodes", [
        ((3, 3, 7), True, Verdict.NONE, 24),
        ((3, 4, 12), True, Verdict.NONE, 65),
        ((3, 5, 20), True, Verdict.NONE, 122),
        ((3, 3, 7), False, Verdict.NONE, 746),
        ((3, 4, 12), False, Verdict.NONE, 5_896),
        ((3, 4, 11), True, Verdict.EXISTS, 47),
        ((4, 4, 26), True, Verdict.EXISTS, 269),
        ((4, 4, 34), True, Verdict.EXISTS, 231),
        ((3, 5, 19), True, Verdict.EXISTS, 68),
    ])
    def test_node_counts_are_pinned(self, parts, symmetry, verdict, nodes):
        outcome = od.decide_diameter2(parts, SearchConfig(symmetry_breaking=symmetry))
        assert (outcome.verdict, outcome.stats.nodes) == (verdict, nodes)

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

    @pytest.mark.parametrize("node_budget", [1, 2, 3, 40, 5_000, 200])
    @pytest.mark.parametrize("parts,symmetry", [((3, 4, 12), True), ((3, 4, 12), False),
                                                ((4, 4, 26), True), ((3, 5, 19), True)])
    def test_node_budget_never_exceeded(self, parts, symmetry, node_budget):
        # the tick that breaks the budget is not counted; K(3,5,19) at 200
        # nodes runs out inside the kernel, below its root
        cfg = SearchConfig(node_budget=node_budget, symmetry_breaking=symmetry)
        outcome = od.decide_diameter2(parts, cfg)
        full = od.decide_diameter2(parts, SearchConfig(symmetry_breaking=symmetry))
        if full.stats.nodes > node_budget:
            assert outcome.verdict is Verdict.UNKNOWN
            assert outcome.witness is None
            assert outcome.stats.nodes <= node_budget
        else:
            assert outcome.verdict is full.verdict
            assert outcome.stats.nodes == full.stats.nodes

    def test_too_large(self):
        for parts, cap in (((5, 5, 5), "25 edges, cap is 16"), ((6, 6, 6), "12 vertices, cap is 10")):
            with pytest.raises(TooLarge, match=cap):
                od.decide_diameter2(parts)

    def test_config_validation(self):
        with pytest.raises(SearchError):
            SearchConfig(node_budget=0)
        with pytest.raises(SearchError):
            SearchConfig(time_budget=-1.0)

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

    @pytest.mark.parametrize("parts", [(3, 5, 20), (4, 4, 26)])
    def test_time_budget_checked_per_block(self, parts):
        # both searches finish in fewer than 1,024 nodes, so only the clock
        # reads after orbit enumeration and per block can stop them
        outcome = od.decide_diameter2(parts, SearchConfig(time_budget=1e-9))
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
        reps = _block_representatives(list(rest_parts), bedges, True)
        assert reps == sorted(sizes)
        assert sum(sizes[r] for r in reps) == total
        assert _block_representatives(list(rest_parts), bedges, False) == list(range(total))

    @pytest.mark.parametrize(
        "rest_parts", [(3, 5), (5, 3), (4, 4), (2, 2, 3), (3, 2, 2), (2, 3, 2)], ids=str)
    def test_matches_flood_over_every_code(self, rest_parts):
        bedges = _block_edges(rest_parts)
        assert (_block_representatives(list(rest_parts), bedges, True)
                == _flood_representatives(rest_parts, bedges))

    # representative counts of the shapes past the 16-edge cap, from the
    # flood over every code; (3,6) and (4,5) also match the ROADMAP's counts
    @pytest.mark.parametrize("rest_parts,count", [
        ((3, 6), 200), ((6, 3), 200), ((4, 5), 545), ((3, 7), 367), ((2, 2, 4), 8_388),
    ], ids=str)
    def test_representative_counts_past_the_edge_cap(self, rest_parts, count):
        reps = _block_representatives(list(rest_parts), _block_edges(rest_parts), True)
        assert len(reps) == count == _burnside_orbits(rest_parts)
        assert all(a < b for a, b in zip(reps, reps[1:]))

    @pytest.mark.parametrize("rest_parts", IN_CAP_SHAPES, ids=str)
    def test_representative_count_matches_burnside(self, rest_parts):
        reps = _block_representatives(list(rest_parts), _block_edges(rest_parts), True)
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
FRAME_SAMPLES = [((4, 4), 64), ((3, 5), 64), ((3, 6), 16)]


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
        # q on both sides of the too-few-profiles cut
        for q in (len(profiles), len(profiles) + 1):
            frame = _BlockFrame(m, bedges, bits, q)
            assert frame.profiles == profiles, (shape, bits)
            assert frame.codes == sum(1 << pr for pr in profiles)
            if q > len(profiles):
                assert (frame.cover_pairs, frame.routers, frame.feasible) == ([], [], False)
                continue
            assert frame.cover_pairs == cover_pairs, (shape, bits)
            assert frame.routers == routers, (shape, bits)
            assert frame.feasible == all(routers)


class TestKernel:
    @settings(max_examples=200, deadline=None)
    @given(block_frames())
    def test_agrees_with_brute_force(self, frame_q):
        frame, q = frame_q
        if len(frame.profiles) < q:
            # the frame stops at its profiles: nothing else is built
            assert (frame.cover_pairs, frame.feasible) == ([], False)
        found = _antichain_cover(frame, q, _Budget(SearchConfig(), time.monotonic()))
        exists = any(_is_antichain(c) and _covers(c, frame.cover_pairs)
                     for c in itertools.combinations(frame.profiles, q))
        assert (found is not None) == exists
        if found is not None:
            assert len(set(found)) == q
            assert set(found) <= set(frame.profiles)
            assert _is_antichain(found)
            assert _covers(found, frame.cover_pairs)


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

    @pytest.mark.parametrize("shape", [(3, 3), (3, 4)], ids=str)
    def test_root_count_bounds_the_width(self, shape):
        # every code, as with symmetry breaking off: the symmetric chains
        # the profiles meet never undercount the width, and the seeded
        # matching still ends minimum
        m, bedges = sum(shape), _block_edges(shape)
        chain_of = _symmetric_chains(m)
        for bits in range(1 << len(bedges)):
            frame = _BlockFrame(m, bedges, bits, 0)
            width = _width(tuple(frame.profiles))
            assert len({chain_of[pr] for pr in frame.profiles}) >= width, bits
            assert len(_chain_partition(frame.codes, m)) == width, bits


class TestSymmetricChains:
    @pytest.mark.parametrize("m", range(1, MAX_BLOCK_VERTICES + 1))
    def test_decomposition(self, m):
        chain_of = _symmetric_chains(m)
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
    # edges (0,2) and (1,2) run into vertex 2 under every code of the chunk:
    # 2 is a sink, so no level reaches every pair and the reach sets stop growing
    edges = od.make_complete_multipartite((1, 1, 1)).edges()
    assert list(search._diameter_levels(3, edges, 1, 0b11)) == [(1, 0)]


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
