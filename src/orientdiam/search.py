"""Exact decision procedures for diameter-2 orientability.

decide_diameter2 factors the problem through the largest part L.  Branching
follows the edge-block order: all edges outside L first (for a (3,p,q)
graph that is the 3x p anchor block, which pins down the case signature),
then the edges into L.  Every vertex of L sees exactly the vertices outside
L, so once the outer block is fixed, each L-vertex is described by its
out-arc profile, a subset of V \\ L.  Constraint propagation collapses to
three exact facts:

  * a profile is feasible iff the vertex it describes can reach and be
    reached by everything outside L in at most two steps;
  * two L-vertices are mutually within distance 2 iff their profiles are
    incomparable under inclusion, so the chosen profiles form an antichain
    (all witnesses for such pairs live outside L);
  * an ordered pair outside L that the block leaves unsatisfied needs some
    chosen profile to route it (out-bit clear at the source, set at the
    target) -- a covering constraint.

Profile sets are integers with one bit per profile code.  Per number m of
vertices outside L, one table holds the supersets of every code.  A profile
holding a vertex a and all of its out-neighbors leaves a no route back, and
one missing a and all of its in-neighbors has no route to a: its complement
holds a and all of a's out-neighbors on the reversed block.  So a block's
infeasible profiles are m ORed table entries, plus the bit-reversal of m
more (reversing a 2^m-bit set complements every code in it), and the
routers of a cover pair are one AND.
Chosen profiles are explored in ascending code order, which doubles as the
row-ordering symmetry break inside L.  The kernel keeps its candidate set as
one such integer: the antichain is a clique of the incomparability graph,
so a child's candidates are the parent's ANDed with the later profiles
incomparable to the one just chosen.  An antichain meets a chain at most
once, so each kernel call first counts the chains of the symmetric chain
decomposition of all m-bit codes that the feasible profiles meet: with
fewer than q, the block is out with no matching at all.  Otherwise it splits
the feasible profiles into the fewest chains under inclusion, by a maximum
matching of profiles to strict supersets read from the superset table
(Dilworth's theorem by Fulkerson's construction), seeded with the links
along the symmetric chains; a block with fewer chains than q is out at once.
A node is pruned when fewer chains meet its candidates than profiles are
still needed (the colouring bound of bit-parallel max-clique, read on the
incomparability graph, whose colour classes are chains), or when some cover
pair's routers miss both the chosen profiles and the candidates.
Blocks run in ascending code order over the least code of each orbit under
part-internal relabelings and global arc reversal (every code with symmetry
breaking off).  The orbits are flooded over the quotient by the block's
largest part: its vertices' code bits towards the rest of the block, sorted,
stand for all their relabelings, so the flood visits multisets of those
keys instead of every code.  The verdict is sound both ways: Exists
re-validates its witness with the exact diameter routine, and None means
every block orientation was enumerated or is the image of an enumerated
one.  With a size-3 part outside L, cases_enumerated holds the canonical
cases of the blocks explored: all blocks for None, those up to the witness
for Exists.

Brute-force oracles over full orientation spaces back the decision
procedure on every topology small enough to enumerate.  They are bit-sliced:
one integer per ordered vertex pair holds, one bit per edge code of a
2^16-code chunk, whether the pair is joined within k steps, so each BFS
level serves every orientation of the chunk at once, and the codes of
diameter <= k are the AND over all pairs.  Every orientation an oracle
returns is re-measured by the exact BFS routine.  Results come in the order
of a count-down over edge codes from all ones.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass
from enum import Enum

from .graphcore import (
    INFINITE,
    GraphTopology,
    Orientation,
    OrientdiamError,
    _bit_members,
    _diameter_below,
    _is_int,
    _out_masks,
    diameter,
    make_complete_multipartite,
)

MAX_BLOCK_EDGES = 16
MAX_BLOCK_VERTICES = 10
BRUTE_FORCE_EDGE_CAP = 20
ENUMERATION_EDGE_CAP = 16
SLICE_WIDTH = 16  # edge-code bits the oracles evaluate at once


class SearchError(OrientdiamError):
    pass


class TooLarge(SearchError):
    pass


class TooManyEdges(SearchError):
    pass


class Verdict(Enum):
    EXISTS = "exists"
    NONE = "none"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class SearchConfig:
    node_budget: int = 1_000_000_000
    time_budget: float = 600.0
    symmetry_breaking: bool = True

    def __post_init__(self):
        # NaN fails every comparison, so it would never trip a budget
        if not (0 < self.node_budget < math.inf and 0 < self.time_budget < math.inf):
            raise SearchError(
                f"budgets must be positive and finite, got {self.node_budget} nodes"
                f" and {self.time_budget} seconds"
            )


@dataclass(frozen=True)
class SearchStats:
    nodes: int
    max_depth: int
    wall_time: float
    blocks_explored: int
    cases_enumerated: tuple[tuple[int, int, int], ...] = ()


@dataclass(frozen=True)
class SearchOutcome:
    verdict: Verdict
    witness: Orientation | None
    stats: SearchStats


def canonicalize_case(ijk, p: int) -> tuple[int, int, int]:
    """Least of the sorted case and its reversal (p-i, p-j, p-k), sorted."""
    direct = tuple(sorted(ijk))
    reversed_ = tuple(sorted(p - t for t in ijk))
    return min(direct, reversed_)


@functools.cache
def _supersets(m: int) -> tuple[int, ...]:
    """sup[c]: the supersets of code c over m bits, one 2^m-bit set.

    With low the least bit missing from c, the supersets of c are those of
    c | low and their images without low, a shift down by low.
    """
    full = (1 << m) - 1
    sup = [0] * (full + 1)
    sup[full] = 1 << full
    for c in range(full - 1, -1, -1):
        low = ~c & (c + 1)
        s = sup[c | low]
        sup[c] = s | s >> low
    return tuple(sup)


@functools.cache
def _symmetric_chains(m: int) -> tuple[int, ...]:
    """The chain of every m-bit code in the symmetric chain decomposition.

    Read bit i as "(" when set and ")" when clear, and match brackets.  The
    unmatched bits read ")...)(...(", and setting the last unmatched ")"
    keeps every pair matched, so the codes that share their matched bits form
    one chain, from all unmatched bits clear to all set, of sizes k to m - k
    (de Bruijn, van Ebbenhorst Tengbergen and Kruyswijk, 1951).  A chain is
    keyed by its least member, the code with its unmatched set bits cleared,
    and chains are numbered in ascending key order: C(m, m // 2) in all.
    """
    index: dict[int, int] = {}
    chain_of = []
    for c in range(1 << m):
        opened = 0  # set bits still waiting for a clear bit above them
        for i in range(m):
            if c >> i & 1:
                opened |= 1 << i
            elif opened:
                opened ^= 1 << opened.bit_length() - 1
        chain_of.append(index.setdefault(c & ~opened, len(index)))
    return tuple(chain_of)


class _BlockFrame:
    """Everything the per-block profile search for q profiles needs, precomputed.

    codes holds the feasible profile codes, one bit each (the kernel reads
    inclusion among them from the superset table), profiles lists them in
    ascending order, and routers[i] those that route cover pair i, (a, b):
    the ones without a that hold b.  With fewer than q feasible profiles the
    frame stops there: no pairs, no routers, not feasible.
    """

    __slots__ = ("bout", "codes", "profiles", "cover_pairs", "routers", "feasible")

    def __init__(self, m: int, bedges, bits: int, q: int):
        self.bout = bout = _out_masks(m, bedges, bits)
        bin_ = _out_masks(m, bedges, ~bits)  # the in-neighbors: every arc reversed
        sup = _supersets(m)
        full = (1 << m) - 1
        infeasible = mirrored = 0
        for a in range(m):
            # a profile holding a beats a, and a needs a two-step route back:
            # out if the profile holds all of bout[a].  One without a is
            # beaten by a and needs a two-step route to a: out if it holds
            # nothing of bin[a], that is, if its complement holds a and all
            # of bin[a] -- the first rule on the reversed block.
            infeasible |= sup[1 << a | bout[a]]
            mirrored |= sup[1 << a | bin_[a]]
        # complementing codes sends bit c to bit full ^ c = full - c: reverse the bits
        infeasible |= int(f"{mirrored:0{full + 1}b}"[::-1], 2)
        self.codes = codes = ~infeasible & ((2 << full) - 1)
        self.profiles = list(_bit_members(codes))
        if len(self.profiles) < q:
            self.cover_pairs, self.routers, self.feasible = [], [], False
            return
        # ordered pairs outside L that the block alone does not satisfy
        self.cover_pairs = []
        for a in range(m):
            reach = bout[a] | 1 << a
            for b in _bit_members(bout[a]):
                reach |= bout[b]
            self.cover_pairs.extend((a, b) for b in _bit_members(full & ~reach))
        self.routers = [codes & sup[1 << b] & ~sup[1 << a] for a, b in self.cover_pairs]
        self.feasible = all(self.routers)


class _Budget:
    __slots__ = ("node_budget", "deadline", "nodes", "max_depth", "exhausted")

    def __init__(self, cfg: SearchConfig, start: float):
        self.node_budget = cfg.node_budget
        self.deadline = start + cfg.time_budget
        self.nodes = 0
        self.max_depth = 0
        self.exhausted = False

    def tick(self, depth: int, timed: bool = False) -> bool:
        """Account one node; False, counting nothing, once the budget is gone.

        The clock is read on every timed tick and every 1,024 nodes.
        """
        nodes = self.nodes + 1
        if nodes > self.node_budget or (
            (timed or not nodes & 0x3FF) and time.monotonic() > self.deadline
        ):
            self.exhausted = True
            return False
        self.nodes = nodes
        if depth > self.max_depth:
            self.max_depth = depth
        return True


def _chain_partition(codes: int, m: int) -> list[int]:
    """A minimum chain partition under strict inclusion, one bit per code.

    The profiles are the members of codes, one bit per m-bit code.  A maximum
    matching of each profile to a strict superset in codes, read from the
    superset table, links them into |codes| - |matching| chains, the fewest
    possible (Fulkerson's proof of Dilworth's theorem).  The matching starts
    from the symmetric chains: each profile is matched to the next profile on
    its chain.  Kuhn's augmenting paths then run from the profiles left
    unmatched; a search that fails leaves the matching as it was, so the
    supersets it visited stay visited until the next augmentation.
    """
    symmetric = _symmetric_chains(m)
    sup = _supersets(m)
    pred = {}  # pred[j]: the profile matched to its superset j, or -1
    top: dict[int, int] = {}  # symmetric chain -> its largest profile so far
    for pr in _bit_members(codes):
        pred[pr] = top.get(symmetric[pr], -1)
        top[symmetric[pr]] = pr
    seen = 0
    for root in sorted(top.values()):
        path = [root]
        via: list[int] = []  # via[k]: the superset tried from path[k], held by path[k + 1]
        while path:
            avail = (sup[path[-1]] ^ 1 << path[-1]) & codes & ~seen
            if not avail:
                path.pop()
                if via:
                    via.pop()
                continue
            low = avail & -avail
            seen |= low
            j = low.bit_length() - 1
            via.append(j)
            if pred[j] < 0:
                for i, k in zip(path, via):
                    pred[k] = i
                seen = 0
                break
            path.append(pred[j])
    # pred[j] < j, so one ascending pass puts every profile on its chain
    chain_of = {}
    chains: list[int] = []
    for j, i in pred.items():
        if i < 0:
            chain_of[j] = len(chains)
            chains.append(0)
        else:
            chain_of[j] = chain_of[i]
        chains[chain_of[j]] |= 1 << j
    return chains


def _antichain_cover(frame: _BlockFrame, q: int, budget: _Budget):
    """Find q pairwise-incomparable feasible profiles hitting every cover pair.

    Profile sets hold codes, one bit each.  An antichain meets a chain at
    most once.  So a block whose profiles meet fewer than q symmetric chains
    is out at the root, before any matching; otherwise the feasible codes are
    split into a minimum chain partition, and a node is pruned when fewer
    than q - depth of its chains meet the node's candidates (at the root, all
    feasible codes: the poset is narrower than q, by Dilworth's theorem), or
    when some cover pair's router set misses both the picks and the candidates.
    Pruning only cuts subtrees without a solution, so the first antichain in
    ascending code order is found whatever the bound.
    """
    if not frame.feasible:
        return None
    m = len(frame.bout)
    symmetric = _symmetric_chains(m)
    if len({symmetric[pr] for pr in frame.profiles}) < q:
        budget.tick(0)
        return None
    codes, routers, sup = frame.codes, frame.routers, _supersets(m)
    chains = _chain_partition(codes, m)

    def extend(picked: int, cand: int):
        depth = picked.bit_count()
        if not budget.tick(depth):
            return None
        if depth == q:
            return list(_bit_members(picked)) if all(r & picked for r in routers) else None
        if sum(1 for chain in chains if chain & cand) < q - depth:
            return None
        reach = picked | cand
        if not all(r & reach for r in routers):
            return None
        for pr in _bit_members(cand):
            # the later profiles that do not contain pr, so incomparable to it
            found = extend(picked | 1 << pr, cand & -(2 << pr) & ~sup[pr])
            if found is not None or budget.exhausted:
                return found
        return None

    return extend(0, codes)


def _block_representatives(rest_parts, bedges, symmetry_breaking: bool):
    """Least code of every block orbit in ascending order (or every code).

    The orbits are those of relabelings inside each part and of global
    reversal, flooded over the quotient by the largest part P (the first on
    ties).  With O the other block vertices in ascending order, the key of a
    vertex of P holds its code bits towards O, bit i for O[i].  Relabelings
    inside P only permute keys, and towards each O[i] the later vertex of P
    owns the more significant slot, so the least code of such a sub-orbit
    lists the keys in non-increasing order along P.  A state is one
    sub-orbit: rest, the code bits of the slots off P, and that descending
    key tuple.  P's relabelings commute with every other generator, so the
    flood from a state reaches exactly the sub-orbits of its orbit, whose
    least code is the least state code.

    Global reversal flips rest and complements the keys, which reverses
    their order.  An adjacent transposition t <-> t+1 inside another part
    flips no arc, since every other endpoint lies below t or above t+1: it
    trades the bits of the slots of (t, c) and (t+1, c), one delta swap per
    slot distance, and so swaps key bits O.index(t) and O.index(t) + 1.
    """
    total = 1 << len(bedges)
    if not symmetry_breaking or not bedges:
        return list(range(total))
    big = max(range(len(rest_parts)), key=lambda i: (rest_parts[i], -i))
    p = rest_parts[big]
    lo = sum(rest_parts[:big])
    others = [v for v in range(sum(rest_parts)) if not lo <= v < lo + p]
    slot = {e: i for i, e in enumerate(bedges)}
    keys_full = (1 << len(others)) - 1
    spread = []  # spread[j][key]: the code bits of key on P's j-th vertex
    rest_full = total - 1
    for v in range(lo, lo + p):
        bit = [1 << slot[min(v, o), max(v, o)] for o in others]
        sp = [0] * (keys_full + 1)
        for key in range(1, keys_full + 1):
            sp[key] = sp[key & key - 1] | bit[(key & -key).bit_length() - 1]
        spread.append(sp)
        rest_full ^= sp[-1]
    moves = []  # per transposition outside P: delta swaps, and the key map
    for t in range(len(others) - 1):
        u = others[t]
        if others[t + 1] == u + 1 and (u, u + 1) not in slot:  # u, u+1 share a part
            masks = {}  # slot distance -> the lower slots off P
            for i, (a, b) in enumerate(bedges):
                if u in (a, b) and rest_full >> i & 1:
                    d = slot[(u + 1, b) if a == u else (a, u + 1)] - i
                    masks[d] = masks.get(d, 0) | 1 << i
            swap = [k ^ (k >> t ^ k >> t + 1) % 2 * (3 << t) for k in range(keys_full + 1)]
            moves.append((tuple(masks.items()), swap.__getitem__))

    seen = set()
    reps = []
    descending = range(keys_full, -1, -1)
    flip = descending.__getitem__  # key -> its complement
    rest0 = rest_full
    while True:
        for keys0 in itertools.combinations_with_replacement(descending, p):
            if (rest0, keys0) in seen:
                continue
            seen.add((rest0, keys0))
            stack = [(rest0, keys0)]
            least = total
            while stack:
                rest, keys = stack.pop()
                code = rest
                for sp, key in zip(spread, keys):
                    code |= sp[key]
                least = min(least, code)
                images = [(rest ^ rest_full, tuple(map(flip, reversed(keys))))]
                for swaps, swap in moves:
                    img = rest
                    for d, mask in swaps:
                        x = (img ^ img >> d) & mask
                        img ^= x | x << d
                    images.append((img, tuple(sorted(map(swap, keys), reverse=True))))
                for state in images:
                    if state not in seen:
                        seen.add(state)
                        stack.append(state)
            reps.append(least)
        if not rest0:
            break
        rest0 = rest0 - 1 & rest_full  # the next submask down
    reps.sort()
    return reps


def decide_diameter2(parts, cfg: SearchConfig | None = None) -> SearchOutcome:
    """Decide whether the complete multipartite graph admits a diameter-2 orientation.

    Exists comes with a witness whose diameter has been re-measured; None is
    exhaustive modulo the declared symmetry group; Unknown only ever means a
    budget ran out.  Supported sizes: the parts other than the largest must
    induce at most MAX_BLOCK_EDGES edges and MAX_BLOCK_VERTICES vertices.
    """
    if cfg is None:
        cfg = SearchConfig()
    topology = make_complete_multipartite(parts)
    start = time.monotonic()

    sizes = topology.parts
    big = max(range(len(sizes)), key=lambda i: (sizes[i], i))
    q = sizes[big]
    rest_parts = [sizes[i] for i in range(len(sizes)) if i != big]
    m = sum(rest_parts)
    if m > MAX_BLOCK_VERTICES:
        raise TooLarge(
            f"parts besides the largest span {m} vertices, cap is {MAX_BLOCK_VERTICES}"
        )
    # one part leaves an empty block, which has no topology
    bedges = make_complete_multipartite(rest_parts).edges() if rest_parts else []
    if len(bedges) > MAX_BLOCK_EDGES:
        raise TooLarge(
            f"parts besides the largest induce {len(bedges)} edges, cap is {MAX_BLOCK_EDGES}"
        )

    reps = _block_representatives(rest_parts, bedges, cfg.symmetry_breaking)
    budget = _Budget(cfg, start)
    cases_seen: set[tuple[int, int, int]] = set()
    # the case (i,j,k): out-degrees of the size-3 anchor part into the other part
    anchor = ()
    if len(rest_parts) == 2 and 3 in rest_parts:
        anchor = range(3) if rest_parts[0] == 3 else range(rest_parts[0], m)

    blocks_explored = 0
    witness = None
    # a whole block search can take fewer than 1,024 nodes, so every block
    # reads the clock, the first one right after orbit enumeration
    for bits in reps:
        if not budget.tick(0, timed=True):
            break
        blocks_explored += 1
        frame = _BlockFrame(m, bedges, bits, q)
        if anchor:
            ijk = tuple(frame.bout[x].bit_count() for x in anchor)
            cases_seen.add(canonicalize_case(ijk, m - 3))
        chosen = _antichain_cover(frame, q, budget)
        if budget.exhausted:
            break
        if chosen is not None:
            witness = _assemble_witness(topology, big, frame.bout, chosen)
            if not diameter(witness) <= 2:  # soundness gate; never expected to fire
                raise SearchError("internal error: candidate witness failed re-validation")
            break

    stats = SearchStats(
        nodes=budget.nodes,
        max_depth=budget.max_depth,
        wall_time=time.monotonic() - start,
        blocks_explored=blocks_explored,
        cases_enumerated=tuple(sorted(cases_seen)),
    )
    if witness is not None:
        return SearchOutcome(Verdict.EXISTS, witness, stats)
    if budget.exhausted:
        return SearchOutcome(Verdict.UNKNOWN, None, stats)
    return SearchOutcome(Verdict.NONE, None, stats)


def _assemble_witness(topology, big, bout, chosen_profiles) -> Orientation:
    """Lift a block orientation plus L-profiles back to global vertex ids.

    L holds the ids lo .. lo + q - 1, so lift opens a q-bit gap at lo in a
    block mask.  z_j points at the lift of its profile, and every block vertex
    outside that profile points at z_j: each edge gets exactly one direction.
    """
    lo, q = sum(topology.parts[:big]), topology.parts[big]

    def lift(mask: int) -> int:
        return mask & (1 << lo) - 1 | mask >> lo << lo + q

    out = [lift(mask) for mask in bout]
    for j, profile in enumerate(chosen_profiles):
        for a in _bit_members((1 << len(bout)) - 1 & ~profile):
            out[a] |= 1 << lo + j
    out[lo:lo] = map(lift, chosen_profiles)
    return Orientation(topology, tuple(out))


# ---------------------------------------------------------------------------
# Brute-force oracles.
# ---------------------------------------------------------------------------

@functools.cache
def _slice_variables(w: int) -> tuple[int, ...]:
    """var[i]: the 2^w-bit set of slice codes c with bit i of c set."""
    full = (1 << (1 << w)) - 1
    return tuple(full // ((1 << (2 << i)) - 1) * ((1 << (1 << i)) - 1 << (1 << i))
                 for i in range(w))


def _diameter_levels(n: int, edges, w: int, high: int):
    """Yield (k, codes of diameter <= k) for k = 1, 2, ... over one chunk.

    The chunk is every edge code (high << w) | c with c below 2^w.  A set of
    codes is one 2^w-bit integer, bit c for code (high << w) | c, and
    rows[u][v] holds the codes under which u reaches v within k steps.  Edge
    i of the slice runs low -> high under the codes of var[i], the reverse
    arc under the others; an edge above the slice has one fixed direction.
    Each level extends every route by one arc; the levels stop once none
    grows, since later sets would repeat the last one.
    """
    full = (1 << (1 << w)) - 1
    var = _slice_variables(w)
    into: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # (tail, codes of the arc)
    for i, (a, b) in enumerate(edges):
        fwd = var[i] if i < w else full * (high >> (i - w) & 1)
        for tail, head, codes in ((a, b, fwd), (b, a, full ^ fwd)):
            if codes:
                into[head].append((tail, codes))
    rows = [[full * (u == v) for v in range(n)] for u in range(n)]
    k = 0
    while True:
        nxt = []
        for row in rows:
            new = []
            for v, arcs in enumerate(into):
                reach = row[v]
                for mid, codes in arcs:
                    reach |= row[mid] & codes
                new.append(reach)
            nxt.append(new)
        if nxt == rows:
            return
        rows = nxt
        k += 1
        ok = full
        for row in rows:
            for reach in row:
                ok &= reach
        yield k, ok


def _revalidate(n: int, edges, code: int, d: int) -> list[int]:
    """Out-masks of the orientation of edge code `code`, re-measured by BFS at diameter d."""
    out = _out_masks(n, edges, code)
    if _diameter_below(out, d + 1) != d:  # soundness gate; never expected to fire
        raise SearchError(f"internal error: edge code {code} failed re-validation at diameter {d}")
    return out


def brute_force_min_diameter(topology: GraphTopology):
    """Minimum diameter over all strong orientations, by full enumeration.

    Returns INFINITE when no orientation is strong (bridged inputs).  Capped
    at BRUTE_FORCE_EDGE_CAP edges.
    """
    if topology.n_edges > BRUTE_FORCE_EDGE_CAP:
        raise TooManyEdges(
            f"{topology.n_edges} edges exceed the cap of {BRUTE_FORCE_EDGE_CAP} edges")
    n = topology.n_vertices
    if n == 1:
        return 0
    if topology.n_edges < n:  # a strong orientation needs an arc into every vertex
        return INFINITE
    edges = topology.edges()
    w = min(len(edges), SLICE_WIDTH)
    best = INFINITE
    code = None
    for high in range((1 << (len(edges) - w)) - 1, -1, -1):
        for k, ok in _diameter_levels(n, edges, w, high):
            if k >= best:
                break
            if ok:
                best, code = k, high << w | ok.bit_length() - 1
                break
        if best <= 2:
            break  # nothing beats 2 on two or more vertices
    if code is not None:
        _revalidate(n, edges, code, best)
    return best


def enumerate_diameter2(topology: GraphTopology, limit: int | None = None):
    """All orientations of diameter exactly 2, or the first `limit` of them.

    Edge codes (the graphcore convention) run down from all ones, so output
    order is deterministic.  Capped at ENUMERATION_EDGE_CAP edges; a limit
    must be an int of at least 1.
    """
    if limit is not None and not (_is_int(limit) and limit >= 1):
        raise SearchError(f"limit must be an integer of at least 1, got {limit!r}")
    if topology.n_edges > ENUMERATION_EDGE_CAP:
        raise TooManyEdges(
            f"{topology.n_edges} edges exceed the cap of {ENUMERATION_EDGE_CAP} edges")
    n = topology.n_vertices
    if topology.n_edges < n:  # too few arcs for every vertex to have one in
        return []
    edges = topology.edges()
    # the cap keeps every edge inside the slice: one chunk
    codes = next((ok for k, ok in _diameter_levels(n, edges, len(edges), 0) if k == 2), 0)
    found = []
    while codes and (limit is None or len(found) < limit):
        code = codes.bit_length() - 1
        codes ^= 1 << code
        out = _revalidate(n, edges, code, 2)
        found.append(Orientation(topology=topology, out_adj=tuple(out)))
    return found
