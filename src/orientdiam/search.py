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

Profile sets are integers with one bit per profile code, each an AND of
slice variables (var[i], the codes holding vertex i) from one helper that
ANDs a family of sets over every subset.  The supersets of c are the AND of
var[i] over c's bits, and the codes holding no vertex of s the AND of the
complements over s.  A profile holding a vertex a and all of its
out-neighbors leaves a no route back, and one holding none of a and its
in-neighbors has no route to a.  Both rules read only the arcs at a, so one
table per block shape, built once, maps each setting of each vertex a's
edge slots to a's out-mask and the profiles a rules out: sum over a of
2^deg(a) entries, 544 for the widest in-cap shape, (2,8).  A block's
infeasible profiles are then m ORed lookups, and the routers of a cover
pair (a, b) are its feasible codes & var[b] & ~var[a].
Chosen profiles are explored in ascending code order, which doubles as the
row-ordering symmetry break inside L.  The kernel keeps its candidate set as
one such integer: the antichain is a clique of the incomparability graph,
so a child's candidates are the parent's ANDed with the later profiles
incomparable to the one just chosen.  An antichain meets a chain at most
once, so a block's frame runs every root test, in this order: at least q
feasible profiles, a chain bound of at least q (the fewest chains that the
profiles meet in the symmetric chain decomposition of all m-bit codes or
in its mirror on bit-reversed codes), at least q chains in the fewest that
split the feasible profiles under inclusion, and a router for every cover
pair.  The width test is a maximum matching of profiles to strict supersets
read from the superset table (Dilworth's theorem by Fulkerson's
construction), seeded with the links along the symmetric chains; each
augmentation joins two chains, so the matching stops at the first partition
into fewer than q, and a block it closes lists no cover pair.  The kernel
searches only the blocks that pass all four, so its None means a searched
block.
A node is pruned when fewer of the frame's chains meet its candidates than
profiles are still needed (the colouring bound of bit-parallel
max-clique, read on the incomparability graph, whose colour classes are
chains), or when some cover pair's routers miss both the chosen profiles
and the candidates.  Each block costs one node, whichever test closes it,
and each kernel search node one more.
Blocks run in ascending code order over the least code of each orbit under
part-internal relabelings and global arc reversal.  They do not depend on q,
and nor does any root test but its comparison with q, so each block shape's
list is cached per process with one reading per representative, an empty
shell over the shape's table and the block's code.  Frames alone fill it:
the feasible profiles, then the chain bound, then the chains (or the q a
matching stopped at), then the cover pairs and routers, each stage the
first time some q passes the stage before.  A later decide of the shape at
any q floods no orbits and refills no stage; its frames compare readings
with q, and run again only a matching that stopped above their q.  The
orbits are flooded
over the quotient by the block's largest part: its vertices' code bits
towards the rest of the block, sorted, stand for all their relabelings, so
the flood visits multisets of those keys instead of every code.  Each such
state is one int, the rest bits plus a count per key, on which every
generator is an XOR and delta swaps; the states are swept in ascending code
order, so the first state of each orbit the sweep meets holds its least code.
With symmetry breaking off every code is a block, and the frame's chain
bound runs bit-sliced, counting both decompositions in one pass over all
codes (8 KiB sets at the 16-edge cap), as in the oracles below: pr is
ruled out at a iff every edge between a and the other side of pr runs into
pr, an AND over those arcs, and a chain is met under the codes that leave
one of its profiles feasible.  Every live code gets a frame on a fresh
shell over the table, kept by nothing, whose bound is the q the pass has
proved, so no frame recounts it; the frame runs the rest of the root tests:
the width first, then routing for a code the width passes.  A block is
charged by its position in explored order, so a code the bound closes costs
its one block node with no frame.  The explored codes are a prefix of all
codes, so their cases come from the two halves of the case table at once:
every low half with each complete high row, then the rest of the last row.
The verdict is sound both ways: Exists re-validates its witness with the
exact diameter routine, and None means every block orientation was
enumerated or is the image of an enumerated one.  With a size-3 part outside
L, cases_enumerated holds the canonical cases of the blocks explored: all
blocks for None, those up to the witness for Exists.

Brute-force oracles over full orientation spaces back the decision
procedure on every topology small enough to enumerate.  They are bit-sliced:
one 2^E-bit integer per ordered vertex pair holds, one bit per edge code,
whether the pair is joined within k steps, so each BFS level serves every
orientation at once, and the codes of diameter <= k are the AND over all
pairs.  At the 20-edge cap that is n^2 sets of 128 KB: K(2,10) peaks near
45 MB.  Every orientation an oracle returns is re-measured by the exact
BFS routine.  Results come in the order of a count-down over edge codes from
all ones.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from collections import namedtuple
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


# records are named tuples: fields by name and by position, _asdict() for a
# dict, and no per-class exec when the module loads
class SearchConfig(namedtuple("SearchConfig", "node_budget time_budget symmetry_breaking",
                              defaults=(1_000_000_000, 600.0, True))):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        # NaN fails every comparison, so it would never trip a budget; bool
        # is an int, so True would read as one node or one second
        nodes, seconds = self.node_budget, self.time_budget
        typed = _is_int(nodes) and isinstance(seconds, (int, float)) and not isinstance(seconds, bool)
        if not (typed and 0 < nodes and 0 < seconds < math.inf):
            raise SearchError(
                "budgets must be positive and finite, a whole number of nodes and a number"
                f" of seconds, got {nodes!r} nodes and {seconds!r} seconds"
            )
        if not isinstance(self.symmetry_breaking, bool):
            raise SearchError(
                f"symmetry_breaking must be True or False, got {self.symmetry_breaking!r}")
        return self

    @classmethod
    def _make(cls, iterable):
        # namedtuple's own _make, which _replace calls, skips __new__
        return cls(*iterable)


SearchStats = namedtuple("SearchStats", "nodes max_depth wall_time blocks_explored cases_enumerated",
                         defaults=((),))
SearchOutcome = namedtuple("SearchOutcome", "verdict witness stats")


def _config(cfg) -> SearchConfig:
    """cfg itself, or the default SearchConfig for None; anything else is refused."""
    if not isinstance(cfg, (SearchConfig, type(None))):
        raise SearchError(f"cfg must be a SearchConfig or None, got {type(cfg).__name__}")
    return cfg or SearchConfig()


def canonicalize_case(ijk, p: int) -> tuple[int, int, int]:
    """Least of the sorted case and its reversal (p-i, p-j, p-k), sorted."""
    direct = tuple(sorted(ijk))
    reversed_ = tuple(sorted(p - t for t in ijk))
    return min(direct, reversed_)


@functools.cache
def _slice_variables(w: int) -> tuple[int, ...]:
    """var[i]: the 2^w-bit set of slice codes c with bit i of c set."""
    var = []
    for i in range(w):
        bits, span = (1 << (1 << i)) - 1 << (1 << i), 2 << i  # 2^i clear, then 2^i set
        while span < 1 << w:  # doubling the period keeps this linear in the 2^w bits
            bits |= bits << span
            span <<= 1
        var.append(bits)
    return tuple(var)


def _ands(full: int, family) -> dict[int, int]:
    """ands[s]: the AND of x over the pairs (i, x) of family with bit i in s,
    for every mask s of the family's bits (full for s = 0).  Each pair
    doubles the dict, so with the bits ascending along family, the keys do."""
    ands = {0: full}
    for i, x in family:
        ands.update([(s | 1 << i, y & x) for s, y in ands.items()])
    return ands


@functools.cache
def _supersets(m: int) -> tuple[int, ...]:
    """sup[c]: the supersets of code c over m bits, one 2^m-bit set, the
    AND of the slice variables of c's bits."""
    return tuple(_ands((1 << (1 << m)) - 1, enumerate(_slice_variables(m))).values())


@functools.cache
def _symmetric_chains(m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The chain of every m-bit code in two symmetric chain decompositions,
    plain and mirrored.

    Read bit i as "(" when set and ")" when clear, and match brackets.  The
    unmatched bits read ")...)(...(", and setting the last unmatched ")"
    keeps every pair matched, so the codes that share their matched bits form
    one chain, from all unmatched bits clear to all set, of sizes k to m - k
    (de Bruijn, van Ebbenhorst Tengbergen and Kruyswijk, 1951).  A chain is
    keyed by its least member, the code with its unmatched set bits cleared,
    and chains are numbered in ascending key order: C(m, m // 2) in all.
    Reversing the bit order is an automorphism of the codes under inclusion,
    so mirrored, the plain chain of every code's bit reversal, is a second
    such decomposition.
    """
    index: dict[int, int] = {}
    plain = []
    for c in range(1 << m):
        opened = 0  # set bits still waiting for a clear bit above them
        for i in range(m):
            if c >> i & 1:
                opened |= 1 << i
            elif opened:
                opened ^= 1 << opened.bit_length() - 1
        plain.append(index.setdefault(c & ~opened, len(index)))
    mirrored = [plain[int(f"{c:0{m}b}"[::-1], 2)] for c in range(1 << m)]
    return tuple(plain), tuple(mirrored)


@functools.cache
def _vertex_tables(m: int, bedges: tuple) -> tuple:
    """Per block shape, per vertex a: the mask of a's edge slots and a's
    table, which maps every code masked to them to a's out-mask and the
    profiles that the two rules of the module docstring rule out at a (sum
    over a of 2^deg(a) entries)."""
    full = (1 << (1 << m)) - 1
    sup = _supersets(m)
    # none[s]: the codes holding no vertex of s
    none = _ands(full, [(i, full ^ x) for i, x in enumerate(_slice_variables(m))])
    tables = []
    for a in range(m):
        # edge i = (x, y), x < y, runs x -> y under bit i: it leaves a iff its
        # bit is set where a = x, clear where a = y
        slots = [(i, 1 << x + y - a) for i, (x, y) in enumerate(bedges) if a in (x, y)]
        mask = sum(1 << i for i, _ in slots)
        low = sum(1 << i for i, (x, _) in enumerate(bedges) if x == a)
        nbrs = sum(b for _, b in slots)
        # away[s]: a's neighbours at the far end of no slot of s; the code
        # whose arcs leave a on exactly the slots s reads mask ^ low ^ s on
        # them, and away[s] holds its in-neighbours
        away = _ands(nbrs, [(i, nbrs ^ b) for i, b in slots])
        table = {}
        for s, ins in away.items():
            out = nbrs ^ ins
            table[mask ^ low ^ s] = out, sup[1 << a | out] | none[1 << a | ins]
        tables.append((mask, table))
    return tuple(tables)


class _Reading:
    """Every root test of one block but its comparisons with q: a shell over
    the shape's _vertex_tables and the block's code that only frames fill, in
    stages, each once some q needs it; profiles, bound, stop, chains and
    routers stay None until then.  read() looks bout and the infeasible
    profiles up, one per vertex on the code masked to its edge slots.  codes
    holds the feasible profile codes, one bit each (the kernel reads
    inclusion among them from the superset table), and profiles lists them in
    ascending order.  bound is the chain bound: the fewest chains that the
    profiles meet in either symmetric chain decomposition, so no antichain of
    them is larger.  chain_bound() counts it; a reading built with a bound,
    the q that a bit-sliced pass has proved the chain bound reaches, holds
    that floor instead and is never counted.  width_at_least(q) runs the
    matching with its stop at q:
    stop is the least q at which a matching stopped, so the width is below
    every q from it up, and chains holds a minimum chain partition of the
    profiles once a matching ran to its end.  route() lists cover_pairs, the
    ordered pairs outside L that the block alone leaves unsatisfied, and
    routers[i], codes & var[b] & ~var[a], the profiles that route pair i,
    (a, b): the ones without a that hold b; routed says every pair has one.
    """

    __slots__ = ("tables", "bits", "bout", "codes", "profiles", "bound", "stop",
                 "chains", "cover_pairs", "routers", "routed")

    def __init__(self, tables: tuple, bits: int, bound: int | None = None):
        self.tables, self.bits, self.bound = tables, bits, bound
        # until read(), width_at_least() and route()
        self.profiles = self.stop = self.chains = self.routers = None

    def read(self):
        self.bout = bout = []
        infeasible = 0
        for mask, table in self.tables:
            out, ruled = table[self.bits & mask]
            bout.append(out)
            infeasible |= ruled
        self.codes = codes = ~infeasible & (1 << (1 << len(bout))) - 1
        self.profiles = list(_bit_members(codes))

    def chain_bound(self) -> int:
        self.bound = min(len({chain_of[pr] for pr in self.profiles})
                         for chain_of in _symmetric_chains(len(self.bout)))
        return self.bound

    def width_at_least(self, q: int) -> bool:
        if self.chains is None and (self.stop is None or q < self.stop):
            self.chains = _chain_partition(self.codes, len(self.bout), q)
            if self.chains is None:
                self.stop = q
        return self.chains is not None and len(self.chains) >= q

    def route(self):
        bout, codes = self.bout, self.codes
        full, var = (1 << len(bout)) - 1, _slice_variables(len(bout))
        pairs, routers = [], []
        for a, out in enumerate(bout):
            reach = out | 1 << a
            for b in _bit_members(out):
                reach |= bout[b]
            for b in _bit_members(full & ~reach):
                pairs.append((a, b))
                routers.append(codes & var[b] & ~var[a])
        self.routed = all(routers)
        # routers last: a route() cut short leaves the reading unrouted
        self.cover_pairs, self.routers = pairs, routers


class _BlockFrame:
    """A block's reading tested at q: everything the per-block profile search
    for q profiles needs, and the outcome of every root test.

    The block is feasible iff it has at least q feasible profiles, its chain
    bound is at least q (an antichain meets a chain at most once), its
    profiles split into no fewer than q chains (Dilworth's theorem), and
    every cover pair has a router.  The tests run in that order, stop at the
    first that fails and fill each stage of the reading that they reach and
    no frame has filled; chains, cover pairs and routers are listed only past
    the width test, and all three stay empty otherwise.
    """

    __slots__ = ("bout", "codes", "profiles", "cover_pairs", "routers", "chains", "feasible")

    def __init__(self, reading: _Reading, q: int):
        if reading.profiles is None:
            reading.read()
        self.bout, self.codes, self.profiles = reading.bout, reading.codes, reading.profiles
        self.cover_pairs, self.routers, self.chains = [], [], []
        bound = reading.bound
        self.feasible = (len(self.profiles) >= q
                         and (reading.chain_bound() if bound is None else bound) >= q
                         and reading.width_at_least(q))
        if self.feasible:
            if reading.routers is None:
                reading.route()
            self.cover_pairs, self.routers, self.chains = (
                reading.cover_pairs, reading.routers, reading.chains)
            self.feasible = reading.routed


class _Budget:
    __slots__ = ("node_budget", "deadline", "nodes", "max_depth", "exhausted")

    def __init__(self, cfg: SearchConfig, start: float):
        self.node_budget = cfg.node_budget
        self.deadline = start + cfg.time_budget
        self.nodes = 0
        self.max_depth = 0
        self.exhausted = False

    def tick(self, depth: int) -> bool:
        """Account one kernel node; False, counting nothing, once the budget is
        gone.  The clock is read every 1,024 nodes."""
        nodes = self.nodes + 1
        if nodes > self.node_budget or not nodes & 0x3FF and time.monotonic() > self.deadline:
            self.exhausted = True
            return False
        self.nodes = nodes
        if depth > self.max_depth:
            self.max_depth = depth
        return True

    def blocks(self, count: int) -> int:
        """Account count blocks, one depth-0 node each, on one clock read: a
        framed block with the closed ones before it, or the closed ones after
        the last frame.  The number that fit, fewer once the budget is gone."""
        fit = 0 if time.monotonic() > self.deadline else min(count, self.node_budget - self.nodes)
        self.nodes += fit
        if fit < count:
            self.exhausted = True
        return fit


def _chain_partition(codes: int, m: int, q: int = 0) -> list[int] | None:
    """A minimum chain partition under strict inclusion, one bit per code, or
    None once a partition into fewer than q chains turns up.

    The profiles are the members of codes, one bit per m-bit code.  A maximum
    matching of each profile to a strict superset in codes, read from the
    superset table, links them into |codes| - |matching| chains, the fewest
    possible (Fulkerson's proof of Dilworth's theorem).  The matching starts
    from the symmetric chains: each profile is matched to the next profile on
    its chain.  Kuhn's augmenting paths then run from the profiles left
    unmatched; a search that fails leaves the matching as it was, so the
    supersets it visited stay visited until the next augmentation.  Each
    augmentation joins two chains, and the run stops as soon as fewer than q
    are left, so None says no q profiles are pairwise incomparable; a run
    that reaches its end returns the same list at every q.
    """
    symmetric = _symmetric_chains(m)[0]
    sup = _supersets(m)
    pred = {}  # pred[j]: the profile matched to its superset j, or -1
    top: dict[int, int] = {}  # symmetric chain -> its largest profile so far
    for pr in _bit_members(codes):
        pred[pr] = top.get(symmetric[pr], -1)
        top[symmetric[pr]] = pr
    count = len(top)  # the chains the matching so far links the profiles into
    if count < q:
        return None
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
                count -= 1
                if count < q:
                    return None
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

    Profile sets hold codes, one bit each.  A block that fails a root test
    of its frame is out without a node, so None costs a node only for a
    searched block.  A node is pruned when fewer than q - depth of the
    frame's chains meet the node's candidates, or when some cover pair's
    router set misses both the picks and the candidates.  Pruning only cuts
    subtrees without a solution, so the first antichain in ascending code
    order is found whatever the bound.
    """
    if not frame.feasible:
        return None
    routers, chains, sup = frame.routers, frame.chains, _supersets(len(frame.bout))

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

    return extend(0, frame.codes)


def _block_representatives(rest_parts, bedges):
    """Least code of every block orbit in ascending order.

    The orbits are those of relabelings inside each part and of global
    reversal, flooded over the quotient by the largest part P (the first on
    ties).  With O the other block vertices in ascending order, the key of a
    vertex of P holds its code bits towards O, bit i for O[i].  Relabelings
    inside P only permute keys, and towards each O[i] the later vertex of P
    owns the more significant slot, so the least code of such a sub-orbit
    lists the keys in non-increasing order along P.  A state is one
    sub-orbit, packed into one int: rest, the code bits of the slots off P,
    in the low E bits, then the count of each key in its own w-bit field
    (w = p.bit_length()), then the same counts indexed by the complemented
    key.  P's relabelings commute with every other generator, so the flood
    from a state reaches exactly the sub-orbits of its orbit.

    Every generator is an XOR mask plus delta swaps.  Global reversal XORs
    rest and complements every key, which swaps the two count blocks.  An
    adjacent transposition t <-> t+1 inside another part flips no arc, since
    every other endpoint lies below t or above t+1: it trades the bits of
    the slots of (t, c) and (t+1, c), one delta swap per slot distance, and
    swaps key bits i = O.index(t) and i + 1, which trades the count of each
    key reading 1 and 0 there with that of the key 2^i above it, at distance
    w << i.  A rest swap and a count swap of one distance share a mask.
    Reversal commutes with the transpositions, so an orbit is the
    transpositions' flood from a state and from its reversal, and reversal
    runs once per orbit.

    Each state's code is summed once, along P, from per-vertex tables of
    every key's code bits and its two count units, and packed above the
    state in one int.  The states are swept in ascending order of those
    ints, so the first unseen state of each orbit holds its least code.
    """
    total = 1 << len(bedges)
    if not bedges:  # the empty block, a single code
        return [0]
    big = max(range(len(rest_parts)), key=lambda i: (rest_parts[i], -i))
    p = rest_parts[big]
    lo = sum(rest_parts[:big])
    others = [v for v in range(sum(rest_parts)) if not lo <= v < lo + p]
    slot = {e: i for i, e in enumerate(bedges)}
    n_keys = 1 << len(others)
    w = p.bit_length()
    base = len(bedges)  # the count of key k sits w * k bits above base
    half = w * n_keys  # and again half + w * ~k bits above it
    width = base + 2 * half
    rest_full = total - 1
    tables = []  # tables[j][key]: key's code bits on P's j-th vertex, packed above its count units
    for v in range(lo, lo + p):
        bit = [1 << slot[min(v, o), max(v, o)] for o in others]
        sp = [0] * n_keys
        for key in range(1, n_keys):
            sp[key] = sp[key & key - 1] | bit[(key & -key).bit_length() - 1]
        tables.append([c << width | 1 << base + w * k | 1 << base + half + w * (n_keys - 1 - k)
                       for k, c in enumerate(sp)])
        rest_full ^= sp[-1]
    field = (1 << w) - 1
    moves = []  # per transposition outside P: its delta swaps
    for t in range(len(others) - 1):
        u = others[t]
        if others[t + 1] == u + 1 and (u, u + 1) not in slot:  # u, u+1 share a part
            masks = {}  # distance -> the lower bits of each swapped pair
            for i, (a, b) in enumerate(bedges):
                if u in (a, b) and rest_full >> i & 1:
                    d = slot[(u + 1, b) if a == u else (a, u + 1)] - i
                    masks[d] = masks.get(d, 0) | 1 << i
            # keys reading 1 at bit t and 0 at bit t+1, in both count blocks
            counts = sum(field << base + w * k | field << base + half + w * k
                         for k in range(n_keys) if k >> t & 3 == 1)
            masks[w << t] = masks.get(w << t, 0) | counts
            moves.append(tuple(masks.items()))

    # sums[k]: the tables summed along P so far, one entry per non-increasing
    # key tuple that ends in k
    sums = [[c] for c in tables[0]]
    for table in tables[1:]:
        above = []
        for k in range(n_keys - 1, -1, -1):
            above += sums[k]
            sums[k] = [s + table[k] for s in above]
    entries = []
    rest = rest_full
    while True:  # every submask of rest_full, down to 0
        head = rest << width | rest
        for ending in sums:
            entries += [head + s for s in ending]
        if not rest:
            break
        rest = rest - 1 & rest_full
    entries.sort()

    state_full = (1 << width) - 1
    low_counts = (1 << half) - 1 << base
    seen = set()
    reps = []
    for entry in entries:
        state = entry & state_full
        if state in seen:
            continue
        reps.append(entry >> width)
        x = (state ^ state >> half) & low_counts
        stack = [state, state ^ rest_full ^ (x | x << half)]  # and its reversal
        seen.update(stack)
        while stack:
            cur = stack.pop()
            for swaps in moves:
                img = cur
                for d, mask in swaps:
                    x = (img ^ img >> d) & mask
                    img ^= x | x << d
                if img not in seen:
                    seen.add(img)
                    stack.append(img)
    return reps


class _Plan:
    """A block shape's orbit representatives in explored order, the canonical
    case of each (none unless the shape has a size-3 anchor), and a reading
    shell of each over the shape's vertex tables, left for frames to fill.
    _block_plan keeps one per shape and process: nothing in it depends on q,
    so every decide of the shape shares it."""

    __slots__ = ("reps", "cases", "readings")

    def __init__(self, rest_parts: tuple, bedges: tuple):
        m = sum(rest_parts)
        self.reps = tuple(_block_representatives(list(rest_parts), bedges))
        halves = _case_reader(rest_parts, bedges)
        packed = []
        if halves:
            split, low, high = halves
            packed = [low[c & (1 << split) - 1] + high[c >> split] for c in self.reps]
        canonical = {x: _canonical_case(x, m - 3) for x in set(packed)}
        self.cases = tuple(map(canonical.get, packed))
        tables = _vertex_tables(m, bedges)
        self.readings = [_Reading(tables, bits) for bits in self.reps]


_block_plan = functools.cache(_Plan)


@functools.cache
def _case_reader(rest_parts: tuple, bedges: tuple):
    """None unless the block is two parts, one of size 3; else how to read a
    block code's case, the out-degrees of the three anchors (the first size-3
    part) packed a byte each: setting edge i's bit moves an out-arc from its
    high end to its low end, so a code's case is low[its low split bits] +
    high[the rest], and (split, low, high) is returned."""
    if len(rest_parts) != 2 or 3 not in rest_parts:
        return None
    unit = {x: 1 << 8 * k for k, x in enumerate(
        range(3) if rest_parts[0] == 3 else range(rest_parts[0], sum(rest_parts)))}
    split = len(bedges) // 2
    low, high = [0], [sum(unit.get(b, 0) for a, b in bedges)]
    for i, (a, b) in enumerate(bedges):
        step, sums = unit.get(a, 0) - unit.get(b, 0), high if i >= split else low
        sums += [s + step for s in sums]
    return split, low, high


def _cases_below(halves, n: int) -> set[int]:
    """The packed cases of block codes 0 .. n - 1 from _case_reader's halves:
    each low entry plus the high entry of every row below n, then the row
    that n cuts short."""
    split, low, high = halves
    rows, rest = divmod(n, 1 << split)
    lows = set(low)
    cases = {x + y for y in set(high[:rows]) for x in lows}
    cases.update(x + high[rows] for x in low[:rest])
    return cases


def _canonical_case(packed: int, p: int) -> tuple[int, int, int]:
    """canonicalize_case of anchor out-degrees packed as _case_reader packs them."""
    return canonicalize_case((packed & 255, packed >> 8 & 255, packed >> 16), p)


def _live_codes(m: int, bedges: tuple, q: int) -> int:
    """Bit c: code c's chain bound is at least q, bit-sliced over every block
    code.  Every code whose frame at q is feasible is live, and a live code
    has at least q feasible profiles, one per chain met; routing is left to
    the frame, and the other codes close unframed.  Edge i runs low -> high
    under var[i].  A chain is met under the codes that leave one of its
    profiles feasible."""
    full, var = (1 << (1 << len(bedges))) - 1, _slice_variables(len(bedges))
    rules = []  # per a: its neighbours and the ANDs of its arcs in and out, by set of them
    for a in range(m):
        # edge i = (x, y), x < y, runs into a under var[i] where a = y
        into = [(x + y - a, var[i] if a == y else full ^ var[i])
                for i, (x, y) in enumerate(bedges) if a in (x, y)]
        rules.append((a, sum(1 << b for b, _ in into), _ands(full, into),
                      _ands(full, [(b, full ^ codes) for b, codes in into])))
    chains = _symmetric_chains(m)
    met = [[0] * math.comb(m, m // 2) for _ in chains]  # met[k][i]: codes meeting chain i
    for pr in range(1 << m):
        ruled = 0
        for a, nb, into, out in rules:
            ruled |= into[nb & ~pr] if pr >> a & 1 else out[nb & pr]
        for chain_of, met_k in zip(chains, met):
            met_k[chain_of[pr]] |= full ^ ruled
    return _at_least(q, met[0], full) & _at_least(q, met[1], full)


def _at_least(q: int, sets: list[int], full: int) -> int:
    """The codes of full that lie in at least q of sets, one bit per code.

    The sets are counted one per binary digit, from 2^d - q up, so a code's
    count carries out of its top digit once it reaches q; with 2^d above
    both q and len(sets), it carries out at most once.
    """
    if not q:
        return full
    d = max(q, len(sets)).bit_length()
    count = [full * ((1 << d) - q >> k & 1) for k in range(d)]
    reached = 0
    for carry in sets:
        for k, digit in enumerate(count):
            if not carry:
                break
            count[k], carry = digit ^ carry, digit & carry
        reached |= carry
    return reached


def decide_diameter2(parts, cfg: SearchConfig | None = None) -> SearchOutcome:
    """Decide whether the complete multipartite graph admits a diameter-2 orientation.

    Exists comes with a witness whose diameter has been re-measured; None is
    exhaustive modulo the declared symmetry group; Unknown only ever means a
    budget ran out.  Supported sizes: the parts other than the largest must
    induce at most MAX_BLOCK_EDGES edges and MAX_BLOCK_VERTICES vertices.
    """
    cfg = _config(cfg)
    topology = make_complete_multipartite(parts)
    start = time.monotonic()

    sizes = topology.parts
    big = max(range(len(sizes)), key=lambda i: (sizes[i], i))
    q = sizes[big]
    rest_parts = tuple(sizes[i] for i in range(len(sizes)) if i != big)
    m = sum(rest_parts)
    if m > MAX_BLOCK_VERTICES:
        raise TooLarge(
            f"parts besides the largest span {m} vertices, cap is {MAX_BLOCK_VERTICES}"
        )
    # one part leaves an empty block, which has no topology
    bedges = tuple(make_complete_multipartite(rest_parts).edges()) if rest_parts else ()
    if len(bedges) > MAX_BLOCK_EDGES:
        raise TooLarge(
            f"parts besides the largest induce {len(bedges)} edges, cap is {MAX_BLOCK_EDGES}"
        )

    # total: the block codes in explored order; blocks: (position, reading) per frame
    symmetric = cfg.symmetry_breaking
    if symmetric:
        plan = _block_plan(rest_parts, bedges)
        total, blocks = len(plan.reps), enumerate(plan.readings)
    else:
        # a live code's chain bound is proved at least q, so no frame recounts it
        total, tables = 1 << len(bedges), _vertex_tables(m, bedges)
        blocks = ((c, _Reading(tables, c, q)) for c in _bit_members(_live_codes(m, bedges, q)))
    budget = _Budget(cfg, start)
    blocks_explored = 0
    witness = None
    # a whole block search can take fewer than 1,024 nodes, so every charge
    # reads the clock: per framed block, with the closed codes before it, the
    # first right after orbit enumeration (or its cached result) or the root
    # pass, and, past the last frame, one for the closed codes after it
    for i, reading in blocks:
        blocks_explored += budget.blocks(i + 1 - blocks_explored)
        if budget.exhausted:
            break
        frame = _BlockFrame(reading, q)
        chosen = _antichain_cover(frame, q, budget)
        if budget.exhausted:
            break
        if chosen is not None:
            witness = _assemble_witness(topology, big, frame.bout, chosen)
            if not diameter(witness) <= 2:  # soundness gate; never expected to fire
                raise SearchError("internal error: candidate witness failed re-validation")
            break
    else:
        blocks_explored += budget.blocks(total - blocks_explored)

    # the case (i,j,k): out-degrees of the size-3 anchor part into the other part
    if symmetric:
        cases = set(plan.cases[:blocks_explored])
    else:
        halves = _case_reader(rest_parts, bedges)
        packed = _cases_below(halves, blocks_explored) if halves else ()
        cases = {_canonical_case(c, m - 3) for c in packed}
    stats = SearchStats(
        nodes=budget.nodes,
        max_depth=budget.max_depth,
        wall_time=time.monotonic() - start,
        blocks_explored=blocks_explored,
        cases_enumerated=tuple(sorted(cases)),
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

def _diameter_levels(n: int, edges):
    """Yield (k, codes of diameter <= k) for k = 1, 2, ... over every edge code.

    A set of codes is one 2^E-bit integer, bit c for edge code c, and
    rows[u][v] holds the codes under which u reaches v within k steps.  Edge
    i runs low -> high under the codes of var[i], the reverse arc under the
    others.  Each level extends every route by one arc; the levels stop once
    none grows, since later sets would repeat the last one.  A level
    replaces its rows one at a time, so n^2 sets are live, plus one row: at
    the 20-edge cap, K(2,10) holds 144 sets of 128 KB.
    """
    full = (1 << (1 << len(edges))) - 1
    into: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # (tail, codes of the arc)
    for (a, b), fwd in zip(edges, _slice_variables(len(edges))):
        into[b].append((a, fwd))
        into[a].append((b, full ^ fwd))
    rows = [[full * (u == v) for v in range(n)] for u in range(n)]
    for k in itertools.count(1):
        grew, ok = False, full
        for u, row in enumerate(rows):  # row u of the next level reads only row u
            new = []
            for arcs, reach in zip(into, row):
                for mid, codes in arcs:
                    reach |= row[mid] & codes
                new.append(reach)
                ok &= reach
            grew = grew or new != row
            rows[u] = new
        if not grew:
            return
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
    if not isinstance(topology, GraphTopology):
        raise SearchError(f"topology must be a GraphTopology, got {type(topology).__name__}")
    if topology.n_edges > BRUTE_FORCE_EDGE_CAP:
        raise TooManyEdges(
            f"{topology.n_edges} edges exceed the cap of {BRUTE_FORCE_EDGE_CAP} edges")
    n = topology.n_vertices
    if n == 1:
        return 0
    if topology.n_edges < n:  # a strong orientation needs an arc into every vertex
        return INFINITE
    edges = topology.edges()
    for k, ok in _diameter_levels(n, edges):
        if ok:  # the highest code of the first level that reaches every pair
            _revalidate(n, edges, ok.bit_length() - 1, k)
            return k
    return INFINITE


def enumerate_diameter2(topology: GraphTopology, limit: int | None = None):
    """All orientations of diameter exactly 2, or the first `limit` of them.

    Edge codes (the graphcore convention) run down from all ones, so output
    order is deterministic.  Capped at ENUMERATION_EDGE_CAP edges; a limit
    must be an int of at least 1.
    """
    if not isinstance(topology, GraphTopology):
        raise SearchError(f"topology must be a GraphTopology, got {type(topology).__name__}")
    if limit is not None and not (_is_int(limit) and limit >= 1):
        raise SearchError(f"limit must be an integer of at least 1, got {limit!r}")
    if topology.n_edges > ENUMERATION_EDGE_CAP:
        raise TooManyEdges(
            f"{topology.n_edges} edges exceed the cap of {ENUMERATION_EDGE_CAP} edges")
    n = topology.n_vertices
    if topology.n_edges < n:  # too few arcs for every vertex to have one in
        return []
    edges = topology.edges()
    codes = next((ok for k, ok in _diameter_levels(n, edges) if k == 2), 0)
    found = []
    while codes and (limit is None or len(found) < limit):
        code = codes.bit_length() - 1
        codes ^= 1 << code
        out = _revalidate(n, edges, code, 2)
        found.append(Orientation(topology=topology, out_adj=tuple(out)))
    return found
