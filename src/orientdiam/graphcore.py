"""Complete multipartite topologies, edge orientations, and exact diameters.

Vertices are numbered part-major: part 1 occupies indices [0, p1), part 2
the next p2 indices, and so on.  Two vertices are adjacent iff they lie in
different parts.  An orientation assigns exactly one direction to every
inter-part edge and is stored as one out-neighbor bitmask per vertex, which
keeps BFS frontiers and two-step reachability tests word-parallel.  An edge
code packs one into an integer: bit i set means sorted edge i of
topology.edges() runs low -> high.  _out_masks decodes an edge code and
_bit_members lists a mask's members, least first.

An orientation with an unreachable pair has diameter INFINITE, a true
sentinel (math.inf) rather than a large integer, so max-reductions never
overflow silently.
"""

from __future__ import annotations

import json
import math
import reprlib
from dataclasses import dataclass, field

INFINITE = math.inf

# Far above any graph the exact routines can handle; checked before any
# per-vertex table is allocated.
MAX_VERTICES = 4096


class OrientdiamError(ValueError):
    """Base class for every error the package raises on bad input."""


class GraphError(OrientdiamError):
    """Base class for topology and orientation construction errors."""


class EmptyParts(GraphError):
    pass


class ZeroPart(GraphError):
    pass


class SelfLoop(GraphError):
    pass


class IntraPartArc(GraphError):
    pass


class DoubleOrientation(GraphError):
    pass


class MissingEdge(GraphError):
    pass


class EmptyKeep(GraphError):
    pass


class TooManyVertices(GraphError):
    pass


class VertexOutOfRange(GraphError, IndexError):
    """A vertex id outside 0 .. n - 1; still an IndexError for callers that catch one."""


class ParseError(GraphError):
    """Malformed orientation JSON; carries line/column when available."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


@dataclass(frozen=True)
class GraphTopology:
    """A complete multipartite graph given by its part sizes."""

    parts: tuple[int, ...]
    part_of: tuple[int, ...] = field(compare=False)

    @property
    def n_vertices(self) -> int:
        return len(self.part_of)

    @property
    def n_edges(self) -> int:
        n = self.n_vertices
        return (n * n - sum(p * p for p in self.parts)) // 2

    def part_vertices(self, part_index: int) -> range:
        lo = sum(self.parts[:part_index])
        return range(lo, lo + self.parts[part_index])

    def adjacent(self, u: int, v: int) -> bool:
        return self.part_of[u] != self.part_of[v]

    def edges(self) -> list[tuple[int, int]]:
        """All inter-part edges (u, v) with u < v, lexicographically sorted."""
        n = self.n_vertices
        po = self.part_of
        return [(u, v) for u in range(n) for v in range(u + 1, n) if po[u] != po[v]]

    def vertex_name(self, v: int) -> str:
        """Human-readable name; tripartite graphs use the x/y/z convention."""
        pi = self.part_of[v]
        offset = v - sum(self.parts[:pi]) + 1
        if len(self.parts) <= 3:
            return f"{'xyz'[pi]}{offset}"
        return f"p{pi + 1}v{offset}"


def make_complete_multipartite(parts: list[int] | tuple[int, ...]) -> GraphTopology:
    """Build the canonical topology for the given part sizes."""
    parts = tuple(parts)
    for p in parts:
        if not _is_int(p):
            raise GraphError(f"part sizes must be integers, got {reprlib.repr(p)}")
    if not parts:
        raise EmptyParts("need at least one part")
    if any(p < 1 for p in parts):
        raise ZeroPart(f"all part sizes must be >= 1, got {parts}")
    if sum(parts) > MAX_VERTICES:
        raise TooManyVertices(f"{sum(parts)} vertices exceed the cap of {MAX_VERTICES}")
    part_of = []
    for i, p in enumerate(parts):
        part_of.extend([i] * p)
    return GraphTopology(parts=parts, part_of=tuple(part_of))


def _bit_members(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _out_masks(n: int, edges, bits: int) -> list[int]:
    """Out-neighbor masks of n vertices; edge i runs low -> high iff bit i is set."""
    out = [0] * n
    for i, (a, b) in enumerate(edges):
        if (bits >> i) & 1:
            out[a] |= 1 << b
        else:
            out[b] |= 1 << a
    return out


@dataclass(frozen=True)
class Orientation:
    """An orientation of a complete multipartite graph.

    out_adj[u] is the bitmask of decided out-neighbors of u.  v is an
    in-neighbor of u exactly when u is set in out_adj[v].  Instances are
    immutable and safe to share across threads.
    """

    topology: GraphTopology
    out_adj: tuple[int, ...]

    @property
    def n_vertices(self) -> int:
        return self.topology.n_vertices

    def in_adj(self) -> tuple[int, ...]:
        """Per-vertex bitmask of in-neighbors, derived from out_adj."""
        ins = [0] * self.n_vertices
        for u, mask in enumerate(self.out_adj):
            for v in _bit_members(mask):
                ins[v] |= 1 << u
        return tuple(ins)

    def arcs(self) -> list[tuple[int, int]]:
        """All arcs (u, v), lexicographically sorted."""
        return [(u, v) for u, mask in enumerate(self.out_adj) for v in _bit_members(mask)]


def orient(topology: GraphTopology, arcs) -> Orientation:
    """Validate an arc list and build the orientation it describes.

    Every inter-part edge must be covered exactly once, in exactly one
    direction; a missing edge is named as the first of topology.edges().
    """
    n = topology.n_vertices
    out = [0] * n
    for u, v in arcs:
        if not (_is_int(u) and _is_int(v)):
            raise GraphError(f"arc {reprlib.repr((u, v))} has a vertex id that is not an integer")
        if not (0 <= u < n and 0 <= v < n):
            raise VertexOutOfRange(f"arc ({u},{v}) out of range for {n} vertices")
        if u == v:
            raise SelfLoop(f"arc ({u},{v})")
        if not topology.adjacent(u, v):
            raise IntraPartArc(f"arc ({u},{v}) joins two vertices of part {topology.part_of[u] + 1}")
        if (out[u] >> v | out[v] >> u) & 1:
            raise DoubleOrientation(f"edge {{{min(u, v)},{max(u, v)}}} oriented more than once")
        out[u] |= 1 << v
    D = Orientation(topology=topology, out_adj=tuple(out))
    if sum(mask.bit_count() for mask in out) != topology.n_edges:
        ins = D.in_adj()
        end = 0
        for p in topology.parts:
            end += p
            for u in range(end - p, end):  # u's sorted edges lead past its part
                missing = ~(out[u] | ins[u]) >> end << end & (1 << n) - 1
                if missing:
                    v = (missing & -missing).bit_length() - 1
                    raise MissingEdge(f"edge {{{u},{v}}} has no orientation")
    return D


def _diameter_below(out, bound):
    """The diameter of the orientation with out-masks `out`, if it is < bound.

    out is one out-neighbor bitmask per vertex.  Returns None as soon as some
    distance reaches bound; an unreachable vertex counts as >= any bound.
    """
    n = len(out)
    full = (1 << n) - 1
    worst = 0
    for u in range(n):
        seen = 1 << u
        frontier = seen
        d = 0
        while frontier and seen != full:
            nxt = 0
            rem = frontier
            while rem:
                low = rem & -rem
                nxt |= out[low.bit_length() - 1]
                rem ^= low
            nxt &= ~seen
            if nxt:
                d += 1
                if d >= bound:
                    return None
            seen |= nxt
            frontier = nxt
        if seen != full:
            return None
        if d > worst:
            worst = d
    return worst


def diameter(D: Orientation):
    """Max distance over all ordered pairs; INFINITE iff not strongly connected."""
    d = _diameter_below(D.out_adj, INFINITE)
    return INFINITE if d is None else d


def has_diameter_at_most_2(D: Orientation) -> bool:
    """Specialized test: each ordered pair needs a direct arc or a 2-path.

    The independent diameter-<=2 check that tests and the benchmark hold
    witnesses to; it avoids BFS by checking out(u) against in(v) word-parallel.
    """
    n = D.n_vertices
    out = D.out_adj
    ins = D.in_adj()
    for u in range(n):
        ou = out[u]
        for v in range(n):
            if u == v or (ou >> v) & 1:
                continue
            if not (ou & ins[v]):
                return False
    return True


def induced_suborientation(D: Orientation, keep) -> Orientation:
    """Restrict D to a vertex set, dropping empty parts and re-indexing.

    The surviving parts keep their relative order, and new vertex i is the
    i-th smallest kept vertex.
    """
    keep = list(keep)
    if not all(_is_int(v) for v in keep):
        raise GraphError(f"keep set {reprlib.repr(keep)} has a vertex id that is not an integer")
    keep = sorted(set(keep))
    if not keep:
        raise EmptyKeep("cannot induce on the empty vertex set")
    n = D.n_vertices
    if keep[0] < 0 or keep[-1] >= n:
        raise VertexOutOfRange(f"keep set {keep} out of range for {n} vertices")
    po = D.topology.part_of
    new_parts = []
    for pi in range(len(D.topology.parts)):
        c = sum(1 for v in keep if po[v] == pi)
        if c:
            new_parts.append(c)
    sub = make_complete_multipartite(new_parts)
    remap = {v: i for i, v in enumerate(keep)}
    out = [0] * len(keep)
    for v in keep:
        for w in _bit_members(D.out_adj[v]):
            if w in remap:
                out[remap[v]] |= 1 << remap[w]
    return Orientation(topology=sub, out_adj=tuple(out))


# ---------------------------------------------------------------------------
# Serialization: canonical JSON and DOT.
# ---------------------------------------------------------------------------

def to_json_dict(D: Orientation) -> dict:
    """Canonical JSON document: parts plus lexicographically sorted arcs."""
    return {"parts": list(D.topology.parts), "arcs": [list(a) for a in D.arcs()]}


def stable_json_dumps(doc: dict) -> str:
    """Deterministic serialization so identical orientations round-trip byte-exact."""
    return json.dumps(doc, separators=(",", ":")) + "\n"


def dumps(D: Orientation, completion_log=None) -> str:
    doc = to_json_dict(D)
    if completion_log is not None:
        doc["completion_log"] = list(completion_log)
    return stable_json_dumps(doc)


def _is_int(value) -> bool:
    # JSON true/false decode to bool, which Python would read as 1/0
    return isinstance(value, int) and not isinstance(value, bool)


def from_json_dict(doc: dict) -> Orientation:
    if not isinstance(doc, dict) or "parts" not in doc or "arcs" not in doc:
        raise ParseError("orientation JSON must contain 'parts' and 'arcs'")
    parts, arcs = doc["parts"], doc["arcs"]
    if not isinstance(parts, list) or not all(_is_int(p) for p in parts):
        raise ParseError(f"'parts' must be a list of integers, got {reprlib.repr(parts)}")
    if not isinstance(arcs, list):
        raise ParseError(f"'arcs' must be a list of [u, v] pairs, got {reprlib.repr(arcs)}")
    topology = make_complete_multipartite(parts)
    n = topology.n_vertices
    for arc in arcs:
        if not (isinstance(arc, list) and len(arc) == 2
                and all(_is_int(x) and 0 <= x < n for x in arc)):
            raise ParseError(f"arc {reprlib.repr(arc)} is not a pair of vertex ids in 0..{n - 1}")
    return orient(topology, [tuple(a) for a in arcs])


def loads(text: str) -> Orientation:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    except (RecursionError, ValueError) as exc:  # nested too deep, or an overlong integer
        raise ParseError(str(exc)) from exc
    return from_json_dict(doc)


def to_dot(D: Orientation) -> str:
    """DOT digraph with one same-rank cluster per part."""
    topo = D.topology
    lines = ["digraph orientation {"]
    for pi in range(len(topo.parts)):
        names = "; ".join(topo.vertex_name(v) for v in topo.part_vertices(pi))
        lines.append(f"  subgraph cluster_part{pi + 1} {{ rank=same; {names}; }}")
    for u, v in D.arcs():
        lines.append(f"  {topo.vertex_name(u)} -> {topo.vertex_name(v)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
