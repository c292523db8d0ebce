"""DIMACS CNF encoding of "this graph has an orientation of diameter <= 2".

One boolean per inter-part edge: variable i + 1 is bit i of a graphcore edge
code (true = sorted edge i runs from its lower vertex to the higher).  For
every ordered vertex pair (u, v) there is one covering clause: either the
direct arc u -> v, or one of the auxiliary two-step variables a_{uwv}, each
defined by three Tseitin clauses as the conjunction (u -> w) and (w -> v),
with w ranging over the common neighbors of u and v.  Variables are numbered
edges first (lexicographic edge order), then auxiliaries grouped by ordered
pair, then the lexicographic symmetry-breaking prefix variables.

Symmetry breaking orders the arc-rows of consecutive vertices inside the
largest part only.  Rows of a single part mention no edges inside that part,
so relabeling the part permutes whole rows without touching their contents
and some satisfying assignment always survives the ordering.  Imposing the
same ordering on two parts at once is not sound: the directed 4-cycle on
K(2,2) has no labeling with both parts' rows sorted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphcore import Orientation, _out_masks, make_complete_multipartite


# well above K(3,7,70), about 188k; K(30,30,30) needs about 974k
MAX_CNF_CLAUSES = 500_000


class TooManyClauses(ValueError):
    pass


@dataclass(frozen=True)
class CnfStats:
    variables: int
    clauses: int
    edge_variables: int
    path_variables: int
    lex_variables: int


class _Builder:
    def __init__(self):
        self.n_vars = 0
        self.clauses: list[tuple[int, ...]] = []

    def new_var(self) -> int:
        self.n_vars += 1
        return self.n_vars

    def add(self, *lits: int):
        self.clauses.append(lits)


def _common_neighbors(topology, u, v):
    pu, pv = topology.part_of[u], topology.part_of[v]
    return [w for w in range(topology.n_vertices) if topology.part_of[w] not in (pu, pv)]


def _path_count(topology) -> int:
    """Two-step path variables: common neighbors summed over ordered pairs.

    From a vertex of a part of size p, the other p - 1 vertices of its part
    share n - p neighbors, and a vertex of another part of size r shares
    n - p - r; over all r that is (n - p)^2 minus the other parts' squares.
    """
    n = topology.n_vertices
    squares = sum(p * p for p in topology.parts)
    return sum(p * ((p - 1) * (n - p) + (n - p) ** 2 - (squares - p * p))
               for p in topology.parts)


def encode_diameter2(parts):
    """Build the clause list; returns (clauses, stats).

    Capped at MAX_CNF_CLAUSES covering and path clauses, checked before any
    edge or clause is built.
    """
    topology = make_complete_multipartite(parts)
    n = topology.n_vertices
    needed = 3 * _path_count(topology) + n * (n - 1)
    if needed > MAX_CNF_CLAUSES:
        raise TooManyClauses(f"K{topology.parts} needs {needed} covering and path clauses,"
                             f" cap is {MAX_CNF_CLAUSES}")
    b = _Builder()
    edge_var = {e: b.new_var() for e in topology.edges()}

    def arc_lit(u, v) -> int:
        # literal asserting the arc u -> v
        if u < v:
            return edge_var[(u, v)]
        return -edge_var[(v, u)]

    n_edge_vars = b.n_vars
    pending = []
    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            aux = []
            for w in _common_neighbors(topology, u, v):
                a = b.new_var()
                first, second = arc_lit(u, w), arc_lit(w, v)
                b.add(-a, first)
                b.add(-a, second)
                b.add(a, -first, -second)
                aux.append(a)
            cover = list(aux)
            if topology.adjacent(u, v):
                cover.append(arc_lit(u, v))
            pending.append(tuple(cover))
    for cover in pending:
        b.add(*cover)
    n_path_vars = b.n_vars - n_edge_vars

    # lex-order the rows of the largest part (ties resolved to the last one)
    sizes = topology.parts
    big = max(range(len(sizes)), key=lambda i: (sizes[i], i))
    columns = [w for w in range(n) if topology.part_of[w] != big]
    members = list(topology.part_vertices(big))
    for zu, zv in zip(members, members[1:]):
        _add_lex_leq(b, [arc_lit(zu, c) for c in columns], [arc_lit(zv, c) for c in columns])
    n_lex_vars = b.n_vars - n_edge_vars - n_path_vars

    stats = CnfStats(
        variables=b.n_vars,
        clauses=len(b.clauses),
        edge_variables=n_edge_vars,
        path_variables=n_path_vars,
        lex_variables=n_lex_vars,
    )
    return b.clauses, stats


def _add_lex_leq(b: _Builder, row_a, row_b):
    """Clauses forcing row_a <=lex row_b, via prefix-equality variables."""
    k = len(row_a)
    if k == 0:
        return
    b.add(-row_a[0], row_b[0])
    if k == 1:
        return
    # prefix[i] <-> rows agree on the first i+1 columns
    prev = b.new_var()
    b.add(-prev, -row_a[0], row_b[0])
    b.add(-prev, row_a[0], -row_b[0])
    b.add(prev, row_a[0], row_b[0])
    b.add(prev, -row_a[0], -row_b[0])
    for i in range(1, k - 1):
        b.add(-prev, -row_a[i], row_b[i])
        cur = b.new_var()
        b.add(-cur, prev)
        b.add(-cur, -row_a[i], row_b[i])
        b.add(-cur, row_a[i], -row_b[i])
        b.add(cur, -prev, row_a[i], row_b[i])
        b.add(cur, -prev, -row_a[i], -row_b[i])
        prev = cur
    b.add(-prev, -row_a[k - 1], row_b[k - 1])


def export_cnf(parts, out_path) -> CnfStats:
    """Write the DIMACS file; returns variable and clause counts."""
    clauses, stats = encode_diameter2(parts)
    lines = [
        f"c diameter-2 orientation of K{tuple(parts)}",
        "c edge variables first (lex edge order, true = low index -> high index),",
        "c then two-step path variables grouped by ordered pair, then lex-ordering prefixes",
        f"p cnf {stats.variables} {stats.clauses}",
    ]
    for clause in clauses:
        lines.append(" ".join(str(l) for l in clause) + " 0")
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return stats


def decode_model(parts, true_vars) -> Orientation:
    """Rebuild the orientation described by a satisfying assignment.

    true_vars is any collection of the variable indices assigned true; only
    the edge variables matter, read as the bits of an edge code.
    """
    topology = make_complete_multipartite(parts)
    truthy = set(true_vars)
    code = sum(1 << i for i in range(topology.n_edges) if i + 1 in truthy)
    return Orientation(topology, tuple(_out_masks(topology.n_vertices, topology.edges(), code)))
