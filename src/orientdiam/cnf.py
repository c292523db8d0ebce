"""DIMACS CNF encoding of "this graph has an orientation of diameter <= 2".

One boolean per inter-part edge: variable i + 1 is bit i of a graphcore edge
code (true = sorted edge i runs from its lower vertex to the higher).  For
every ordered vertex pair (u, v) there is one covering clause: either the
direct arc u -> v, or one of the auxiliary two-step variables a_{uwv}, each
defined by three Tseitin clauses as the conjunction (u -> w) and (w -> v),
with w ranging over the common neighbors of u and v.  Variables are numbered
in one pass: edges (lexicographic edge order), then path variables grouped by
ordered pair, then lexicographic symmetry-breaking prefixes.  Clauses come in
the same order, all covering clauses after all path clauses.  Every arc
literal is read from one n x n table built from the edge list, and the
common neighbors of each ordered pair of parts are listed once.  The DIMACS
writer formats each clause with a %-template cached per clause length.

Symmetry breaking orders the arc-rows of consecutive vertices inside the
largest part only.  Rows of a single part mention no edges inside that part,
so relabeling the part permutes whole rows without touching their contents
and some satisfying assignment always survives the ordering.  Imposing the
same ordering on two parts at once is not sound: the directed 4-cycle on
K(2,2) has no labeling with both parts' rows sorted.
"""

from __future__ import annotations

import os
import reprlib
from collections import namedtuple

from .graphcore import (
    GraphError,
    Orientation,
    OrientdiamError,
    _is_int,
    _listed,
    _out_masks,
    make_complete_multipartite,
)


# well above K(3,7,70), about 188k; K(30,30,30) needs about 964k
MAX_CNF_CLAUSES = 500_000


class TooManyClauses(OrientdiamError):
    pass


class BadOutPath(OrientdiamError):
    pass


CnfStats = namedtuple("CnfStats", "variables clauses edge_variables path_variables lex_variables")


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
    # lit[u][v] asserts the arc u -> v: edge variable i for sorted edge i - 1
    # low -> high, its negation high -> low, and 0 inside a part
    lit = [[0] * n for _ in range(n)]
    edges = topology.edges()
    for i, (u, v) in enumerate(edges, 1):
        lit[u][v], lit[v][u] = i, -i
    sizes, part_of = topology.parts, topology.part_of
    # the common neighbors of a vertex of part p and one of part r
    shared = [[[w for w in range(n) if part_of[w] != p and part_of[w] != r]
               for r in range(len(sizes))] for p in range(len(sizes))]
    n_vars = n_edge_vars = len(edges)
    clauses = []
    covers = []
    for u in range(n):
        lu, witnesses = lit[u], shared[part_of[u]]
        for v in range(n):
            if u == v:
                continue
            first_var = n_vars + 1
            for w in witnesses[part_of[v]]:
                n_vars += 1
                first, second = lu[w], lit[w][v]
                clauses += ((-n_vars, first), (-n_vars, second), (n_vars, -first, -second))
            cover = tuple(range(first_var, n_vars + 1))
            covers.append(cover + (lu[v],) if lu[v] else cover)
    clauses += covers
    n_path_vars = n_vars - n_edge_vars

    # lex-order the rows of the largest part (ties resolved to the last one)
    big = max(range(len(sizes)), key=lambda i: (sizes[i], i))
    columns = [w for w in range(n) if part_of[w] != big]
    members = list(topology.part_vertices(big))
    for zu, zv in zip(members, members[1:]):
        n_vars = _add_lex_leq(clauses, n_vars, [lit[zu][c] for c in columns],
                              [lit[zv][c] for c in columns])

    stats = CnfStats(
        variables=n_vars,
        clauses=len(clauses),
        edge_variables=n_edge_vars,
        path_variables=n_path_vars,
        lex_variables=n_vars - n_edge_vars - n_path_vars,
    )
    return clauses, stats


def _add_lex_leq(clauses, n_vars, row_a, row_b) -> int:
    """Append clauses forcing row_a <=lex row_b, via prefix-equality variables.

    One pass over the columns: column i gets (*agree, -a_i, b_i), so a_i <= b_i
    once the rows agree on every earlier column (agree is empty at column 0).
    Every column but the last then defines a new variable cur <-> "the rows
    agree on columns 0..i" with four clauses, plus (-cur, prev) after column 0.
    New variables are numbered from n_vars + 1; returns the new count.
    """
    agree = ()  # (-prev,) once prev <-> "the rows agree on every column so far"
    last = len(row_a) - 1
    for i, (a, b) in enumerate(zip(row_a, row_b)):
        clauses.append((*agree, -a, b))
        if i < last:
            cur = n_vars = n_vars + 1
            if agree:
                clauses.append((-cur, -agree[0]))
            clauses += [(-cur, -a, b), (-cur, a, -b), (cur, *agree, a, b), (cur, *agree, -a, -b)]
            agree = (-cur,)
    return n_vars


def export_cnf(parts, out_path) -> CnfStats:
    """Write the DIMACS file; returns variable and clause counts."""
    if not isinstance(out_path, (str, os.PathLike)):  # open() takes an int as a file descriptor
        raise BadOutPath(f"out_path must be a str or os.PathLike path, got {out_path!r}")
    sizes = make_complete_multipartite(parts).parts  # parts may be a one-shot iterable
    clauses, stats = encode_diameter2(sizes)
    header = (f"c diameter-2 orientation of K{sizes}\n"
              "c edge variables first (lex edge order, true = low index -> high index),\n"
              "c then two-step path variables grouped by ordered pair, then lex-ordering prefixes\n"
              f"p cnf {stats.variables} {stats.clauses}\n")
    # one %-template per clause length; the empty clause is the line " 0"
    templates = {k: " ".join(["%d"] * k) + " 0\n" for k in set(map(len, clauses))}
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(header)
        fh.write("".join([templates[len(clause)] % clause for clause in clauses]))
    return stats


def decode_model(parts, true_vars) -> Orientation:
    """Rebuild the orientation described by a satisfying assignment.

    true_vars is any collection of the integer variable indices assigned
    true; only
    the edge variables matter, read as the bits of an edge code.
    """
    topology = make_complete_multipartite(parts)
    truthy = _listed(true_vars, "true_vars")
    if not all(map(_is_int, truthy)):
        raise GraphError(
            f"true_vars must hold integer variable indices, got {reprlib.repr(true_vars)}")
    truthy = set(truthy)
    code = sum(1 << i for i in range(topology.n_edges) if i + 1 in truthy)
    return Orientation(topology, tuple(_out_masks(topology.n_vertices, topology.edges(), code)))
