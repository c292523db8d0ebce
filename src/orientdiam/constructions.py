"""Deterministic builders for the known diameter-2 orientation families.

The paper's rows K(3,p,q) are one table, _ROWS.  A row is either a recipe
or a restriction.  A recipe returns the arcs of its row: sign classes fix
every arc between the anchor triple and the large part, a handful of
4-cycles and a middle-layer bipartite block fix the rest.  Where it leaves
a choice open (the direction of a 4-cycle, say), it makes a fixed
canonical choice and records it in a completion log.  A restriction is a
recipe row of the same p less some vertices of its large part; the log
names them.  Every construct function measures the diameter of what it
built and refuses to return an orientation that misses its promise.
"""

from __future__ import annotations

import itertools
from math import comb

from .graphcore import (
    Orientation,
    OrientdiamError,
    _is_int,
    diameter,
    induced_suborientation,
    make_complete_multipartite,
    orient,
)


class ConstructionError(OrientdiamError):
    pass


class QOutOfRange(ConstructionError):
    pass


class ThresholdExceeded(ConstructionError):
    pass


class NTooSmall(ConstructionError):
    pass


def _sign_class_arcs(anchors, assignment):
    """Arcs between the anchor triple and vertices with fixed sign labels."""
    arcs = []
    for z, label in assignment:
        for x, c in zip(anchors, label):
            arcs.append((x, z) if c == "+" else (z, x))
    return arcs


def _four_cycle(a, b, c, d):
    """The directed 4-cycle a -> b -> c -> d -> a."""
    return [(a, b), (b, c), (c, d), (d, a)]


def _verified(D: Orientation, want: int, context: str) -> Orientation:
    got = diameter(D)
    if got != want:
        raise ConstructionError(f"{context}: built diameter {got}, promised {want}")
    return D


def _k334():
    x1, x2, x3, y1, y2, y3 = range(6)
    arcs = [(y1, x1), (y2, x1), (y3, x1),
            (y2, x2), (y3, x2), (x2, y1),
            (y1, x3), (y3, x3), (x3, y2)]
    # z classes, one vertex each: 6:+++ 7:++- 8:+-+ 9:+--
    arcs += _sign_class_arcs((x1, x2, x3), [(6, "+++"), (7, "++-"), (8, "+-+"), (9, "+--")])
    arcs += [(6, y1), (7, y1), (y1, 8), (y1, 9)]
    arcs += [(6, y2), (8, y2), (y2, 7), (y2, 9)]
    arcs += [(z, y3) for z in (6, 7, 8, 9)]
    return arcs, ()


def _k336():
    x1, x2, x3, y1, y2, y3 = range(6)
    # z classes: 6:+++ | 7,8:+-- | 9,10:-+- | 11:---
    arcs = [(y2, x1), (y2, x2), (y3, x1), (y3, x2),
            (x1, y1), (x2, y1), (y1, x3), (x3, y2), (x3, y3)]
    arcs += _sign_class_arcs((x1, x2, x3), [(6, "+++"), (7, "+--"), (8, "+--"), (9, "-+-"),
                                            (10, "-+-"), (11, "---")])
    arcs += [(6, y1)] + [(y1, z) for z in (7, 8, 9, 10, 11)]
    arcs += [(6, y2), (6, y3), (y2, 11), (y3, 11)]
    arcs += _four_cycle(y2, 7, y3, 8) + _four_cycle(y2, 9, y3, 10)
    return arcs, ("q=6: 4-cycles oriented y2 -> z_a -> y3 -> z_b -> y2 for both two-vertex classes",)


def _k34_10():
    x1, x2, x3, y1, y2, y3, y4 = range(7)
    zp, z1, z2, z3, z4, z5, z6, z7, z8, zm = range(7, 17)
    arcs = [(y, x) for y in (y3, y4) for x in (x1, x2)]
    arcs += [(x, y) for x in (x1, x2) for y in (y1, y2)]
    arcs += [(y1, x3), (y2, x3), (x3, y3), (x3, y4)]
    arcs += _sign_class_arcs((x1, x2, x3), [
        (zp, "+++"), (z1, "+-+"), (z2, "+-+"), (z3, "-++"), (z4, "-++"),
        (z5, "+--"), (z6, "+--"), (z7, "-+-"), (z8, "-+-"), (zm, "---")])
    arcs += [(zp, y) for y in (y1, y2, y3, y4)]
    arcs += [(y, zm) for y in (y1, y2, y3, y4)]
    arcs += [(y, z) for y in (y1, y2) for z in (z5, z6, z7, z8)]
    arcs += [(z, y) for z in (z1, z2, z3, z4) for y in (y3, y4)]
    arcs += _four_cycle(y1, z1, y2, z2)
    arcs += _four_cycle(y1, z3, y2, z4)
    arcs += _four_cycle(y3, z5, y4, z6)
    arcs += _four_cycle(y3, z7, y4, z8)
    return arcs, ("q=10: fully explicit recipe, four listed 4-cycles",)


def _k34_11():
    x1, x2, x3, y1, y2, y3, y4 = range(7)
    # z classes: 7:+++ | 8,9:++- | 10,11:+-+ | 12..17:+--
    arcs = [(y, x1) for y in (y1, y2, y3, y4)]
    arcs += [(y4, x2), (x2, y1), (x2, y2), (x2, y3)]
    arcs += [(y1, x3), (x3, y2), (x3, y3), (x3, y4)]
    assignment = [(7, "+++"), (8, "++-"), (9, "++-"), (10, "+-+"), (11, "+-+")]
    assignment += [(z, "+--") for z in range(12, 18)]
    arcs += _sign_class_arcs((x1, x2, x3), assignment)
    arcs += [(7, y) for y in (y1, y2, y3, y4)]
    arcs += [(z, y) for z in (8, 9, 10, 11) for y in (y1, y4)]
    # middle layer between V2 and the six +-- vertices: distinct 2-subsets
    # in lexicographic order of (y-index pair, z-index)
    for z, S in zip(range(12, 18), itertools.combinations((y1, y2, y3, y4), 2)):
        for y in (y1, y2, y3, y4):
            arcs.append((z, y) if y in S else (y, z))
    arcs += _four_cycle(y2, 8, y3, 9) + _four_cycle(y2, 10, y3, 11)
    return arcs, ("q=11: V2 <-> +-- block is the middle-layer K(4,6) orientation, subsets in lex order",
                  "q=11: 4-cycles oriented y2 -> z_a -> y3 -> z_b -> y2 for ++- and +-+")


# The paper's rows: (p, q) -> how K(3,p,q) is built.  A row is a recipe,
# which returns its arcs and completion log, or a restriction
# (recipe row's q, deleted vertices of its large part).  Vertex ids inside
# the K(3,4,10) recipe (part-major order): x1..x3 = 0..2, y1..y4 = 3..6,
# then z+(+++), z1,z2(+-+), z3,z4(-++), z5,z6(+--), z7,z8(-+-), z-(---) = 7..16.
_ROWS = {
    (3, 3): (4, (9,)),  # the +-- vertex
    (3, 4): _k334,
    (3, 5): (6, (11,)),  # the all-minus vertex
    (3, 6): _k336,
    (4, 4): (10, (7, 8, 9, 14, 15, 16)),
    (4, 5): (10, (8, 9, 14, 15, 16)),
    (4, 6): (10, (7, 14, 15, 16)),
    (4, 7): (10, (14, 15, 16)),
    (4, 8): (10, (7, 16)),
    (4, 9): (10, (16,)),
    (4, 10): _k34_10,
    (4, 11): _k34_11,
}


def _build(p: int, q) -> tuple[Orientation, tuple[str, ...]]:
    """Build the row K(3,p,q) of _ROWS, verify diameter 2, and return it with its log."""
    row = _ROWS.get((p, q)) if _is_int(q) else None
    if row is None:
        qs = [s for r, s in _ROWS if r == p]
        raise QOutOfRange(
            f"K(3,{p},q) construction defined for {min(qs)} <= q <= {max(qs)}, got {q!r}")
    if callable(row):
        arcs, log = row()
        D = orient(make_complete_multipartite([3, p, q]), arcs)
    else:
        top, deleted = row
        D_top, log = _build(p, top)
        D = induced_suborientation(D_top, [v for v in range(3 + p + top) if v not in deleted])
        log = (*log, f"q={q}: restriction of the q={top} orientation, deleted vertices {deleted}")
    return _verified(D, 2, f"K(3,{p},{q})"), log


def build_33q(q: int) -> tuple[Orientation, tuple[str, ...]]:
    """Diameter-2 orientation of K(3,3,q) for q in [3,6], with its completion log."""
    return _build(3, q)


def build_34q(q: int) -> tuple[Orientation, tuple[str, ...]]:
    """Diameter-2 orientation of K(3,4,q) for q in [4,11], with its completion log."""
    return _build(4, q)


def paper_families() -> dict:
    """p -> (last q, builder) for each family of _ROWS.

    Built per call from the module's current build_33q/build_34q, which
    bench/layers.py rebinds to time them.
    """
    return {p: (max(q for r, q in _ROWS if r == p), builder)
            for p, builder in ((3, build_33q), (4, build_34q))}


def construct_33q(q: int) -> Orientation:
    """Orientation of K(3,3,q) with diameter exactly 2, for q in [3,6]."""
    return build_33q(q)[0]


def construct_34q(q: int) -> Orientation:
    """Orientation of K(3,4,q) with diameter exactly 2, for q in [4,11]."""
    return build_34q(q)[0]


def middle_layer_bipartite(p: int, q: int) -> Orientation:
    """Orientation of K(p,q) whose big-side out-sets are distinct half-size subsets.

    Vertex z_i of the big side sends arcs into the i-th floor(p/2)-subset of
    the small side (lexicographic order) and receives from the rest.  Any two
    big-side vertices are then within distance 2 of each other: a witness is
    any small-side vertex in one out-set but not the other.
    """
    topo = make_complete_multipartite([p, q])  # checks p and q before comb runs
    limit = comb(p, p // 2)
    if q > limit:
        raise ThresholdExceeded(
            f"K({p},{q}) exceeds the antichain capacity C({p},{p // 2}) = {limit}"
        )
    arcs = []
    subsets = itertools.combinations(range(p), p // 2)
    for i, S in zip(range(q), subsets):
        z = p + i
        for y in range(p):
            arcs.append((z, y) if y in S else (y, z))
    return orient(topo, arcs)


def complete_graph_orientation(n: int) -> Orientation:
    """A tournament on n vertices of minimum diameter (2, except 3 at n=4).

    Odd n: the rotational tournament i -> i+1 .. i+(n-1)/2 (mod n).
    n = 4: the rotational 4-cycle 0 -> 1 -> 2 -> 3 -> 0 with the diagonals
    0 -> 2 and 1 -> 3; no tournament on four vertices has diameter 2.
    Even n >= 6: rotational tournament on n-1 vertices plus one vertex
    whose out-set is {0, (n-2)/2}; that pair dominates everyone else, which
    keeps the diameter at 2.  The diameter claim is re-verified either way.
    """
    if not _is_int(n):
        raise ConstructionError(f"n must be an integer, got {n!r}")
    if n < 3:
        raise NTooSmall(f"tournaments of diameter <= 3 need n >= 3, got {n}")
    topo = make_complete_multipartite([1] * n)
    want = 3 if n == 4 else 2

    def rotational_arcs(m: int) -> list[tuple[int, int]]:
        return [(i, (i + d) % m) for i in range(m) for d in range(1, (m - 1) // 2 + 1)]

    if n % 2 == 1:
        arcs = rotational_arcs(n)
    elif n == 4:
        arcs = rotational_arcs(4) + [(0, 2), (1, 3)]
    else:
        arcs = rotational_arcs(n - 1)
        v = n - 1
        dominating = {0, (n - 2) // 2}
        for u in range(n - 1):
            arcs.append((v, u) if u in dominating else (u, v))
    return _verified(orient(topo, arcs), want, f"K({n})")
