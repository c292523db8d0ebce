"""Shared strategies and references: random small multipartite topologies and
orientations, a single-pair BFS distance and arc reversal."""

from __future__ import annotations

from collections import deque

import hypothesis.strategies as st

import orientdiam as od


def distance(D, u, v):
    """Reference directed distance from u to v; INFINITE when unreachable.

    A plain queue BFS that reads arcs one bit at a time, sharing no code with
    the package's word-parallel diameter routine it is checked against.
    """
    n = D.n_vertices
    if not (0 <= u < n and 0 <= v < n):
        raise IndexError(f"vertex pair ({u},{v}) out of range for {n} vertices")
    dist = {u: 0}
    queue = deque([u])
    while queue and v not in dist:
        x = queue.popleft()
        for w in range(n):
            if (D.out_adj[x] >> w) & 1 and w not in dist:
                dist[w] = dist[x] + 1
                queue.append(w)
    return dist.get(v, od.INFINITE)


def reverse(D):
    """D with every arc flipped: distances transpose and the diameter is kept."""
    return od.Orientation(topology=D.topology, out_adj=D.in_adj())


def random_orientation(topology, bits: int):
    """Orientation of `topology`: sorted edge i runs low -> high iff bit i is set."""
    arcs = []
    for i, (u, v) in enumerate(topology.edges()):
        arcs.append((u, v) if (bits >> i) & 1 else (v, u))
    return od.orient(topology, arcs)


def all_orientations(topology):
    for bits in range(1 << topology.n_edges):
        yield random_orientation(topology, bits)


@st.composite
def topologies(draw, max_vertices=8, min_parts=2, max_parts=4):
    parts = draw(
        st.lists(st.integers(1, 4), min_size=min_parts, max_size=max_parts).filter(
            lambda ps: sum(ps) <= max_vertices
        )
    )
    return od.make_complete_multipartite(parts)


@st.composite
def orientations(draw, max_vertices=8):
    topo = draw(topologies(max_vertices=max_vertices))
    bits = draw(st.integers(0, (1 << topo.n_edges) - 1))
    return random_orientation(topo, bits)


@st.composite
def anchored_orientations(draw, max_extra=4):
    """Random orientations of K(3, a, b): the shapes the sign machinery targets."""
    a = draw(st.integers(1, max_extra))
    b = draw(st.integers(1, max_extra))
    topo = od.make_complete_multipartite([3, a, b])
    bits = draw(st.integers(0, (1 << topo.n_edges) - 1))
    return random_orientation(topo, bits)
