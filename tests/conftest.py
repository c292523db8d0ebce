"""Shared strategies: random small multipartite topologies and orientations."""

from __future__ import annotations

import hypothesis.strategies as st

import orientdiam as od


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
