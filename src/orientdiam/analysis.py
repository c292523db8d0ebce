"""Sign classes, case signatures, and antichain utilities.

Fix an anchor part of exactly three vertices (x1, x2, x3).  Every vertex v
outside it gets a three-character sign label whose k-th entry is '+' when
xk -> v (bit v of xk's out-mask is set) and '-' when v -> xk.  Each
non-anchor part maps every one of the eight labels to the ascending tuple of
its vertices carrying it.  These sign classes drive all structural checks
here, including the two necessary conditions that every diameter-2
orientation of a complete tripartite graph satisfies:

  * a nonempty all-plus class in one part is a singleton dominating the
    other part, and dually for all-minus;
  * the two parts cannot both have a nonempty all-plus class, nor both a
    nonempty all-minus class.

The case signature (i, j, k) of a (3, p, q) orientation lists the anchor
vertices' out-degrees into the case part: the smaller of the other two
parts, the earlier one on ties.  Every function here that takes an anchor
part defaults it to the first part of size 3, and `analyze --anchor`
passes its choice to all of them.

The bipartite side of the story: inside an orientation of K(p, q') every
ordered pair on the q'-side is within distance 2 exactly when the q'-side
out-neighborhood family is an antichain, whose size Sperner's theorem caps
at C(p, floor(p/2)).  max_antichain derives that width from the symmetric
chain decomposition the search kernel uses rather than from the formula,
and the test suite checks both against exhaustive oracles.
"""

from __future__ import annotations

import itertools
import reprlib
from dataclasses import dataclass

from .graphcore import Orientation, OrientdiamError, _bit_members, _is_int, diameter
from .search import MAX_BLOCK_VERTICES, _symmetric_chains, canonicalize_case

SIGN_LABELS = ("+++", "++-", "+-+", "-++", "+--", "-+-", "--+", "---")


class AnalysisError(OrientdiamError):
    pass


class AnchorNotSize3(AnalysisError):
    pass


class DiameterNotTwo(AnalysisError):
    pass


class NotBipartite(AnalysisError):
    pass


class PTooLarge(AnalysisError):
    pass


def sign_partition(
    D: Orientation, anchor_part: int | None = None
) -> dict[int, dict[str, tuple[int, ...]]]:
    """Map each non-anchor part index to {sign label: ascending vertex tuple}.

    All eight SIGN_LABELS are present in every part; the k-th sign of v is
    read off the k-th anchor's out-mask.
    """
    topo = D.topology
    anchor_part = resolve_anchor(topo.parts, anchor_part)
    anchor_out = [D.out_adj[x] for x in topo.part_vertices(anchor_part)]
    result = {}
    for pi in range(len(topo.parts)):
        if pi == anchor_part:
            continue
        classes = {label: [] for label in SIGN_LABELS}
        for v in topo.part_vertices(pi):
            classes["".join("+" if out >> v & 1 else "-" for out in anchor_out)].append(v)
        result[pi] = {label: tuple(vs) for label, vs in classes.items()}
    return result


def sign_condition_violations(D: Orientation, anchor_part: int | None = None) -> list[str]:
    """Verify the diameter-2 sign-class conditions; return the violations.

    Requires a tripartite orientation of diameter at most 2 (the conditions
    are simply false otherwise, so that precondition is enforced).
    An empty list means every condition holds.
    """
    topo = D.topology
    if len(topo.parts) != 3:
        raise AnalysisError(f"need a tripartite orientation, got {len(topo.parts)} parts")
    d = diameter(D)
    if not d <= 2:
        raise DiameterNotTwo(f"diameter is {d}, conditions apply only at diameter <= 2")
    anchor = resolve_anchor(topo.parts, anchor_part)
    x1, x2, x3 = (D.out_adj[x] for x in topo.part_vertices(anchor))
    # +++ (beaten by all three anchors) must dominate the other part
    # (out-masks), --- (beaten by none) be dominated by it (in-masks)
    checks = (("+++", x1 & x2 & x3, D.out_adj, "does not dominate"),
              ("---", ~(x1 | x2 | x3), D.in_adj(), "not dominated by"))
    i, j = (pi for pi in range(3) if pi != anchor)
    part = [sum(1 << v for v in topo.part_vertices(pi)) for pi in range(3)]
    violations = []
    for a, b in ((i, j), (j, i)):
        for label, signs, masks, fails in checks:
            ys = part[a] & signs
            if ys.bit_count() > 1:
                violations.append(f"part {a + 1} class {label} has size {ys.bit_count()} != 1")
            for y in _bit_members(ys):
                for z in _bit_members(part[b] & ~masks[y]):
                    violations.append(f"part {a + 1} class {label} vertex {y} {fails} {z}")
    for label, signs, _, _ in checks:
        if part[i] & signs and part[j] & signs:
            violations.append(f"both non-anchor parts have a nonempty {label} class")
    return violations


@dataclass(frozen=True)
class CaseSignature:
    """Out-degrees of the anchor triple into the case part, normalized.

    raw is (i, j, k) as read off the orientation; canonical is the
    lexicographically smallest representative under sorting and the global
    reversal (i, j, k) -> (p-i, p-j, p-k).
    """

    raw: tuple[int, int, int]
    canonical: tuple[int, int, int]


def resolve_anchor(parts, anchor_part: int | None) -> int:
    """Check an anchor part index; None picks the first part of size 3."""
    if anchor_part is None:
        if 3 not in parts:
            raise AnchorNotSize3(f"no part of size 3 in {tuple(parts)}")
        return parts.index(3)
    if not _is_int(anchor_part):
        raise AnalysisError(f"anchor part index {reprlib.repr(anchor_part)} is not an integer")
    if not 0 <= anchor_part < len(parts):
        raise AnalysisError(
            f"anchor part index {anchor_part} out of range for {len(parts)} parts"
        )
    if parts[anchor_part] != 3:
        raise AnchorNotSize3(
            f"anchor part index {anchor_part} has size {parts[anchor_part]}, need 3"
        )
    return anchor_part


def case_signature(D: Orientation, anchor_part: int | None = None) -> CaseSignature:
    """Classify a (3, p, q) orientation by the case rule in the module docstring."""
    topo = D.topology
    if len(topo.parts) != 3:
        raise AnchorNotSize3(f"need parts (3, p, q), got {topo.parts}")
    anchor = resolve_anchor(topo.parts, anchor_part)
    case_part = min((i for i in range(3) if i != anchor), key=lambda i: (topo.parts[i], i))
    mask = sum(1 << y for y in topo.part_vertices(case_part))
    raw = tuple((D.out_adj[x] & mask).bit_count() for x in topo.part_vertices(anchor))
    return CaseSignature(raw=raw, canonical=canonicalize_case(raw, topo.parts[case_part]))


def canonical_case_classes(p: int) -> tuple[tuple[int, int, int], ...]:
    """All canonical (i,j,k) classes over {0..p}^3, sorted; p is an int >= 1,
    capped at MAX_BLOCK_VERTICES like the block whose cases they classify.
    canonicalize_case sorts first, so the sorted triples reach every class."""
    if not (_is_int(p) and p >= 1):
        raise AnalysisError(f"need an integer p >= 1, got {reprlib.repr(p)}")
    if p > MAX_BLOCK_VERTICES:
        raise PTooLarge(f"case classes capped at p={MAX_BLOCK_VERTICES}, got {p}")
    triples = itertools.combinations_with_replacement(range(p + 1), 3)
    classes = {canonicalize_case(ijk, p) for ijk in triples}
    return tuple(sorted(classes))


# ---------------------------------------------------------------------------
# Antichain utilities.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AntichainReport:
    """Out-neighborhood family of the big side of a bipartite orientation."""

    family: tuple[frozenset[int], ...]
    is_antichain: bool
    violating_pair: tuple[int, int] | None


def out_neighborhood_family(F: Orientation, big_side: int) -> AntichainReport:
    """Collect {N+(z) & small side : z in big side} and test incomparability.

    violating_pair holds family positions (i, j) with family[i] a subset of
    family[j]; all ordered big-side pairs sit within distance 2 of each
    other exactly when no such pair exists.
    """
    topo = F.topology
    if len(topo.parts) != 2:
        raise NotBipartite(f"need exactly two parts, got {len(topo.parts)}")
    if not (_is_int(big_side) and big_side in (0, 1)):
        raise AnalysisError(f"big_side must be part index 0 or 1, got {reprlib.repr(big_side)}")
    small = sum(1 << y for y in topo.part_vertices(1 - big_side))
    masks = [F.out_adj[z] & small for z in topo.part_vertices(big_side)]
    family = tuple(frozenset(_bit_members(m)) for m in masks)
    for i, si in enumerate(masks):
        for j, sj in enumerate(masks):
            if i != j and not si & ~sj:
                return AntichainReport(family, False, (i, j))
    return AntichainReport(family, True, None)


def max_antichain(p: int) -> tuple[int, tuple[frozenset[int], ...]]:
    """Largest antichain over subsets of a p-set, with a proof of its size.

    The width is the number of chains in the plain symmetric chain
    decomposition of all 2^p codes, the first of the two whose chains met
    make a search block's chain bound, and the one each search frame seeds
    its matching with.  The witness is the middle layer, which meets every
    one of those chains once; an antichain and a chain partition of equal
    size prove each other optimal, so it is returned only after that check.
    Capped at MAX_BLOCK_VERTICES, the largest code width the kernel serves.
    """
    if not (_is_int(p) and p >= 1):
        raise AnalysisError(f"need an integer p >= 1, got {reprlib.repr(p)}")
    if p > MAX_BLOCK_VERTICES:
        raise PTooLarge(f"antichain width capped at p={MAX_BLOCK_VERTICES}, got {p}")
    width = max(_symmetric_chains(p)[0]) + 1  # chains are numbered 0, 1, ...
    layer = [c for c in range(1 << p) if c.bit_count() == p // 2]
    if len(layer) != width:  # never expected to fire
        raise AnalysisError(
            f"internal error: middle layer of {len(layer)} against {width} chains"
        )
    return width, tuple(
        frozenset(i for i in range(p) if (c >> i) & 1) for c in layer
    )
