"""Ground-truth length computation by counting relation-graph components.

Nodes are the standard monomials of the ambient quotient: the bits of one
integer, indexed row-major over {0..q-1}^m.  Every shift of the binomial
by a monomial multiplier u yields a relation touching at most two nodes:
two surviving endpoints u + e2 and u + e1 are identified with a nonzero
scalar ratio, a single survivor is forced to zero.  The length is the
number of classes with no member forced to zero.

Every edge joins u + e1 to u + e2, a translation by the same flat offset
D = index(e2) - index(e1) != 0.  So each node has at most one edge on
either side, and the relation graph is a disjoint union of paths along D.
It has no cycle, so the scalars can never conflict and the count needs no
weights: a class is a path, dead when any node on it is forced to zero.

The edges and both kinds of kill are products of intervals, each built as
a box mask with O(log q) shifts per coordinate.  Dead spreads along the
paths by doubling, forward and then backward, in O(log q) whole-mask
steps each way, and the report is read with popcounts.  A weighted
union-find over the same relations serves the tests as a reference.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Binomial, PrimePower, require_field
from .errors import ResourceError

ORACLE_CAP = 10**6  # hk_oracle_report's default budget on relation-graph nodes


@dataclass(frozen=True)
class OracleReport:
    length: int
    nodes: int
    dead_nodes: int
    merges: int  # relations that joined two distinct classes
    live_merged_classes: int


def hk_oracle(f: Binomial, q: PrimePower, node_cap: int = ORACLE_CAP) -> int:
    """Exact length by explicit relation propagation."""
    return hk_oracle_report(f, q, node_cap).length


def hk_oracle_report(f: Binomial, q: PrimePower, node_cap: int = ORACLE_CAP) -> OracleReport:
    """Count the relation graph's live paths with whole-mask bit operations."""
    require_field(f, q.p)
    qq = q.q
    nodes = qq**f.m
    if nodes > node_cap:
        raise ResourceError(
            f"oracle needs {q.p}^{q.n * f.m} nodes, budget is {node_cap}",
            required=nodes,
            budget=node_cap,
        )
    e2, e1 = f.lead.exps, f.trail.exps
    top = (qq,) * f.m
    # edges by their trail end y = u + e1: the lead end y + e2 - e1 survives too
    starts = _box(e1, [min(qq, qq - a + b) for a, b in zip(e2, e1)], qq)
    # a box with the same lower corner and no higher upper corner lies inside
    # the first, so x ^ y is x & ~y, with no negative int
    dead = _box(e1, top, qq) ^ starts  # only the trail end survives
    dead |= _box(e2, top, qq) ^ _box(e2, [min(qq, qq - b + a) for a, b in zip(e2, e1)], qq)
    step = node_index(e2, qq) - node_index(e1, qq)
    if step < 0:  # orient every edge toward the higher index
        step = -step
        starts >>= step
    # spans[k]: (the nodes with 2^k edges ahead on their path, 2^k * step);
    # no path has q edges, so there are at most ceil(log2 q) + 1 rounds
    spans = []
    span, reach = starts, step
    while span:
        spans.append((span, reach))
        dead |= (dead & span) << reach
        span &= span >> reach
        reach *= 2
    for span, reach in spans:
        dead |= span & (dead >> reach)
    heads = ((1 << nodes) - 1) ^ (dead | starts << step)  # live, no incoming edge (all in the grid)
    return OracleReport(
        length=heads.bit_count(),
        nodes=nodes,
        dead_nodes=dead.bit_count(),
        merges=starts.bit_count(),
        live_merged_classes=(heads & starts).bit_count(),
    )


def _box(lo, hi, qq: int) -> int:
    """Mask of the nodes A with lo[i] <= A[i] < hi[i] for every i."""
    a, b = lo[-1], hi[-1]
    if a >= b:
        return 0
    mask, width = ((1 << (b - a)) - 1) << a, qq  # the last coordinate's run
    for a, b in zip(reversed(lo[:-1]), reversed(hi[:-1])):
        if a >= b:
            return 0
        mask = _repeat(mask, width, b - a) << (a * width)
        width *= qq
    return mask


def _repeat(block: int, width: int, count: int) -> int:
    """`count` copies of `block` at stride `width`, by binary doubling."""
    out = shift = 0
    while True:
        if count & 1:
            out |= block << shift
            shift += width
        count >>= 1
        if not count:
            return out
        block |= block << width
        width *= 2


def node_index(A, qq: int) -> int:
    """Row-major index of a standard monomial."""
    idx = 0
    for e in A:
        idx = idx * qq + e
    return idx
