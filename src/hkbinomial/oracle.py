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

Two masks of multipliers carry every relation: the u with u + e1 in the
grid and the u with u + e2 in the grid, each a box from the origin built
with O(log q) shifts per coordinate.  Their intersection is the edges and
each one less the intersection is a kind of kill.  Since u + e stays in
the grid, no exponent carries, so a shift by index(e) moves every such u
to u + e.  Dead spreads along the paths by doubling, forward and then
backward, in O(log q) whole-mask steps each way, and the report is read
with popcounts.  A weighted union-find over the same relations serves the
tests as a reference.
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
    # the multipliers u that keep u + e1, resp. u + e2, in the grid: the
    # shift u * f is an edge when both ends are in and a kill when one is
    trail_in = _box([qq - a for a in e1], qq)
    lead_in = _box([qq - a for a in e2], qq)
    both = trail_in & lead_in
    # both lies inside each, so x ^ both is x & ~both, with no negative int
    i1, i2 = node_index(e1, qq), node_index(e2, qq)
    dead = (trail_in ^ both) << i1 | (lead_in ^ both) << i2
    # each edge by its lower end, oriented toward the higher index
    starts, step = both << min(i1, i2), abs(i2 - i1)
    del trail_in, lead_in, both  # held through the doubling, they would raise its peak memory
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
    del spans, span  # the report reads none of them
    heads = ((1 << nodes) - 1) ^ (dead | starts << step)  # live, no incoming edge (all in the grid)
    return OracleReport(
        length=heads.bit_count(),
        nodes=nodes,
        dead_nodes=dead.bit_count(),
        merges=starts.bit_count(),
        live_merged_classes=(heads & starts).bit_count(),
    )


def _box(hi, qq: int) -> int:
    """Mask of the nodes A with A[i] < hi[i] for every i: a box from the
    origin, empty when some hi[i] <= 0.  Each hi[i] is at most q."""
    if min(hi) <= 0:
        return 0
    mask, width = (1 << hi[-1]) - 1, qq  # the last coordinate's run
    for b in reversed(hi[:-1]):
        mask = _repeat(mask, width, b)
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
