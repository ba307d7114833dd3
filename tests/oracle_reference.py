"""Reference form of the oracle, for the tests only: a weighted union-find.

Every relation of the binomial is applied to a scalar-weighted union-find
over the standard monomials: two surviving endpoints are identified with
the scalar ratio of the coefficients, a single survivor is forced to
zero.  The union step checks that weights stay consistent around any
cycle, which turns the claim that the relation graph is a union of paths
into a runtime check.  `reference_report` counts the classes in one pass
over the roots; the library's bit-parallel `hk_oracle_report` must give
the same five fields.
"""

from __future__ import annotations

import itertools
import operator

from hkbinomial.algebra import Binomial, PrimePower
from hkbinomial.errors import ContractError, DomainError, ResourceError
from hkbinomial.oracle import OracleReport, node_index


class RelationGraph:
    """Union-find over standard monomials with multiplicative edge weights.

    weight[v] is the scalar lam with class(v) = lam * class(parent(v));
    weights compose along compressed paths.  Union is by size: size[r]
    counts the members of the class rooted at r.  dead marks classes
    forced to zero and only ever propagates, never clears; size and dead
    are read at roots only.  `classes` lists every class's members.
    """

    def __init__(self, n_nodes: int, p: int):
        self.p = p
        self.parent = list(range(n_nodes))
        self.weight = [1] * n_nodes
        self.size = [1] * n_nodes
        self.dead = [False] * n_nodes
        self.unions = 0

    def find_weighted(self, x: int):
        """(root, w) with class(x) = w * class(root); compresses the path."""
        p = self.p
        parent = self.parent
        weight = self.weight
        chain = []
        node = x
        while parent[node] != node:
            chain.append(node)
            node = parent[node]
        root = node
        for idx in range(len(chain) - 1, -1, -1):
            nd = chain[idx]
            par = parent[nd]
            if par != root:
                weight[nd] = weight[nd] * weight[par] % p
                parent[nd] = root
        return root, (weight[x] if chain else 1)

    def kill_run(self, x0: int, count: int):
        """Force the classes of x0, ..., x0 + count - 1 to zero."""
        parent = self.parent
        dead = self.dead
        for x in range(x0, x0 + count):
            root = parent[x]
            if parent[root] != root:
                root, _ = self.find_weighted(x)
            dead[root] = True

    def union(self, x: int, y: int, lam: int):
        """Record class(x) = lam * class(y), lam nonzero mod p."""
        self.union_run(x, y, 1, lam)

    def union_run(self, x0: int, y0: int, count: int, lam: int):
        """Record class(x0 + k) = lam * class(y0 + k) for k < count."""
        p = self.p
        parent, weight, size, dead = self.parent, self.weight, self.size, self.dead
        find = self.find_weighted
        inv_lam = pow(lam, -1, p)
        merged = 0
        for x, y in zip(range(x0, x0 + count), range(y0, y0 + count)):
            rx = parent[x]  # roots and weights: a depth <= 1 lookup, else find
            if rx == x:
                wx = 1
            elif parent[rx] == rx:
                wx = weight[x]
            else:
                rx, wx = find(x)
            ry = parent[y]
            if ry == y:
                wy = 1
            elif parent[ry] == ry:
                wy = weight[y]
            else:
                ry, wy = find(y)
            if rx == ry:
                if wx != lam * wy % p:
                    raise ContractError("inconsistent cycle weight; impossible for a binomial")
                continue
            # wx * class(rx) = lam * wy * class(ry); hang the smaller class
            # under the larger, reading the relation backwards if needed
            back = inv_lam
            if size[rx] < size[ry]:
                rx, ry, wx, wy, back = ry, rx, wy, wx, lam
            w = wx * back % p  # class(ry) = wx * back / wy * class(rx)
            if wy != 1:
                w = w * pow(wy, -1, p) % p
            parent[ry] = rx
            weight[ry] = w
            size[rx] += size[ry]
            if dead[ry]:
                dead[rx] = True
            merged += 1
        self.unions += merged

    def classes(self):
        """List of (member node lists, dead flag), deterministic order."""
        groups = {}
        for v in range(len(self.parent)):
            root, _ = self.find_weighted(v)
            groups.setdefault(root, []).append(v)
        return [(members, self.dead[root]) for root, members in sorted(groups.items())]


def build_relation_graph(f: Binomial, q: PrimePower, node_cap: int = 10**6) -> RelationGraph:
    """Run all shifted relations through a fresh graph, row-major order.

    Multipliers range over {0..q-1}^m; any relation with a surviving
    endpoint has its multiplier in that box.  Both endpoints sit at fixed
    flat offsets from the multiplier, so for each choice of the first m - 1
    coordinates the last one runs over plain ranges: first where both
    endpoints survive (unions), then where only one does (kills).
    """
    if q.p != f.p:
        raise DomainError(f"prime power {q.p}^{q.n} does not match f over F_{f.p}")
    qq = q.q
    m = f.m
    n_nodes = qq**m
    if n_nodes > node_cap:
        raise ResourceError(
            f"oracle needs {n_nodes} nodes, budget is {node_cap}",
            required=n_nodes,
            budget=node_cap,
        )
    e2, e1 = f.lead.exps, f.trail.exps
    c2, c1 = f.lead.coeff, f.trail.coeff
    lam = (-c1) * pow(c2, -1, f.p) % f.p  # class(lead shift) = lam * class(trail shift)
    graph = RelationGraph(n_nodes, f.p)
    off2, off1 = node_index(e2, qq), node_index(e1, qq)
    # last coordinates of the multiplier that keep each endpoint in the box
    end2, end1 = max(0, qq - e2[-1]), max(0, qq - e1[-1])
    both = min(end2, end1)
    for row, head in enumerate(itertools.product(range(qq), repeat=m - 1)):
        base = row * qq
        v_ok = all(a + e < qq for a, e in zip(head, e2))
        w_ok = all(a + e < qq for a, e in zip(head, e1))
        if v_ok and w_ok:
            graph.union_run(base + off2, base + off1, both, lam)
            graph.kill_run(base + both + off2, end2 - both)
            graph.kill_run(base + both + off1, end1 - both)
        elif v_ok:
            graph.kill_run(base + off2, end2)
        elif w_ok:
            graph.kill_run(base + off1, end1)
    return graph


def reference_report(f: Binomial, q: PrimePower, node_cap: int = 10**6) -> OracleReport:
    """Build the union-find and count its classes in one pass over the roots."""
    graph = build_relation_graph(f, q, node_cap)
    nodes = len(graph.parent)
    size, dead = graph.size, graph.dead
    length = dead_nodes = live_merged = 0
    for root in itertools.compress(range(nodes), map(operator.eq, graph.parent, range(nodes))):
        if dead[root]:
            dead_nodes += size[root]
        else:
            length += 1
            if size[root] > 1:
                live_merged += 1
    return OracleReport(
        length=length,
        nodes=nodes,
        dead_nodes=dead_nodes,
        merges=graph.unions,
        live_merged_classes=live_merged,
    )
