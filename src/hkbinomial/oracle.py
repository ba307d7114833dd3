"""Ground-truth length computation via a scalar-weighted union-find.

Nodes are the standard monomials of the ambient quotient, indexed
row-major over {0..q-1}^m.  Every shift of the binomial by a monomial
multiplier yields a relation touching at most two nodes: two surviving
endpoints get identified with a nonzero scalar ratio, a single survivor
is forced to zero.  The length is the number of live classes.

For a single binomial the relation edges all translate by the fixed
difference vector, so the relation graph is a disjoint union of paths and
scalar weights can never conflict; the union step still asserts weight
consistency, turning that claim into a runtime check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import Binomial, PrimePower
from .errors import ContractError, DomainError, ResourceError


class RelationGraph:
    """Union-find over standard monomials with multiplicative edge weights.

    weight[v] is the scalar lam with class(v) = lam * class(parent(v));
    weights compose along compressed paths.  dead marks classes forced to
    zero and only ever propagates, never clears.  A single run mutates its
    graph and is single threaded; distinct runs are independent.
    """

    def __init__(self, n_nodes: int, p: int):
        self.p = p
        self.parent = list(range(n_nodes))
        self.weight = [1] * n_nodes
        self.rank = [0] * n_nodes
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

    def kill(self, x: int):
        root, _ = self.find_weighted(x)
        self.dead[root] = True

    def union(self, x: int, y: int, lam: int):
        """Record class(x) = lam * class(y), lam nonzero mod p."""
        p = self.p
        rx, wx = self.find_weighted(x)
        ry, wy = self.find_weighted(y)
        if rx == ry:
            if wx != lam * wy % p:
                raise ContractError("inconsistent cycle weight; impossible for a binomial")
            return
        w_rx = pow(wx, -1, p) * lam % p * wy % p  # class(rx) = w_rx * class(ry)
        if self.rank[rx] < self.rank[ry]:
            self.parent[rx] = ry
            self.weight[rx] = w_rx
            new_root = ry
        else:
            self.parent[ry] = rx
            self.weight[ry] = pow(w_rx, -1, p)
            if self.rank[rx] == self.rank[ry]:
                self.rank[rx] += 1
            new_root = rx
        self.dead[new_root] = self.dead[rx] or self.dead[ry]
        self.unions += 1

    def classes(self):
        """List of (member node lists, dead flag), deterministic order."""
        groups = {}
        for v in range(len(self.parent)):
            root, _ = self.find_weighted(v)
            groups.setdefault(root, []).append(v)
        return [(members, self.dead[root]) for root, members in sorted(groups.items())]

    def live_count(self) -> int:
        roots = set()
        for v in range(len(self.parent)):
            root, _ = self.find_weighted(v)
            if not self.dead[root]:
                roots.add(root)
        return len(roots)


@dataclass(frozen=True)
class OracleReport:
    length: int
    nodes: int
    dead_nodes: int
    merges: int  # union operations that joined two distinct classes
    live_merged_classes: int


def build_relation_graph(f: Binomial, q: PrimePower, node_cap: int = 10**6) -> RelationGraph:
    """Run all shifted relations through a fresh graph, row-major order.

    Multipliers range over {0..q-1}^m; any relation with a surviving
    endpoint has its multiplier in that box.
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
    strides = [qq ** (m - 1 - i) for i in range(m)]
    for a in itertools.product(range(qq), repeat=m):
        v_ok = True
        w_ok = True
        vidx = 0
        widx = 0
        for i in range(m):
            ve = a[i] + e2[i]
            we = a[i] + e1[i]
            if ve >= qq:
                v_ok = False
            else:
                vidx += ve * strides[i]
            if we >= qq:
                w_ok = False
            else:
                widx += we * strides[i]
        if v_ok and w_ok:
            graph.union(vidx, widx, lam)
        elif v_ok:
            graph.kill(vidx)
        elif w_ok:
            graph.kill(widx)
    return graph


def hk_oracle(f: Binomial, q: PrimePower, node_cap: int = 10**6) -> int:
    """Exact length by explicit relation propagation."""
    return build_relation_graph(f, q, node_cap).live_count()


def hk_oracle_report(f: Binomial, q: PrimePower, node_cap: int = 10**6) -> OracleReport:
    graph = build_relation_graph(f, q, node_cap)
    classes = graph.classes()
    dead_nodes = sum(len(members) for members, dead in classes if dead)
    live_merged = sum(1 for members, dead in classes if not dead and len(members) > 1)
    return OracleReport(
        length=sum(1 for _, dead in classes if not dead),
        nodes=len(graph.parent),
        dead_nodes=dead_nodes,
        merges=graph.unions,
        live_merged_classes=live_merged,
    )


def node_index(A, qq: int) -> int:
    """Row-major index of a standard monomial."""
    idx = 0
    for e in A:
        idx = idx * qq + e
    return idx
