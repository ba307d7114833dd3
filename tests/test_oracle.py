import math
import random
import time
import tracemalloc

import pytest

from hkbinomial import (
    ContractError,
    HKError,
    PrimePower,
    ResourceError,
    Term,
    hk_direct_count,
    hk_oracle,
    hk_oracle_report,
    normalize,
    parse_binomial,
)
from hkbinomial import oracle
from hkbinomial.oracle import node_index
from tests.conftest import EDGE_SHAPES, random_binomials
from tests.dense_rank import dense_rank_length
from tests.oracle_reference import RelationGraph, build_relation_graph, reference_report

F1 = parse_binomial("x1^3 - x2^2", 5)
Q5 = PrimePower(5, 1)
GRID_SEED = 20261018
GRID_COUNT = 400
GRID_QM_CAP = 5000


def test_worked_instance_value_and_structure():
    rep = hk_oracle_report(F1, Q5)
    assert rep.length == 10
    assert rep.nodes == 25
    assert rep.dead_nodes == 11  # 9 direct kills plus 2 by propagation
    assert rep.live_merged_classes == 4


def test_worked_instance_classes():
    graph = build_relation_graph(F1, Q5)
    live_pairs = set()
    for members, dead in graph.classes():
        if not dead and len(members) > 1:
            live_pairs.add(frozenset(members))
    expected = {
        frozenset({node_index(a, 5), node_index(b, 5)})
        for a, b in [((3, 0), (0, 2)), ((4, 0), (1, 2)), ((3, 1), (0, 3)), ((4, 1), (1, 3))]
    }
    assert live_pairs == expected


def test_simple_lines():
    assert hk_oracle(parse_binomial("x1 - x2", 3), PrimePower(3, 1)) == 3
    assert hk_oracle(parse_binomial("x1^3*x2 - x1*x2", 3), PrimePower(3, 1)) == 5


def test_coefficient_independence():
    vals = set()
    for c2, c1 in [(1, 1), (2, 3), (4, 1), (3, 4)]:
        f = normalize(5, Term(c2, (3, 0)), Term(c1, (0, 2)))
        vals.add(hk_oracle(f, Q5))
    assert vals == {10}


def test_permutation_equivariance():
    rng = random.Random(3)
    for f, p, n in random_binomials(31, 25):
        q = PrimePower(p, n)
        base = hk_oracle(f, q)
        perm = list(range(f.m))
        rng.shuffle(perm)
        e2 = tuple(f.lead.exps[i] for i in perm)
        e1 = tuple(f.trail.exps[i] for i in perm)
        try:
            g = normalize(p, Term(f.lead.coeff, e2), Term(f.trail.coeff, e1))
        except HKError:
            continue
        assert hk_oracle(g, q) == base


def test_acyclicity_assertion_never_fires(corpus_small):
    # union() raises ContractError on any inconsistent cycle weight
    for f, p, n in corpus_small:
        build_relation_graph(f, PrimePower(p, n))


def test_inconsistent_cycle_weight_is_contract_error():
    graph = RelationGraph(2, 5)
    graph.union(0, 1, 2)
    graph.union(0, 1, 2)  # the same weight again is consistent
    with pytest.raises(ContractError):
        graph.union(0, 1, 3)


def test_dense_rank_agrees():
    cases = [
        ("x1^3 - x2^2", 5, 1),
        ("x1^3*x2 - x1*x2", 3, 1),
        ("x1^2*x2 - x2*x3", 3, 1),
        ("x1*x2^3 - x1^2*x2", 3, 2),
        ("x2^3 - x1^2", 2, 3),
    ]
    for poly, p, n in cases:
        f = parse_binomial(poly, p)
        q = PrimePower(p, n)
        assert dense_rank_length(f, q) == hk_oracle(f, q)


def test_dense_rank_budget_flag():
    with pytest.raises(ResourceError):
        dense_rank_length(F1, PrimePower(5, 3), size_cap=4096)


def test_report_census_matches_classes(corpus200):
    for f, p, n in corpus200:
        q = PrimePower(p, n)
        rep = reference_report(f, q)
        classes = build_relation_graph(f, q).classes()
        assert rep.length == sum(1 for _, dead in classes if not dead), (f, p, n)
        assert rep.nodes == sum(len(members) for members, _ in classes)
        assert rep.dead_nodes == sum(len(members) for members, dead in classes if dead)
        assert rep.merges == rep.nodes - len(classes)
        assert rep.live_merged_classes == sum(
            1 for members, dead in classes if not dead and len(members) > 1
        )


def test_report_makes_no_finds_beyond_the_build(corpus_small, monkeypatch):
    calls = [0]
    find = RelationGraph.find_weighted

    def counted(self, x):
        calls[0] += 1
        return find(self, x)

    monkeypatch.setattr(RelationGraph, "find_weighted", counted)
    for f, p, n in corpus_small:
        q = PrimePower(p, n)
        calls[0] = 0
        build_relation_graph(f, q)
        in_build = calls[0]
        calls[0] = 0
        reference_report(f, q)
        assert calls[0] == in_build, (f, p, n)


def _exponent_grid(seed, count):
    """Seeded (binomial, p, n) draws: m = 1..5, p <= 7, q^m <= GRID_QM_CAP,
    exponents 0..q + 2.  About a third copy the lead's first m - 1
    exponents into the trail, so that their paths run inside one row."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        m = rng.randint(1, 5)
        p = rng.choice((2, 3, 5, 7))
        ns = [n for n in range(1, 13) if (p**n) ** m <= GRID_QM_CAP]
        if not ns:
            continue
        n = rng.choice(ns)
        e2 = [rng.randint(0, p**n + 2) for _ in range(m)]
        e1 = [rng.randint(0, p**n + 2) for _ in range(m)]
        if rng.random() < 0.3:
            e1[:-1] = e2[:-1]
        try:
            f = normalize(p, Term(rng.randint(1, p - 1), tuple(e2)), Term(1, tuple(e1)))
        except HKError:
            continue
        out.append((f, p, n))
    return out


def test_report_equals_reference(corpus200, corpus_small):
    grid = _exponent_grid(GRID_SEED, GRID_COUNT)
    edge = [(parse_binomial(poly, p, num_vars), p, n) for poly, p, n, num_vars in EDGE_SHAPES]
    steps, row_paths = [], 0
    for k, (f, p, n) in enumerate(grid + corpus200 + corpus_small + edge):
        q = PrimePower(p, n)
        ref = reference_report(f, q)
        assert hk_oracle_report(f, q) == ref, (f, p, n)
        if ref.merges and k < len(grid):
            steps.append(node_index(f.lead.exps, q.q) > node_index(f.trail.exps, q.q))
            row_paths += f.m > 1 and f.lead.exps[:-1] == f.trail.exps[:-1]
    # the grid takes both path directions, paths inside one row, and an
    # exponent >= q in every position
    assert min(steps.count(True), steps.count(False), row_paths) >= 10, (steps, row_paths)
    for position in range(5):
        assert any(
            max(f.lead.exps[position], f.trail.exps[position]) >= p**n
            for f, p, n in grid
            if f.m > position
        ), position


LARGE = [("x1^5 - x2^3", 31, 2), ("x1*x2^2*x3 - x4^3", 31, 1)]  # 923,521 nodes each


@pytest.mark.parametrize("poly,p,n", LARGE)
def test_report_at_923521_nodes_is_fast(poly, p, n):
    f = parse_binomial(poly, p)
    q = PrimePower(p, n)
    assert q.q**f.m == 923521
    elapsed = []
    for _ in range(3):
        start = time.perf_counter()
        rep = hk_oracle_report(f, q)
        elapsed.append(time.perf_counter() - start)
    assert min(elapsed) < 0.1, elapsed
    assert rep.length == hk_direct_count(f, q)


def test_report_builds_two_multiplier_masks(corpus_small, monkeypatch):
    calls = [0]
    box = oracle._box

    def counted(hi, qq):
        calls[0] += 1
        return box(hi, qq)

    monkeypatch.setattr(oracle, "_box", counted)
    for f, p, n in corpus_small:
        calls[0] = 0
        hk_oracle_report(f, PrimePower(p, n))
        assert calls[0] == 2, (f, p, n)


@pytest.mark.parametrize("poly,p,n", LARGE)
def test_report_at_923521_nodes_holds_few_masks(poly, p, n):
    # a mask is ceil(nodes / 8) bytes; the doubling holds its ceil(log2 q) + 1
    # spans and dead, no multiplier mask outlives it and no span the backward
    # pass: peaks of 10.3 and 6.9 masks here (11.4 and 8.0 with the spans kept)
    f = parse_binomial(poly, p)
    q = PrimePower(p, n)
    mask = math.ceil(q.q**f.m / 8)
    tracemalloc.start()
    try:
        hk_oracle_report(f, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (math.ceil(math.log2(q.q)) + 2) * mask, peak / mask
