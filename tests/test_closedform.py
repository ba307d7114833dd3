import random
import time
from collections import Counter
from types import SimpleNamespace

import pytest

from hkbinomial import (
    ContractError,
    DomainError,
    HKError,
    NotApplicableError,
    PrimePower,
    Term,
    hk,
    hk_1dim,
    hk_closed_form,
    hk_closed_form_tables,
    hk_direct_count,
    hk_oracle,
    hk_oracle_report,
    mmax_params,
    normalize,
    parse_binomial,
    phi_recursive,
)
from hkbinomial import closedform
from hkbinomial.classify import classify
from hkbinomial.closedform import PiecewisePoly, closed_form_at, g_chain
from hkbinomial.oracle import ORACLE_CAP
from tests.conftest import random_binomials
from tests.closedform_reference import (
    g_complement,
    hk_closed_form_naive,
    phi_closed_simple,
    phi_product,
    phi_tables,
)

F1 = parse_binomial("x1^3 - x2^2", 5)


def test_phi_worked_instance():
    cls = classify(F1)
    tab = phi_tables(1, cls, 5, 1)
    assert tab.minc == (2,)
    assert tab.h_ == (1,)
    assert tab.d_ == (2,)
    assert tab.phi == 2
    assert phi_recursive(1, cls, 5, 1) == 2


def test_phi_zero_minimum_fold():
    # a zero-difference variable with minimum 0 multiplies the count by q
    g = parse_binomial("x1^2 - x3", 3, num_vars=3)  # x2 unused: zmin = 0
    cg = classify(g)
    assert cg.s == 1 and cg.zero[0].zmin == 0
    base = classify(parse_binomial("x1^2 - x2", 3))
    for M in (1, 2):
        assert phi_recursive(M, cg, 3, 1) == phi_recursive(M, base, 3, 1) * 3


def test_phi_saturated_branch():
    # first escape window covers everything: count collapses to the trail floor
    f = parse_binomial("x1^4 - x2", 3)  # delta_P = 1, pmin = 0, a = 4
    cls = classify(f)
    # at q=3, minc = min(3-0, M*1): M = 3 saturates
    assert phi_recursive(3, cls, 3, 1) == phi_product(3, cls, 3, 1)


def test_phi_chain_equals_product(corpus_small):
    for f, p, n in corpus_small:
        cls = classify(f)
        if cls.t == 0:
            continue
        try:
            params = mmax_params(cls, p, n)
        except NotApplicableError:
            continue
        top = min(prm.top_value for prm in params)
        for M in range(1, top + 1):
            assert phi_recursive(M, cls, p, n) == phi_product(M, cls, p, n)
            assert phi_recursive(M, cls, p, n) == phi_tables(M, cls, p, n).phi


def test_phi_value_equals_the_papers_chain_on_a_grid():
    # every integer Q, including Q at or below an exponent, and M past the top scan bound
    rng = random.Random(20261019)
    drawn = fixed = 0
    while drawn < 150:
        m = rng.randint(2, 6)
        lead = [rng.randint(0, 5) for _ in range(m)]
        trail = [rng.randint(0, 5) for _ in range(m)]
        if rng.random() < 0.4:
            k = rng.randrange(m)
            trail[k] = lead[k]
        try:
            cls = classify(normalize(2, Term(1, tuple(lead)), Term(1, tuple(trail))))
        except HKError:
            continue
        if cls.t == 0:
            continue
        drawn += 1
        fixed += cls.s > 0
        for Q in range(1, 17):
            for M in range(1, Q + 3):
                assert closedform._phi_value(M, cls, Q) == phi_tables(M, cls, Q, 1).phi, (cls, Q, M)
    assert fixed >= 30


def test_phi_simple_guard_and_agreement(corpus_small):
    seen_ok = 0
    for f, p, n in corpus_small:
        cls = classify(f)
        if cls.t == 0:
            continue
        try:
            params = mmax_params(cls, p, n)
        except NotApplicableError:
            continue
        top = min(prm.top_value for prm in params)
        for M in range(1, top + 1):
            try:
                v = phi_closed_simple(M, cls, p, n)
            except NotApplicableError:
                continue
            assert v == phi_recursive(M, cls, p, n)
            seen_ok += 1
    assert seen_ok > 0


def test_phi_simple_guard_fails_on_worked_instance():
    with pytest.raises(NotApplicableError):
        phi_closed_simple(1, classify(F1), 5, 1)


def test_phi_errors():
    cls = classify(parse_binomial("x1^3*x2 - x1*x2", 3))
    with pytest.raises(NotApplicableError):
        phi_recursive(1, cls, 3, 1)  # t = 0
    with pytest.raises(DomainError):
        phi_recursive(0, classify(F1), 5, 1)


def test_g_chain_collapsed_seed():
    gch = g_chain(classify(F1), 5, 1)
    assert gch.g_n == (2,)  # the seed passes straight through when t=1, s=0


def test_g_chain_two_growing_variables():
    f = parse_binomial("x1^3 - x2*x3", 3)
    cls = classify(f)
    assert cls.t == 2 and cls.s == 0 and cls.r == 1
    gch = g_chain(cls, 3, 1)
    q = 3
    p1max = cls.pos[0].pmax
    p2max = cls.pos[1].pmax
    assert gch.g_p[0] == min(p2max, q)
    assert gch.g_n[0] == (q - p1max) * gch.g_p[0] + p1max * q
    assert gch.g_n[0] == g_complement(cls, 3, 1, "N", 1)


def test_g_chain_matches_complement(corpus_small):
    kinds = set()
    for f, p, n in corpus_small:
        cls = classify(f)
        if cls.t == 0:
            continue
        gch = g_chain(cls, p, n)
        for kind, values in (("P", gch.g_p), ("Z", gch.g_z), ("N", gch.g_n)):
            assert len(values) == {"P": cls.t - 1, "Z": cls.s, "N": cls.r}[kind]
            expected = [g_complement(cls, p, n, kind, i) for i in range(1, len(values) + 1)]
            assert list(values) == expected
            if values:
                kinds.add(kind)
    assert kinds == {"P", "Z", "N"}


def test_hand_counted_zero_block_instance():
    # one shrinking, one fixed, one growing variable: length 15 at q = 3
    f = parse_binomial("x1^2*x2 - x2*x3", 3)
    assert hk_oracle(f, PrimePower(3, 1)) == 15
    assert hk_closed_form(f, 3, 1) == 15


def test_worked_instance_all_routes():
    assert hk_closed_form(F1, 5, 1) == 10
    for n in range(1, 5):
        assert hk_closed_form(F1, 5, n) == 2 * 5**n


def test_coordinate_line():
    f = parse_binomial("x1 - x2", 7)
    for n in (1, 2, 3):
        assert hk_closed_form(f, 7, n) == 7**n


def test_not_applicable_when_no_growth():
    with pytest.raises(NotApplicableError):
        hk_closed_form(parse_binomial("x1^3*x2 - x1*x2", 3), 3, 1)


def test_prefix_assembly_equals_naive(corpus_small):
    for f, p, n in corpus_small:
        try:
            a = hk_closed_form(f, p, n)
        except NotApplicableError:
            continue
        assert a == hk_closed_form_naive(f, p, n)


def test_monotone_sanity(corpus_small):
    for f, p, n in corpus_small:
        try:
            v = hk_closed_form(f, p, n)
        except NotApplicableError:
            continue
        assert 0 <= v <= (p**n) ** f.m


def test_tables_shape():
    value, by_bound = hk_closed_form_tables(F1, 5, 1)
    assert value == 10
    assert by_bound.length == 1 and by_bound(0) == 4  # phi(1) = 2, times x1 = 3, 4
    assert mmax_params(classify(F1), 5, 1)[0].top_value == 1


def test_piecewise_poly_values_and_prefix_sums():
    def fn(j):
        return min(j, 7) ** 2

    brute = [fn(j) for j in range(40)]
    for breaks in ({7}, {7, 3, 20, 39, -5, 40, 99}):  # extra and out-of-range cuts
        poly = PiecewisePoly(fn, 40, breaks, 2)
        assert [poly(j) for j in range(40)] == brute
        assert poly.total == sum(brute)
    with pytest.raises(ContractError):
        poly(40)
    with pytest.raises(ContractError):
        poly(-1)


def test_piecewise_poly_missing_cut_is_contract_error():
    with pytest.raises(ContractError):
        PiecewisePoly(lambda j: min(j, 7) ** 2, 40, set(), 2)


def test_two_variable_values_at_huge_q():
    for poly, p, n in [("x1^3 - x2^2", 5, 50), ("x1^5*x2 - x1*x2^4", 5, 50),
                       ("x1^3 - x2^2", 2, 100), ("x1^2*x2^3 - x1^7", 2, 100)]:
        f = parse_binomial(poly, p)
        assert hk_closed_form(f, p, n) == hk_1dim(f, p, n)[0], (poly, p, n)


M3_SHAPE = parse_binomial("x1^2*x2^2 - x3^3", 5)  # phi has cuts inside [0, V)
M4_SHAPE = parse_binomial("x1^3*x2^3*x3 - x3^2*x4^4", 5)


@pytest.mark.parametrize("f", [M3_SHAPE, M4_SHAPE], ids=["m3", "m4"])
def test_phi_evaluations_do_not_depend_on_q(f, monkeypatch):
    calls = []

    def counted(M, cls, qq):
        calls.append(M)
        return phi_value(M, cls, qq)

    phi_value = closedform._phi_value
    monkeypatch.setattr(closedform, "_phi_value", counted)
    counts = []
    for n in (6, 40):
        calls.clear()
        hk_closed_form(f, 5, n)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_four_variable_value_at_5_14_is_fast():
    started = time.perf_counter()
    rep = hk(M4_SHAPE, 5, 14)
    assert time.perf_counter() - started < 1.0
    assert rep.engine == "closed" and 0 < rep.value < 5 ** (14 * 4)


def _every_q(Qs, *draw, **kw):
    """(f, qs) per distinct binomial of `random_binomials(*draw, **kw)`: each Q
    in Qs as a PrimePower stand-in, as p and n enter only through q."""
    drawn = dict.fromkeys(f for f, _, _ in random_binomials(*draw, **kw))
    return [(f, [SimpleNamespace(p=f.p, n=1, q=Q) for Q in Qs]) for f in drawn]


def _sized(seed, count, pick_m, fits, top):
    """(f, [PrimePower(p, n)]) for count distinct binomials: m = pick_m(rng,
    binomials so far), q = p^n with fits(q, m) and exponents <= top."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        m = pick_m(rng, len(out))
        p, n = rng.choice([(p, n) for p in (2, 3, 5, 7) for n in range(1, 21) if fits(p**n, m)])
        lead, trail = (tuple(rng.randint(0, top) for _ in range(m)) for _ in range(2))
        try:
            f = normalize(p, Term(rng.randint(1, p - 1), lead), Term(rng.randint(1, p - 1), trail))
        except HKError:
            continue
        drawn = (f, [PrimePower(p, n)])
        if drawn not in out:
            out.append(drawn)
    return out


OFFSET_AND_LARGE_B = [
    # outermost shrinking variable's top bound not minimal (negative level
    # offsets), and minimum powers at or above the drop (the multiple-of-a
    # shift branch)
    ("x1*x2^4*x3 + x1^2*x2^3", 5, 1),
    ("x1^3*x3^2 + x2^3", 5, 1),
    ("x1^3*x2^4*x3^4 + x1^4*x2^3*x3", 5, 1),
    ("x1*x2^4*x3^4 + x1^4*x2*x3^2", 3, 2),
]
COMPARED = {  # an engine's count at q, or None where the row does not compare it
    "oracle": lambda f, q: hk_oracle_report(f, q).length,
    "capped oracle": lambda f, q: hk_oracle_report(f, q).length if q.q**f.m <= ORACLE_CAP else None,
    "direct": lambda f, q: hk_direct_count(f, q, enum_cap=q.q**f.m),
    "uncapped oracle": lambda f, q: hk_oracle_report(f, q, node_cap=q.q**f.m).length,
    "auto": lambda f, q: hk(f, q.p, q.n).value,
}
EVERY_Q_ROWS = {  # id: (draw, engines compared, floors on the points or binomials counted)
    "Q-1-to-12": (lambda: _every_q(range(1, 13), 1601, 240, ms=(2, 3), max_exp=6, qm_cap=10**9)
                  + _every_q(range(1, 9), 1602, 60, ms=(4,), max_exp=5, qm_cap=10**9),
                  ("oracle",), {"closed": 1001}),
    "Q-13-to-40": (lambda: _every_q(range(13, 41), 1603, 40, ms=(2, 3), ns=(1,), max_exp=6),
                   ("oracle", "direct"), {"closed": 501, "m=3": 10}),
    "m4-5-Q-9-to-40": (lambda: _every_q(range(9, 41), 1604, 40, ms=(4, 5), ns=(1,), max_exp=10),
                       ("direct", "capped oracle"), {"closed": 1001, "capped oracle": 501, "m=5": 10}),
    "m6-8": (lambda: _every_q([*range(1, 61), 97, 128, 243, 1000, 4096], 1605, 40, ms=(6, 7, 8),
                              ns=(1,), max_exp=10),
             ("direct",), {"closed": 2000, "m=8": 10}),
    "large-q": (lambda: _sized(1606, 12, lambda rng, _: rng.randint(2, 8),
                               lambda q, m: 10**5 <= q <= 2**20, 10),
                ("auto", "direct"), {"closed": 8, "m=8": 1}),
    "2M": (lambda: _sized(20261020, 12, lambda _, i: 2 + i % 4,
                          lambda q, m: 2 * 10**5 <= q**m <= 2 * 10**6, 6),
           ("auto", "direct", "uncapped oracle"),
           {"closed": 6, "m=2": 2, "m=3": 2, "m=4": 2, "m=5": 2,
            "auto": 12, "direct": 12, "uncapped oracle": 12}),
}


def _agree_at_every_q(drawn, engines, floors):
    # at every Q, on every shape, the body is each engine's count of S/(x_1^Q, ..., x_m^Q, f)
    counts = Counter()
    for f, qs in drawn:
        counts[f"m={f.m}"] += 1
        for q in qs:
            value, by_bound = closed_form_at(classify(f), q.q)  # classify is cached
            counts["closed"] += by_bound is not None
            for engine in engines:
                count = COMPARED[engine](f, q)
                assert count is None or value == count, (f, q.q, engine)
                counts[engine] += count is not None
    assert all(counts[k] >= floor for k, floor in floors.items()), counts


@pytest.mark.parametrize("row", EVERY_Q_ROWS)
def test_closed_form_is_the_length_at_every_q(row):
    draw, engines, floors = EVERY_Q_ROWS[row]
    _agree_at_every_q(draw(), engines, floors)


def test_agreement_with_enumeration(corpus_small):
    _agree_at_every_q([(f, [PrimePower(p, n)]) for f, p, n in corpus_small], ("direct",),
                      {"closed": 13, "direct": 60})


def test_regression_offset_and_large_b_instances():
    _agree_at_every_q([(parse_binomial(poly, p), [PrimePower(p, n)])
                       for poly, p, n in OFFSET_AND_LARGE_B],
                      ("direct", "oracle"), {"closed": 4, "direct": 4, "oracle": 4})
