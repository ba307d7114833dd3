"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import itertools
import random
import time

import pytest

from hkbinomial import (
    HKError,
    NotApplicableError,
    PrimePower,
    ResourceError,
    Term,
    hk,
    hk_1dim,
    hk_closed_form,
    hk_direct_count,
    hk_oracle,
    hk_quasi_polynomial,
    member_scan,
    mmax_params,
    normalize,
    parse_binomial,
    phi_recursive,
)
from hkbinomial.classify import classify
from tests.closedform_reference import phi_tables
from tests.conftest import two_variable_binomials
from tests.multiplicity_reference import hk_multiplicity_1dim
from tests.oracle_reference import build_relation_graph

F1 = parse_binomial("x1^3 - x2^2", 5)


def _unrank(idx, qq, m):
    out = []
    for _ in range(m):
        out.append(idx % qq)
        idx //= qq
    return tuple(reversed(out))


def test_criterion_1_worked_instance_exactness():
    start = time.monotonic()
    q = PrimePower(5, 1)
    assert hk_closed_form(F1, 5, 1) == 10
    assert hk_direct_count(F1, q) == 10
    assert hk_oracle(F1, q) == 10
    for n in range(1, 5):
        assert hk(F1, 5, n).value == 2 * 5**n
    assert hk_multiplicity_1dim(F1) == (2, "I(ii)")
    qp = hk_quasi_polynomial(F1, 5)
    assert qp.e_hk == 2 and set(qp.classes) == {(0, 2)}  # HK = 2q on every class
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    print(f"\nPASS criterion 1: worked instance exact on all engines ({elapsed:.3f}s)")


def test_criterion_2_three_way_engine_agreement(corpus200):
    assert len(corpus200) >= 200
    start = time.monotonic()
    closed_hits = 0
    for f, p, n in corpus200:
        q = PrimePower(p, n)
        direct = hk_direct_count(f, q)
        oracle = hk_oracle(f, q)
        assert direct == oracle, (f, p, n)
        try:
            closed = hk_closed_form(f, p, n)
        except NotApplicableError:
            continue
        closed_hits += 1
        assert closed == oracle, (f, p, n)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(
        f"\nPASS criterion 2: {len(corpus200)} instances agree exactly "
        f"(closed form applicable on {closed_hits}) in {elapsed:.1f}s"
    )


def test_criterion_3_membership_reproduces_oracle_classes(corpus200):
    monomials = 0
    for f, p, n in corpus200:
        q = PrimePower(p, n)
        graph = build_relation_graph(f, q)
        survivors = 0
        for members, dead in graph.classes():
            verdicts = [member_scan(_unrank(v, q.q, f.m), f, q)[0].member for v in members]
            monomials += len(members)
            if dead:
                assert all(verdicts), (f, p, n, members)
            else:
                assert verdicts.count(False) == 1, (f, p, n, members)
                survivors += 1
        assert survivors == hk_direct_count(f, q)
    print(f"\nPASS criterion 3: per-monomial verdicts match on {monomials} monomials")


def test_criterion_4_scan_bound_lemma(corpus200):
    # the scan bound of A, the most trades M with A - M*lead + (M - 1)*trail >= 0,
    # is min floor((A_i - b)/a) over the shrinking variables, and the top scan
    # bound at A_i = q - 1
    checked = 0
    for f, p, n in corpus200:
        cls = classify(f)
        try:
            params = mmax_params(cls, p, n)
        except NotApplicableError:
            continue
        q = PrimePower(p, n)
        e2, e1 = f.lead.exps, f.trail.exps
        for A in itertools.product(*[range(e, q.q) for e in e2]):
            bound = min((A[prm.var - 1] - prm.b) // prm.a for prm in params)
            assert member_scan(A, f, q)[0].mmax_scanned == bound, (f, p, n, A)
            at, past = (min(a - M * x + (M - 1) * y for a, x, y in zip(A, e2, e1))
                        for M in (bound, bound + 1))  # the least exponent after M trades
            assert at >= 0 > past, (f, p, n, A)
            if A == (q.q - 1,) * f.m:
                assert bound == min(prm.top_value for prm in params), (f, p, n)
            checked += 1
    assert checked > 0
    print(f"\nPASS criterion 4: closed scan bound equals the scan on {checked} monomials")


def test_criterion_5_phi_consistency(corpus200):
    # the library's product formula for the block count is the paper's chain
    agree = 0
    for f, p, n in corpus200:
        cls = classify(f)
        if cls.t == 0:
            continue
        try:
            params = mmax_params(cls, p, n)
        except NotApplicableError:
            continue
        for M in range(1, min(prm.top_value for prm in params) + 1):
            assert phi_recursive(M, cls, p, n) == phi_tables(M, cls, p, n).phi, (f, p, n, M)
            agree += 1
    assert agree > 0
    print(f"\nPASS criterion 5: the product formula equals the paper's chain on {agree} bounds")


def test_criterion_6_zero_difference_family():
    rng = random.Random(606)
    done = 0
    while done < 20:
        p = rng.choice([2, 3, 5])
        lo = rng.randint(0, 3)
        hi = rng.randint(lo + 1, 4)
        c = rng.randint(0, 4)
        try:
            f = normalize(p, Term(1, (hi, c)), Term(1, (lo, c)))
        except HKError:
            continue
        cls = classify(f)
        assert cls.s == 1 and cls.t == 0
        maxexp = max(hi, c)
        x1min, x2min = f.trail.exps
        n = 1
        while p**n <= maxexp:
            n += 1
        for nn in (n, n + 1):
            qq = p**nn
            expected = (x1min + x2min) * qq - x1min * x2min
            assert hk_1dim(f, p, nn)[0] == expected
            assert hk(f, p, nn).value == expected
        done += 1
    print("\nPASS criterion 6: 20 zero-difference binomials match the affine form")


def test_criterion_7_integer_multiplicity_dimension_one(corpus200):
    # the exact e_HK is an integer, the case split's, on every m = 2 binomial:
    # corpus200's and 50 with small exponents and any lead coefficient
    fs = ([f for f, _, _ in corpus200 if f.m == 2]
          + two_variable_binomials(707, (3, 5), 4, lead_coefficient=True))
    assert len(fs) > 100
    for f in fs:
        e_hk = hk_quasi_polynomial(f, f.p).e_hk
        assert e_hk.denominator == 1, (f, e_hk)
        assert e_hk == hk_multiplicity_1dim(f)[0], (f, e_hk)
    print(f"\nPASS criterion 7: {len(fs)} two-variable multiplicities are their exact integers")


def test_criterion_8_invariance_suite(corpus200):
    rng = random.Random(808)
    relabeled = rescaled = 0
    for f, p, n in corpus200:
        if relabeled >= 50 and rescaled >= 50:
            break
        base = hk(f, p, n).value
        if relabeled < 50:
            perm = list(range(f.m))
            rng.shuffle(perm)
            e2 = tuple(f.lead.exps[i] for i in perm)
            e1 = tuple(f.trail.exps[i] for i in perm)
            try:
                g = normalize(p, Term(f.lead.coeff, e2), Term(f.trail.coeff, e1))
                assert hk(g, p, n).value == base, (f, g, p, n)
                relabeled += 1
            except HKError:
                pass
        if rescaled < 50:
            c2 = rng.randint(1, p - 1)
            c1 = rng.randint(1, p - 1)
            g = normalize(p, Term(c2, f.lead.exps), Term(c1, f.trail.exps))
            assert hk(g, p, n).value == base, (f, g, p, n)
            rescaled += 1
    assert relabeled >= 50 and rescaled >= 50
    print(
        f"\nPASS criterion 8: value invariant under {relabeled} relabelings "
        f"and {rescaled} coefficient changes"
    )


def test_criterion_9_performance_separation(corpus200):
    start = time.monotonic()
    value = hk_closed_form(F1, 5, 8)
    elapsed = time.monotonic() - start
    assert value == 781250
    assert elapsed < 1.0, f"closed form took {elapsed:.3f}s"
    with pytest.raises(ResourceError):
        hk_oracle(F1, PrimePower(5, 8))
    # bounded remainder: |HK(p^n) - c*p^n| stays bounded over n = 1..4
    checked = 0
    for f, p, n in corpus200:
        if f.m != 2:
            continue
        c = hk_quasi_polynomial(f, f.p).e_hk
        maxexp = max(max(f.lead.exps), max(f.trail.exps))
        for nn in range(1, 5):
            remainder = abs(hk(f, p, nn).value - c * p**nn)
            assert remainder <= 4 * (maxexp + 1) ** 2, (f, p, nn, remainder)
        checked += 1
    assert checked > 0
    print(
        f"\nPASS criterion 9: closed form at q=5^8 in {elapsed:.3f}s, oracle over budget, "
        f"remainder bounded on {checked} two-variable instances"
    )
