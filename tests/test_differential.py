"""Seeded differential tests for the auto route and the closed form.

Auto `hk` answers the degenerate shapes (no growing variable, or a lead
exponent >= q) with the trail complement count and every other shape with
the closed form.  These tests draw binomials over a fixed grid (m <= 5,
exponents <= 8, p <= 7, q^m <= 3*10^4) and check that the count equals both
enumerating engines, that the closed form never raises on the remaining
shapes and equals both engines on a seeded subset of them, that permuting
the variables or scaling the coefficients leaves every engine's value
unchanged, that auto mode never enumerates, and that only the closed route
classifies.  `is_monomial_shape`, which reads only exponents, is checked
against the rule as the classification states it.  The closed form's
piecewise-polynomial sum by scan bound is also checked against the O(q)
list fold of `tests/closedform_reference.py`, and each of its terms
against a count over the shrinking exponents.  On the 300 seeded
`direct_cases`, auto `hk` equals the oracle and the direct count, and
neither its engine nor its value changes under the drawn variable
permutation or coefficient scaling.
"""

import random
from collections import Counter
from functools import partial
from itertools import accumulate

import numpy as np
import pytest

from hkbinomial import (
    HKError,
    NotApplicableError,
    PrimePower,
    Term,
    classify,
    closedform,
    engines,
    hk,
    hk_closed_form,
    hk_direct_count,
    hk_oracle,
    mmax_params,
    normalize,
    parse_binomial,
)
from hkbinomial.classify import _classify
from hkbinomial.closedform import hk_closed_form_tables, is_monomial_shape
from tests.closedform_reference import hk_closed_form_linear, phi_product
from tests.conftest import direct_cases

SEED = 20261018
QM_CAP = 3 * 10**4
DEGENERATE_COUNT = 200  # each is enumerated twice, so this sets the test's time
CLOSED_COUNT = 2000
ENUMERATED_CLOSED_COUNT = 120  # closed shapes also enumerated twice
INVARIANCE_COUNT = 40  # of each shape; three forms, each enumerated twice
LINEAR_MAX_N, LINEAR_MAX_Q = 8, 2 * 10**4
MONOMIAL_REFUSAL = ("no growing variable, or a lead exponent is >= q: "
                    "the length is the trail complement count")
# In the reference's level fold, an inner level of these changes formula
# inside [0, Vr) (where a bracket width changes); about 1 random binomial in
# 1000 is so.  The sum by scan bound must match the fold on them too.
FOLD_CUT_CASES = [
    ("x1^4*x2*x3*x4^7 + x1^3*x2^2*x3^2*x4^6", 3, 2),
    ("x1^5*x2^6*x3^12 + x1^2*x2^7*x3^9*x4", 11, 3),
    ("x1^6*x2^6*x3^3*x4^12 + x1^9*x3^7*x4^6", 7, 2),
    ("x1^8*x3^5*x4^11*x5^4 + x1^9*x3^3*x4^9*x5^5", 3, 7),
    ("x1^4*x2^10*x3^10*x4^11 + x1*x2^12*x3^11*x4^8", 2, 8),
]


def _grid(seed, degenerate_count, closed_count):
    """Distinct (binomial, p, n) draws, split by shape."""
    rng = random.Random(seed)
    degenerate, closed, seen = [], [], set()
    while len(degenerate) < degenerate_count or len(closed) < closed_count:
        m = rng.randint(1, 5)
        p = rng.choice((2, 3, 5, 7))
        n = rng.choice([n for n in range(1, 16) if (p**n) ** m <= QM_CAP])
        e2 = tuple(rng.randint(0, 8) for _ in range(m))
        e1 = tuple(rng.randint(0, 8) for _ in range(m))
        try:
            f = normalize(p, Term(rng.randint(1, p - 1), e2), Term(rng.randint(1, p - 1), e1))
        except HKError:
            continue
        if (f, n) in seen:
            continue
        seen.add((f, n))
        if is_monomial_shape(f.lead.exps, f.trail.exps, p**n):
            degenerate.append((f, p, n))
        else:
            closed.append((f, p, n))
    return degenerate[:degenerate_count], closed[:closed_count]


@pytest.fixture(scope="module")
def grid():
    return _grid(SEED, DEGENERATE_COUNT, CLOSED_COUNT)


@pytest.fixture
def no_enumeration(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("auto hk enumerated")

    monkeypatch.setattr(engines, "hk_direct_count", refuse)
    monkeypatch.setattr(engines, "hk_oracle_report", refuse)


@pytest.fixture
def no_classification(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a route that does not read the classification computed it")

    monkeypatch.setattr(engines, "classify", refuse)
    monkeypatch.setattr(closedform, "classify", refuse)


def test_only_the_closed_route_classifies(grid, no_classification, monkeypatch):
    degenerate, _ = grid
    reports = []
    for f, p, n in degenerate:
        value = hk_direct_count(f, PrimePower(p, n))
        rep = hk(f, p, n)
        assert (rep.engine, rep.value) == ("monomial", value), (f, p, n)
        reports.append(rep)
        for engine in ("direct", "oracle"):
            rep = hk(f, p, n, engine=engine)
            assert (rep.engine, rep.value) == (engine, value), (f, p, n)
            reports.append(rep)
    monkeypatch.undo()  # lifts the fixture: a report classifies when read
    for rep in reports:
        assert rep.classification == classify(rep.f)


def test_shape_test_on_exponents_is_the_classification_rule():
    # the old statement of the rule read the classification: t = 0 or a lead
    # exponent >= q; q at the largest lead exponent - 1, + 0, + 1 and p^n draws
    rng = random.Random(SEED + 3)
    checked = Counter()
    for _ in range(3000):
        m = rng.randint(1, 6)
        lead = tuple(rng.randint(0, 8) for _ in range(m))
        trail = tuple(rng.randint(0, 8) for _ in range(m))
        top = max(lead)
        draws = [top - 1, top, top + 1] + [rng.choice((2, 3, 5, 7)) ** rng.randint(1, 4)]
        for q in draws:
            if q < 1:
                continue
            old = _classify(lead, trail).t == 0 or max(lead) >= q
            assert is_monomial_shape(lead, trail, q) == old, (lead, trail, q)
            checked[old] += 1
    assert min(checked.values()) > 2000


def test_degenerate_shapes_match_both_enumerations(grid, no_enumeration):
    degenerate, _ = grid
    assert {f.m for f, _, _ in degenerate} == {1, 2, 3, 4, 5}
    for f, p, n in degenerate:
        rep = hk(f, p, n)
        assert rep.engine == "monomial" and rep.guard_notes == []
        q = PrimePower(p, n)
        assert rep.value == hk_direct_count(f, q) == hk_oracle(f, q), (f, p, n)
        assert closedform.closed_form_at(classify(f), q.q) == (rep.value, None), (f, p, n)
        for closed in (hk_closed_form, hk_closed_form_tables, partial(hk, engine="closed")):
            with pytest.raises(NotApplicableError) as refusal:  # only the (p, n) wrappers refuse
                closed(f, p, n)
            assert str(refusal.value) == MONOMIAL_REFUSAL


def test_closed_form_total_on_other_shapes(grid, no_enumeration):
    _, closed = grid
    assert {f.m for f, _, _ in closed} == {2, 3, 4, 5}
    for f, p, n in closed:
        value = hk_closed_form(f, p, n)  # raises nothing on these shapes
        rep = hk(f, p, n)
        assert (rep.engine, rep.value) == ("closed", value), (f, p, n)


def test_closed_form_matches_both_enumerations(grid):
    _, closed = grid
    for f, p, n in random.Random(SEED).sample(closed, ENUMERATED_CLOSED_COUNT):
        q = PrimePower(p, n)
        assert hk_closed_form(f, p, n) == hk_direct_count(f, q) == hk_oracle(f, q), (f, p, n)


def _relabelled(f, rng):
    """f with its variables permuted, and f with each coefficient scaled."""
    perm = rng.sample(range(f.m), f.m)
    permuted = [Term(t.coeff, tuple(t.exps[i] for i in perm)) for t in (f.lead, f.trail)]
    scaled = [Term(t.coeff * rng.randint(1, f.p - 1), t.exps) for t in (f.lead, f.trail)]
    return normalize(f.p, *permuted), normalize(f.p, *scaled)


def test_values_invariant_under_permutation_and_scaling(grid):
    degenerate, closed = grid
    rng = random.Random(SEED + 1)
    for f, p, n in rng.sample(degenerate, INVARIANCE_COUNT) + rng.sample(closed, INVARIANCE_COUNT):
        q = PrimePower(p, n)
        value = hk(f, p, n).value
        for g in (f, *_relabelled(f, rng)):
            assert hk(g, p, n).value == hk_direct_count(g, q) == hk_oracle(g, q) == value, (f, g)


def test_piecewise_fold_equals_linear_fold(corpus200):
    cases = [
        (f, f.p, n)
        for f in dict.fromkeys(f for f, _, _ in corpus200)
        for n in range(1, LINEAR_MAX_N + 1)
        if f.p**n <= LINEAR_MAX_Q and not is_monomial_shape(f.lead.exps, f.trail.exps, f.p**n)
    ]
    assert len(cases) > 500
    cases += [(parse_binomial(poly, p), p, n) for poly, p, n in FOLD_CUT_CASES]
    for f, p, n in cases:
        cls, qq = classify(f), p**n
        assert qq**f.m < 2**63  # every count below fits in numpy's int64
        total, by_bound = hk_closed_form_tables(f, p, n)
        phis = _phi_products(cls, p, n, max(prm.top_value for prm in mmax_params(cls, p, n)))
        assert total == hk_closed_form_linear(f, p, n, phis=phis)[0], (f, p, n)
        brute = _by_bound_brute(cls, qq, phis)
        assert _values(by_bound) == brute and by_bound(len(brute) - 1) == brute[-1], (f, p, n)


def _phi_products(cls, p, n, top):
    """[0, phi_product(1), ..., phi_product(top)]: `phi_product` on the array
    M = 1..top at once, checked against it at both ends and around each cut."""
    qq = p**n
    M = np.arange(1, top + 1)
    prod_div = prod_rest = prod_h = 1
    for P in cls.pos:
        minc = np.minimum(qq - P.pmin, M * P.dp)
        prod_div *= max(0, qq - P.pmin)
        prod_rest = prod_rest * (qq - P.pmin - minc)
        prod_h = prod_h * np.maximum(0, qq - minc - P.pmax)
    S = (qq**cls.t - prod_div) + (prod_rest - prod_h)
    for j, z in enumerate(cls.zero, 1):
        S = S * (qq - z.zmin) + qq ** (cls.t + j - 1) * z.zmin
    phis = [0] + S.tolist()
    spots = {1, top} | {x + d for _, x in closedform.scan_cuts(cls, qq) for d in (0, 1, 2)}
    for at in spots:
        if 1 <= at <= top:
            assert phis[at] == phi_product(at, cls, p, n), (cls, qq, at)
    return phis


def _by_bound_brute(cls, qq, phis):
    """phis[M] times the shrinking tuples past the lead powers whose least
    scan bound is M, for M = 1, 2, ... while any tuple has that bound.  The
    tuples are counted one exponent at a time: a tuple's bounds are its
    variables' bounds 1 + (e - nmax) // a, so at least M in every variable
    is a product of per-variable counts."""
    at_least = None
    for N in cls.neg:
        bound = 1 + (np.arange(N.nmax, qq) - N.nmax) // N.a  # each exponent's bound
        top = np.append(np.cumsum(np.bincount(bound)[::-1])[::-1], 0)  # top[M]: bound >= M
        at_least = top if at_least is None else at_least[: len(top)] * top[: len(at_least)]
    return [phis[M] * d for M, d in enumerate((at_least[1:-1] - at_least[2:]).tolist(), 1)]


def _values(poly):
    """poly(x) at every x, each piece stepped from its forward differences."""
    out = []
    for lo, hi, diffs in zip(poly.starts, poly.starts[1:] + [poly.length], poly.diffs):
        row = [diffs[-1]] * (hi - lo)
        for d in reversed(diffs[:-1]):
            row = list(accumulate(row[:-1], initial=d))
        out += row
    return out


def test_auto_closed_and_oracle_agree_on_drawn_cases():
    shapes, ms = Counter(), Counter()
    for shape, f, q, permuted, scaled in direct_cases():
        shapes[shape] += 1
        ms[f.m] += 1
        value = hk_direct_count(f, q)
        rep = hk(f, q.p, q.n)
        assert rep.value == hk_oracle(f, q) == value, (f, q.q)
        assert rep.engine == ("closed" if shape == "closed" else "monomial"), (f, q.q)
        for g in (permuted, scaled):
            moved = hk(g, q.p, q.n)
            assert (moved.engine, moved.value) == (rep.engine, value), (f, g, q.q)
    assert min(shapes.values()) >= 80 and ms[1] >= 20, (shapes, ms)
