import gc
import random
import time
from fractions import Fraction
from math import factorial

import pytest

from hkbinomial import (
    ContractError,
    DomainError,
    HKError,
    PrimePower,
    QuasiPolynomial,
    ResourceError,
    Term,
    hk,
    hk_1dim,
    hk_direct_count,
    hk_oracle,
    hk_quasi_polynomial,
    normalize,
    parse_binomial,
)
from hkbinomial import multiplicity
from hkbinomial.classify import classify
from tests.closedform_reference import scan_cuts
from tests.conftest import random_binomials, two_variable_binomials
from tests.multiplicity_reference import hk_multiplicity_1dim, hk_quasi_polynomial_at_prime_powers

F1 = parse_binomial("x1^3 - x2^2", 5)
SLOW = "x1^97*x2 - x2^10*x3^5"  # pi = 96 at p = 5 and at p = 10^6 + 3


def sweep_binomials(seed, count):
    """Distinct binomials, m = 2..5, p in {2, 3, 5, 7}, exponents <= 9."""
    rng = random.Random(seed)
    out, seen = [], set()
    while len(out) < count:
        m, p = rng.randint(2, 5), rng.choice((2, 3, 5, 7))
        e2, e1 = (tuple(rng.randint(0, 9) for _ in range(m)) for _ in range(2))
        try:
            f = normalize(p, Term(rng.randint(1, p - 1), e2), Term(rng.randint(1, p - 1), e1))
        except HKError:
            continue
        if f not in seen:
            seen.add(f)
            out.append(f)
    return out


def class_start(qp, c):
    """The least n >= n0 with n = c (mod period)."""
    return qp.n0 + (c - qp.n0) % qp.period


def class_value(qp, n):
    q = qp.p**n
    return sum(a * q**k for k, a in enumerate(qp.classes[n % qp.period]))


def test_1dim_examples():
    assert hk_1dim(F1, 5, 1) == (10, "I(ii)")
    assert hk_1dim(parse_binomial("x1^3*x2 - x1*x2", 3), 3, 2) == (17, "II/III")
    f = parse_binomial("x1 - x2", 7)
    for n in (1, 2, 3):
        assert hk_1dim(f, 7, n) == (7**n, "I(iii)")


def test_1dim_rejects_other_dimensions():
    with pytest.raises(DomainError):
        hk_1dim(parse_binomial("x1^2*x2 - x2*x3", 3), 3, 1)
    with pytest.raises(DomainError):
        hk_multiplicity_1dim(parse_binomial("x1^2*x2 - x2*x3", 3))


def test_multiplicity_integers():
    assert hk_multiplicity_1dim(F1) == (2, "I(ii)")
    assert hk_multiplicity_1dim(parse_binomial("x1^3*x2 - x1*x2", 3)) == (2, "II/III")
    f = parse_binomial("x2^5 - x1*x2^2", 5)  # lead (0,5): a=3 > dp=1
    assert hk_multiplicity_1dim(f)[1] == "I(ii)"
    assert hk_quasi_polynomial(f, f.p).e_hk == hk_multiplicity_1dim(f)[0] == 3


def test_1dim_growth_never_exceeds_shrink(corpus200, corpus_small):
    # dp - a = deg(trail) - deg(lead) <= 0, so no m = 2 binomial has a < dp
    seen = 0
    for f, _, _ in corpus200 + corpus_small:
        cls = classify(f)
        if f.m == 2 and cls.t == 1:
            assert cls.pos[0].dp <= cls.neg[0].a
            seen += 1
    assert seen >= 10


def test_1dim_matches_engines_everywhere():
    # exact for every n, including small q below the exponents
    for f, p, n in random_binomials(71, 50, ms=(2,)):
        assert hk_1dim(f, p, n)[0] == hk_oracle(f, PrimePower(p, n))


def test_1dim_agrees_at_and_above_threshold():
    for f, p, _ in random_binomials(72, 30, ms=(2,)):
        maxexp = max(max(f.lead.exps), max(f.trail.exps))
        n0 = 1
        while p**n0 <= maxexp:
            n0 += 1
        for n in range(n0, n0 + 2):
            if (p**n) ** 2 > 10**6:
                break
            assert hk_1dim(f, p, n)[0] == hk(f, p, n).value


def test_1dim_matches_direct_where_the_growing_variable_has_a_lead_power():
    # where the growing variable divides the lead (pmin > 0), cmin, the scan
    # bound from which the block count is pmin, and the widths past it move
    rng = random.Random(20261020)
    drawn = 0
    while drawn < 100:
        p = rng.choice((2, 3, 5, 7))
        lead, trail = (tuple(rng.randint(0, 7) for _ in range(2)) for _ in range(2))
        try:
            f = normalize(p, Term(1, lead), Term(rng.randint(1, p - 1), trail))
        except HKError:
            continue
        cls = classify(f)
        if cls.t and cls.pos[0].pmin:
            n = rng.randint(1, 4 if p < 5 else 2)
            assert hk_1dim(f, p, n)[0] == hk_direct_count(f, PrimePower(p, n)), (f, p, n)
            drawn += 1


def test_estimate_worked_instance():
    # HK = 2q for every n; rates 3 and 2 give pi = ord_6(5) = 2
    qp = hk_quasi_polynomial(F1, 5)
    assert qp == QuasiPolynomial(2, 5, 3, 2, ((0, 2), (0, 2)), Fraction(2))


def test_estimate_line():
    qp = hk_quasi_polynomial(parse_binomial("x1 - x2", 7), 7)
    assert qp.e_hk == 1 and set(qp.classes) == {(0, 1)}


def test_three_variables_exact_rational():
    qp = hk_quasi_polynomial(parse_binomial("x1^2*x2 - x2*x3", 3), 3)
    assert (qp.period, qp.classes, qp.e_hk) == (1, ((0, -1, 2),), 2)
    qp = hk_quasi_polynomial(parse_binomial("x1^9*x2^2*x3 - x2^5*x3^9*x4^2", 2), 2)
    assert (qp.n0, qp.period, qp.e_hk) == (9, 6, Fraction(310, 27))
    assert len(set(qp.classes)) == 6  # the lower coefficients depend on the class


def test_quasi_polynomial_checks_p():
    with pytest.raises(DomainError, match="p = 3 does not match the binomial over F_5"):
        hk_quasi_polynomial(F1, 3)
    with pytest.raises(DomainError):
        hk_quasi_polynomial(F1, 4)


def test_cut_order_is_fixed_on_each_class_past_n0():
    # the lemma under the fit: past n0, on a class of n mod pi, each cut is
    # q/rate plus a constant, and no two cuts (nor a cut and 0) change order
    checked = 0
    for f in sweep_binomials(1201, 150):
        cls = classify(f)
        if cls.t == 0:
            continue
        qp = hk_quasi_polynomial(f, f.p)
        assert qp == hk_quasi_polynomial_at_prime_powers(f, f.p), f
        for c in range(qp.period):
            rows = []
            for k in range(3):
                qq = f.p ** (class_start(qp, c) + k * qp.period)
                cuts = scan_cuts(cls, qq) + [(None, 0)]
                offsets = [x if r is None else x - Fraction(qq, r) for r, x in cuts]
                order = [[(x > y) - (x < y) for _, y in cuts] for _, x in cuts]
                rows.append((offsets, order))
            assert rows[0] == rows[1] == rows[2], (f, c)
            checked += 1
    assert checked > 100


def test_seeded_sweep_matches_hk_beyond_the_fit():
    periods = set()
    for f in sweep_binomials(1202, 300):
        qp = hk_quasi_polynomial(f, f.p)
        assert qp == hk_quasi_polynomial_at_prime_powers(f, f.p), f
        periods.add(qp.period)
        m = f.m
        assert all(len(coeffs) == m for coeffs in qp.classes)  # no q^m term
        assert {coeffs[m - 1] for coeffs in qp.classes} == {qp.e_hk}
        for c in range(qp.period):
            for k in (m + 1, m + 2):  # the fit used k = 0..m
                n = class_start(qp, c) + k * qp.period
                assert class_value(qp, n) == hk(f, f.p, n).value, (f, n)
        e = min(sum(f.lead.exps), sum(f.trail.exps))
        assert Fraction(e, factorial(m - 1)) <= qp.e_hk <= e, (f, qp.e_hk)
        assert (qp.e_hk == 1) == (e == 1), f
    assert {1, 2, 4, 6} <= periods


def test_m2_multiplicity_is_the_case_split_integer():
    # exponents up to 9 and p up to 7, beyond criterion 7's draw
    fs = two_variable_binomials(1203, (2, 3, 5, 7), 9, lead_coefficient=False)
    for f in fs:
        e_hk = hk_quasi_polynomial(f, f.p).e_hk
        assert e_hk.denominator == 1 and e_hk == hk_multiplicity_1dim(f)[0], f


def test_over_budget_refuses_before_evaluating(monkeypatch):
    calls = []
    monkeypatch.setattr(multiplicity, "closed_form_at", lambda *a: calls.append(a))
    f = parse_binomial("x1 - x3000", 5)
    gc.collect()  # earlier tests' garbage: a full pass over it is not the refusal's cost
    started = time.perf_counter()
    with pytest.raises(ResourceError) as exc:
        hk_quasi_polynomial(f, 5)
    assert time.perf_counter() - started < 0.1
    assert calls == []
    assert exc.value.budget == multiplicity.WORK_BUDGET < exc.value.required


def test_work_budget_is_the_exact_price_of_the_classes(monkeypatch):
    # x2^5 - x1^3 at p = 2: m = 2, bound 54, L = 15 and period 4; a class is
    # priced (m + 1)(m + 40)(4000 + m * bits(54 + 15 * 4))^2, and 114 needs
    # 7 bits where 54 + 15 * 5 would need 8
    f, unit = parse_binomial("x2^5 - x1^3", 2), 3 * 42 * 4014**2
    monkeypatch.setattr(multiplicity, "WORK_BUDGET", 4 * unit)
    assert hk_quasi_polynomial(f, 2) == QuasiPolynomial(2, 2, 6, 4, ((0, 3),) * 4, Fraction(3))
    # one unit less, and a budget the period search passes before it ends
    for budget, required in ((4 * unit - 1, 4 * unit), (2 * unit, 3 * unit)):
        monkeypatch.setattr(multiplicity, "WORK_BUDGET", budget)
        with pytest.raises(ResourceError) as exc:
            hk_quasi_polynomial(f, 2)
        assert (exc.value.required, exc.value.budget) == (required, budget)


def test_large_period_at_a_large_prime_answers():
    # the classes come from small Q, so the work does not grow with the bits of p
    p = 1000003
    qp = hk_quasi_polynomial(parse_binomial(SLOW, p), p)
    at_5 = hk_quasi_polynomial_at_prime_powers(parse_binomial(SLOW, 5), 5)
    assert (qp.period, at_5.period) == (96, 96)
    assert qp.e_hk == at_5.e_hk == Fraction(1410, 97)


@pytest.mark.parametrize(
    "bump,message", [(lambda q: q**2, r"q\^2 term"), (lambda q: q * (q % 3 == 2), "differ")]
)
def test_contract_checks(monkeypatch, bump, message):
    # F1 has period 2 at p = 5, and L = 6: its classes take Q = 1 and Q = 5 (mod 6).
    # A q^2 term, or e_HK 3 on the odd class, must be refused
    real = multiplicity.closed_form_at
    monkeypatch.setattr(
        multiplicity, "closed_form_at", lambda cls, q: (real(cls, q)[0] + bump(q), None, None)
    )
    with pytest.raises(ContractError, match=message):
        hk_quasi_polynomial(F1, 5)


def test_report_serialization_round_trip():
    qp = hk_quasi_polynomial(parse_binomial("x1^9*x2^2*x3 - x2^5*x3^9*x4^2", 2), 2)
    data = qp.json_dict()
    clone = QuasiPolynomial(
        data["m"], data["p"], data["n0"], data["period"],
        tuple(tuple(Fraction(x) for x in row["coefficients"]) for row in data["classes"]),
        Fraction(data["e_hk"]),
    )
    assert clone == qp
    assert [row["residue"] for row in data["classes"]] == list(range(qp.period))
    assert data["e_hk"] == "310/27"
