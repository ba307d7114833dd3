import itertools
import sys
import time

import pytest

from hkbinomial import (
    Binomial,
    ConstantTermError,
    DegenerateBinomialError,
    DimensionError,
    DomainError,
    ParseError,
    PrimePower,
    ResourceError,
    Term,
    ZeroCoefficientError,
    classify,
    deglex_compare,
    hk,
    hk_1dim,
    hk_quasi_polynomial,
    mmax_params,
    normalize,
    parse_binomial,
    parse_monomial,
    phi_recursive,
    render,
)
from hkbinomial.algebra import GREATER, LESS, EQUAL, MR_EXACT_BELOW, check_field, is_prime
from tests.conftest import random_binomials


def test_deglex_degree_dominates():
    assert deglex_compare((3, 0), (0, 2)) == GREATER


def test_deglex_tie_break_last_variable_most_significant():
    assert deglex_compare((2, 1), (0, 3)) == LESS
    assert deglex_compare((1, 1), (1, 1)) == EQUAL


def test_deglex_dimension_mismatch():
    with pytest.raises(DimensionError):
        deglex_compare((1, 2), (1, 2, 3))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_deglex_total_order_exhaustive(m):
    vecs = list(itertools.product(range(4), repeat=m))
    for u in vecs:
        assert deglex_compare(u, u) == EQUAL
        for v in vecs:
            c = deglex_compare(u, v)
            assert c == -deglex_compare(v, u)
            if u != v:
                assert c != EQUAL
            if c == GREATER:
                assert sum(u) >= sum(v)
    if m == 3:
        vecs = list(itertools.product(range(3), repeat=m))
    for u, v, w in itertools.product(vecs, repeat=3):
        if deglex_compare(u, v) != LESS and deglex_compare(v, w) != LESS:
            assert deglex_compare(u, w) != LESS


def test_normalize_by_degree():
    f = normalize(5, Term(1, (3, 0)), Term(4, (0, 2)))
    assert f.lead.exps == (3, 0)
    assert f.trail == Term(4, (0, 2))


def test_normalize_tie_break():
    f = normalize(3, Term(2, (1, 1)), Term(1, (2, 0)))
    assert f.lead.exps == (1, 1)


def test_normalize_zero_coefficient():
    with pytest.raises(ZeroCoefficientError):
        normalize(5, Term(5, (2, 0)), Term(1, (0, 1)))
    with pytest.raises(ZeroCoefficientError):  # a Binomial takes residues only: 5 is not one
        Binomial(5, 2, Term(5, (2, 0)), Term(1, (0, 1)))


def test_normalize_degenerate_and_constant():
    with pytest.raises(DegenerateBinomialError):
        normalize(5, Term(1, (2, 1)), Term(2, (2, 1)))
    with pytest.raises(ConstantTermError):
        normalize(5, Term(1, (0, 0)), Term(2, (2, 1)))


@pytest.mark.parametrize("p", [0, 1, -5, 4])
def test_normalize_and_parse_check_p_before_reducing(p):
    with pytest.raises(DomainError, match=f"{p} is not prime"):
        normalize(p, Term(1, (3, 0)), Term(1, (0, 2)))
    with pytest.raises(DomainError, match=f"{p} is not prime"):
        parse_binomial("x1^3 - x2^2", p)


def test_term_and_binomial_refuse_bad_exponents():
    with pytest.raises(DomainError, match=r"negative exponent in \(1, -2\)"):
        Term(1, (1, -2))
    with pytest.raises(DimensionError, match="term length does not match variable count"):
        Binomial(5, 2, Term(1, (3, 0)), Term(1, (0, 2, 1)))


def test_normalize_dimension_mismatch():
    with pytest.raises(DimensionError):
        normalize(5, Term(1, (3, 0)), Term(1, (0, 2, 1)))


def test_normalize_swap_invariant_and_idempotent():
    a, b = Term(2, (1, 3)), Term(4, (4, 0))
    f1 = normalize(5, a, b)
    f2 = normalize(5, b, a)
    assert f1 == f2
    assert normalize(5, f1.lead, f1.trail) == f1


def test_parse_basic():
    f = parse_binomial("x1^3 - x2^2", 5)
    assert f.lead == Term(1, (3, 0))
    assert f.trail == Term(4, (0, 2))


def test_parse_char2_collapse():
    with pytest.raises(DegenerateBinomialError):
        parse_binomial("x1*x2^2 + x1*x2^2", 2)


def test_parse_combines_and_orders():
    f = parse_binomial("x1^3*x2 - x1*x2", 3)
    assert f.lead.exps == (3, 1)
    assert f.trail == Term(2, (1, 1))


def test_parse_coefficients_and_whitespace():
    f = parse_binomial(" 2*x1^3*x2  -  x2^5 ", 7)
    assert f.lead == Term(2, (3, 1)) or f.trail == Term(2, (3, 1))
    assert f.m == 2


def test_parse_vars_override():
    f = parse_binomial("x1^2 - x2", 5, num_vars=3)
    assert f.m == 3
    assert f.lead.exps == (2, 0, 0)
    with pytest.raises(ParseError):
        parse_binomial("x1 - x3", 5, num_vars=2)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_binomial("x1 + + x2", 5)
    with pytest.raises(ParseError):
        parse_binomial("y1 - x2", 5)
    with pytest.raises(DegenerateBinomialError):
        parse_binomial("x1 + x2 + x1^2", 5)
    with pytest.raises(ConstantTermError):
        parse_binomial("x1 - 3", 5)


def test_parse_render_round_trip():
    for f, _, _ in random_binomials(99, 40):
        assert parse_binomial(render(f), f.p, f.m) == f


def test_a_literal_past_the_digit_limit_parses_when_there_is_no_limit():
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert parse_binomial(f"x1^{'9' * 5000} - x2", 5).lead.exps == (10**5000 - 1, 0)
    finally:
        sys.set_int_max_str_digits(saved)


def test_parse_monomial_forms():
    assert parse_monomial("x1^4*x2") == (4, 1)
    assert parse_monomial("4,1") == (4, 1)
    assert parse_monomial("x2^3", num_vars=3) == (0, 3, 0)
    with pytest.raises(ParseError):
        parse_monomial("2*x1")


def test_prime_power():
    q = PrimePower(5, 3)
    assert q.q == 125
    with pytest.raises(Exception):
        PrimePower(6, 2)


def test_check_field_builds_each_prime_power_once_and_refuses_on_every_call():
    f = parse_binomial("x1^3 - x2^2", 5)
    assert check_field(f, 5, 3) is check_field(f, 5, 3) == PrimePower(5, 3)
    check_field(f, 5, 1)  # cached: an equal key of another type must not reach it
    for _ in range(2):  # a refusal is not cached
        for p, n, message in [(3, 1, "does not match"), (5, 0, "must be positive"), (5, -1, "got -1"),
                              (5, True, "must be an integer"), (5.0, 1, "must be an integer")]:
            with pytest.raises(DomainError, match=message):
                check_field(f, p, n)


def test_a_p_n_or_variable_count_that_is_not_an_int_is_refused():
    # a float equal to an int, or a bool, reached the engines as a float q or as n = 1
    f = parse_binomial("x1^3 - x2^2", 5)
    calls = [lambda e=e, p=p, n=n: hk(f, p, n, engine=e)
             for e in ("auto", "closed", "direct", "oracle") for p, n in [(5.0, 2), (5, 2.0), (5, True)]]
    calls += [
        lambda: hk_quasi_polynomial(f, 5.0),
        lambda: hk_1dim(f, 5, 2.0),
        lambda: parse_binomial("x1^3 - x2^2", 5.0),
        lambda: parse_binomial("x1^3 - x2^2", 5, 2.0),
        lambda: parse_binomial("x1^3 - x2^2", 5, True),
        lambda: parse_monomial("x1^2", 2.0),
        lambda: PrimePower(5, 2.0),
        lambda: PrimePower(5.0, 2),
        lambda: PrimePower(True, 1),
        lambda: phi_recursive(1, classify(f), 5, 2.0),
        lambda: mmax_params(classify(f), 5, 2.0),
        lambda: normalize(5.0, Term(1, (3, 0)), Term(4, (0, 2))),
        lambda: Binomial(5.0, 2, Term(1, (3, 0)), Term(4, (0, 2))),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="must be an integer"):
            call()
    assert hk(f, 5, 2).value == hk(f, 5, 2, engine="oracle").value == 50


def test_binomial_rejects_unise_lead():
    with pytest.raises(Exception):
        Binomial(p=5, m=2, lead=Term(1, (0, 2)), trail=Term(1, (3, 0)))


def is_prime_trial(p: int) -> bool:
    """Trial division by odd numbers up to the square root: O(sqrt p)."""
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def test_is_prime_agrees_with_trial_division():
    check = is_prime.__wrapped__  # uncached, so the cache is not flushed
    assert [k for k in range(-5, 10**5) if check(k) != is_prime_trial(k)] == []


def test_is_prime_rejects_strong_pseudoprimes():
    assert not is_prime(3825123056546413051)  # strong pseudoprime to bases 2..23
    assert not is_prime(318665857834031151167461)  # strong pseudoprime to bases 2..37


@pytest.mark.parametrize("p", [2**61 - 1, 10**18 + 3])
def test_is_prime_large_prime_is_fast(p):
    started = time.perf_counter()
    assert is_prime.__wrapped__(p)
    assert time.perf_counter() - started < 0.01


def test_is_prime_refuses_at_its_exact_bound():
    assert MR_EXACT_BELOW == 3317044064679887385961981
    for p in (MR_EXACT_BELOW, MR_EXACT_BELOW + 2, 10**40):
        with pytest.raises(ResourceError) as err:
            is_prime(p)
        assert (err.value.required, err.value.budget) == (p, MR_EXACT_BELOW)
