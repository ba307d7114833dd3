import itertools

import pytest

from hkbinomial import (
    ContractError,
    NotApplicableError,
    PrimePower,
    mmax_params,
    parse_binomial,
)
from hkbinomial.classify import classify
from tests.closedform_reference import bracket_index, brackets, mmax_closed, mmax_three_branch
from tests.keycheck_reference import is_member

F1 = parse_binomial("x1^3 - x2^2", 5)


def test_params_worked_instance():
    prm = mmax_params(classify(F1), 5, 1)[0]
    assert (prm.a, prm.b) == (3, 0)
    excess, ktilde_last, a_prime = brackets(prm, 5)
    assert (prm.top_value, excess) == (1, 1)  # 4 = 3*1 + 1
    assert ktilde_last == 1
    assert a_prime == 0


def test_params_exact_division_branch():
    # a=2, b=0, p=3, n=2: p^n - 1 = 8 = 2*4 + 0
    f = parse_binomial("x1^2 - x2", 3)  # lead (2,0): delta = (-2, 1)
    cls = classify(f)
    assert (cls.neg[0].a, cls.neg[0].b) == (2, 0)
    prm = mmax_params(cls, 3, 2)[0]
    assert (prm.top_value, brackets(prm, 9)[0]) == (4, 0)


def test_params_large_b_branch():
    # a=2, b=3: y = least positive multiple of 2 that is >= 3 - rem
    f = parse_binomial("x1*x2^5 - x1^3*x2^3", 3)  # lead (1,5): x2 shrinks, min 3
    cls = classify(f)
    assert (cls.neg[0].a, cls.neg[0].b) == (2, 3)
    with pytest.raises(NotApplicableError):
        mmax_params(cls, 3, 1)  # q = 3 <= nmax = 5
    prm = mmax_params(cls, 3, 2)[0]  # q = 9, rem(8, 2) = 0, y = 4: 8 - 3 = 2*(4 - 2) + 1
    assert (prm.top_value, brackets(prm, 9)[0]) == (2, 1)


def test_params_small_remainder_branch():
    # a=3, b=2, q=25: rem(24, 3) = 0 < b, so the top value is m_div - 1
    f = parse_binomial("x1^5*x2 - x1^2*x2^3", 5)  # lead (5,1): x1 shrinks by 3, min 2
    cls = classify(f)
    assert (cls.neg[0].a, cls.neg[0].b) == (3, 2)
    prm = mmax_params(cls, 5, 2)[0]
    assert (prm.top_value, brackets(prm, 25)[0]) == (7, 1)  # 22 = 3*7 + 1


def test_three_branch_form_is_divmod():
    branches = [0, 0, 0]
    for a in range(1, 7):
        for b in range(0, 13):
            for qq in range(a + b + 1, 60):
                rem = (qq - 1) % a
                branches[0 if b < a and rem >= b else 1 if b < a else 2] += 1
                assert mmax_three_branch(a, b, qq) == divmod(qq - 1 - b, a)
    assert min(branches) >= 10


def test_closed_examples():
    cls = classify(F1)
    params = mmax_params(cls, 5, 1)
    assert mmax_closed((4, 1), cls, params, PrimePower(5, 1)) == 1
    assert mmax_closed((3, 0), cls, params, PrimePower(5, 1)) == 1
    with pytest.raises(ContractError):
        mmax_closed((2, 0), cls, params, PrimePower(5, 1))


def test_closed_unit_drop():
    # a=1, b=0: bound at the top exponent is q-1
    f = parse_binomial("x1^2 - x1*x2", 5)  # lead (1,1): x2 shrinks by 1, min 0
    cls = classify(f)
    assert (cls.neg[0].a, cls.neg[0].b) == (1, 0)
    params = mmax_params(cls, 5, 1)
    assert mmax_closed((1, 4), cls, params, PrimePower(5, 1)) == 4


def test_bracket_partition_exact(corpus_small):
    for f, p, n in corpus_small:
        cls = classify(f)
        try:
            params = mmax_params(cls, p, n)
        except NotApplicableError:
            continue
        qq = p**n
        for prm in params:
            excess, _, a_prime = brackets(prm, qq)
            assert 0 <= excess < prm.a
            assert 0 <= a_prime <= prm.a
            K = qq - prm.b - prm.a  # q - nmax
            # brackets tile [1, K] with the predicted widths
            widths = {}
            for k in range(1, K + 1):
                j = bracket_index(prm, k, qq)
                widths[j] = widths.get(j, 0) + 1
                # table value agrees with the direct floor form
                assert prm.top_value - j == (qq - k - prm.b) // prm.a
            assert widths.get(0) == min(1 + excess, K)
            top = max(widths)
            for j in range(1, top):
                assert widths[j] == prm.a
            if top >= 1:
                assert widths[top] == (a_prime if a_prime > 0 else prm.a)


def test_closed_equals_scanned_brute(corpus_small):
    for f, p, n in corpus_small:
        cls = classify(f)
        try:
            params = mmax_params(cls, p, n)
        except NotApplicableError:
            continue
        q = PrimePower(p, n)
        ranges = [range(e, q.q) for e in f.lead.exps]
        for A in itertools.product(*ranges):
            assert mmax_closed(A, cls, params, q) == is_member(A, f, q).mmax_scanned
