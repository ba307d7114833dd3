import pytest

from hkbinomial import (
    NotApplicableError,
    PrimePower,
    member_scan,
    mmax_params,
    parse_binomial,
)
from hkbinomial.classify import classify

F1 = parse_binomial("x1^3 - x2^2", 5)


def test_params_worked_instance():
    prm = mmax_params(classify(F1), 5, 1)[0]
    assert (prm.a, prm.b, prm.top_value) == (3, 0, 1)  # 4 = 3*1 + 1
    with pytest.raises(NotApplicableError):
        mmax_params(classify(F1), 3, 1)  # q = nmax = 3


def test_params_exact_division_branch():
    # a=2, b=0, p=3, n=2: p^n - 1 = 8 = 2*4 + 0
    f = parse_binomial("x1^2 - x2", 3)  # lead (2,0): delta = (-2, 1)
    cls = classify(f)
    assert (cls.neg[0].a, cls.neg[0].b) == (2, 0)
    assert mmax_params(cls, 3, 2)[0].top_value == 4


def test_params_large_b_branch():
    # a=2, b=3: the minimum power is at least the drop
    f = parse_binomial("x1*x2^5 - x1^3*x2^3", 3)  # lead (1,5): x2 shrinks, min 3
    cls = classify(f)
    assert (cls.neg[0].a, cls.neg[0].b) == (2, 3)
    with pytest.raises(NotApplicableError):
        mmax_params(cls, 3, 1)  # q = 3 <= nmax = 5
    assert mmax_params(cls, 3, 2)[0].top_value == 2  # 8 - 3 = 2*2 + 1


def test_params_small_remainder_branch():
    # a=3, b=2, q=25: rem(24, 3) = 0 < b, so the top value is m_div - 1
    f = parse_binomial("x1^5*x2 - x1^2*x2^3", 5)  # lead (5,1): x1 shrinks by 3, min 2
    cls = classify(f)
    assert (cls.neg[0].a, cls.neg[0].b) == (3, 2)
    assert mmax_params(cls, 5, 2)[0].top_value == 7  # 22 = 3*7 + 1


def test_closed_examples():
    # the scan bound of a monomial: 0 where the lead term does not divide it
    q = PrimePower(5, 1)
    assert [member_scan(A, F1, q)[0].mmax_scanned for A in ((4, 1), (3, 0), (2, 0))] == [1, 1, 0]


def test_closed_unit_drop():
    # a=1, b=0: the scan bound at the top exponent is q-1
    f = parse_binomial("x1^2 - x1*x2", 5)  # lead (1,1): x2 shrinks by 1, min 0
    cls = classify(f)
    assert (cls.neg[0].a, cls.neg[0].b) == (1, 0)
    assert mmax_params(cls, 5, 1)[0].top_value == 4
    assert member_scan((1, 4), f, PrimePower(5, 1))[0].mmax_scanned == 4
