"""Seeded differential tests for the auto route.

Auto `hk` answers the degenerate shapes (no growing variable, or a lead
exponent >= q) with the trail complement count and every other shape with
the closed form.  These tests draw binomials over a fixed grid (m <= 5,
exponents <= 8, p <= 7, q^m <= 3*10^4) and check that the count equals both
enumerating engines, that the closed form never raises on the remaining
shapes, and that auto mode never enumerates.
"""

import random

import pytest

from hkbinomial import (
    HKError,
    NotApplicableError,
    PrimePower,
    Term,
    classify,
    engines,
    hk,
    hk_closed_form,
    hk_direct_count,
    hk_oracle,
    normalize,
)
from hkbinomial.closedform import is_monomial_shape

SEED = 20261018
QM_CAP = 3 * 10**4
DEGENERATE_COUNT = 200  # each is enumerated twice, so this sets the test's time
CLOSED_COUNT = 2000


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
        if is_monomial_shape(classify(f), p**n):
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


def test_degenerate_shapes_match_both_enumerations(grid, no_enumeration):
    degenerate, _ = grid
    assert {f.m for f, _, _ in degenerate} == {1, 2, 3, 4, 5}
    for f, p, n in degenerate:
        rep = hk(f, p, n)
        assert rep.engine == "monomial" and rep.guard_notes == []
        q = PrimePower(p, n)
        assert rep.value == hk_direct_count(f, q) == hk_oracle(f, q), (f, p, n)
        with pytest.raises(NotApplicableError):
            hk(f, p, n, engine="closed")


def test_closed_form_total_on_other_shapes(grid, no_enumeration):
    _, closed = grid
    assert {f.m for f, _, _ in closed} == {2, 3, 4, 5}
    for f, p, n in closed:
        value = hk_closed_form(f, p, n)  # raises nothing on these shapes
        rep = hk(f, p, n)
        assert (rep.engine, rep.value) == ("closed", value), (f, p, n)


def test_auto_never_enumerates(corpus200, no_enumeration):
    for f, p, n in corpus200:
        assert hk(f, p, n).engine in ("monomial", "closed")
