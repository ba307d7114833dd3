"""Seeded differential tests for the auto route and the closed form.

Auto `hk` answers the degenerate shapes (no growing variable, or a lead
exponent >= q) with the trail complement count and every other shape with
the closed form.  These tests draw binomials over a fixed grid (m <= 5,
exponents <= 8, p <= 7, q^m <= 3*10^4) and check that the count equals both
enumerating engines, that the closed form never raises on the remaining
shapes, and that auto mode never enumerates.  `is_monomial_shape`, which
reads only exponents, is checked against the rule as the classification
states it.  On the 300 seeded `direct_cases`, auto `hk` equals the oracle
and the direct count, and no engine's value, nor auto's route, changes
under the drawn variable permutation or coefficient scaling.
"""

import random
from collections import Counter
from functools import partial

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
    normalize,
)
from hkbinomial.classify import _classify
from hkbinomial.closedform import hk_closed_form_tables, is_monomial_shape
from tests.conftest import direct_cases

SEED = 20261018
QM_CAP = 3 * 10**4
DEGENERATE_COUNT = 200  # each is enumerated twice, so this sets the test's time
CLOSED_COUNT = 2000
MONOMIAL_REFUSAL = ("no growing variable, or a lead exponent is >= q: "
                    "the length is the trail complement count")


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
            assert hk_direct_count(g, q) == hk_oracle(g, q) == value, (f, g, q.q)
    assert min(shapes.values()) >= 80 and ms[1] >= 20, (shapes, ms)
