from fractions import Fraction

import pytest

from hkbinomial import (
    DomainError,
    PrimePower,
    estimate_multiplicity,
    hk,
    hk_1dim,
    hk_multiplicity_1dim,
    hk_oracle,
    parse_binomial,
)
from hkbinomial.classify import classify
from hkbinomial.multiplicity import MultiplicityReport
from tests.conftest import random_binomials

F1 = parse_binomial("x1^3 - x2^2", 5)


def report_from_json_dict(obj: dict) -> MultiplicityReport:
    def frac(d):
        return None if d is None else Fraction(int(d["num"]), int(d["den"]))

    return MultiplicityReport(
        d=obj["d"],
        p=obj["p"],
        samples=[(s["n"], int(s["hk"]), frac(s["estimate"])) for s in obj["samples"]],
        exact=None
        if obj["exact"] is None
        else (int(obj["exact"]["value"]), obj["exact"]["case"]),
        converged=obj["converged"],
        gap=frac(obj["gap"]),
        limit=frac(obj["limit"]),
    )


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
    rep = estimate_multiplicity(f, 5, range(1, 4))
    assert rep.limit == Fraction(hk_multiplicity_1dim(f)[0])


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


def test_estimate_worked_instance():
    rep = estimate_multiplicity(F1, 5, range(1, 4))
    assert [e for _, _, e in rep.samples] == [Fraction(2)] * 3
    assert rep.converged
    assert rep.limit == 2
    assert rep.exact == (2, "I(ii)")


def test_estimate_line():
    rep = estimate_multiplicity(parse_binomial("x1 - x2", 7), 7, range(1, 4))
    assert all(e == 1 for _, _, e in rep.samples)
    assert rep.exact == (1, "I(iii)")


def test_estimate_three_variables_no_exact_claim():
    f = parse_binomial("x1^2*x2 - x2*x3", 3)
    rep = estimate_multiplicity(f, 3, range(1, 4))
    assert rep.d == 2
    assert rep.exact is None
    assert rep.limit is None
    assert len(rep.samples) == 3


def test_estimate_partial_on_budget():
    # auto hk never enumerates, so no budget cuts the samples short
    f = parse_binomial("x1^3*x2 - x1*x2", 3)  # no growing variable: monomial route
    rep = estimate_multiplicity(f, 3, range(1, 4))
    assert [n for n, _, _ in rep.samples] == [1, 2, 3]
    for n, value, _ in rep.samples:
        assert hk(f, 3, n).engine == "monomial"
        assert value == hk(f, 3, n, engine="direct").value == hk(f, 3, n, engine="oracle").value


def test_report_serialization_round_trip():
    rep = estimate_multiplicity(F1, 5, range(1, 4))
    clone = report_from_json_dict(rep.json_dict())
    assert clone.samples == rep.samples
    assert clone.exact == rep.exact
    assert clone.gap == rep.gap
    assert clone.limit == rep.limit
    assert clone.converged == rep.converged
