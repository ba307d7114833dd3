import json
import math
import random
import sys
import time
from fractions import Fraction

import pytest

from hkbinomial import closedform, engines, keycheck, oracle
from hkbinomial import (
    DomainError,
    HKError,
    NotApplicableError,
    PrimePower,
    ResourceError,
    classify,
    cross_check,
    g_chain,
    hk,
    hk_1dim,
    hk_closed_form,
    hk_closed_form_tables,
    hk_direct_count,
    hk_oracle,
    hk_oracle_report,
    load_corpus,
    member_scan,
    mmax_params,
    parse_binomial,
    phi_recursive,
    render,
)
from hkbinomial.classify import _classify

F1 = parse_binomial("x1^3 - x2^2", 5)
F_T0 = parse_binomial("x1^3*x2 - x1*x2", 3)  # trail divides lead: no growing variable
OVER = 8  # F_T0 at q = 3^8: q^m = 3^16 is over both budgets, and auto answers 2q - 1


def test_explicit_closed_large_n():
    rep = hk(F1, 5, 8, engine="closed")
    assert rep.value == 2 * 5**8 == 781250


def test_a_direct_budget_below_q_m_binds_only_direct():
    # a direct budget below q^m binds only the direct engine
    q = PrimePower(3, 1)
    rep = hk(F_T0, 3, 1)
    assert (rep.value, rep.engine) == (5, "monomial")
    with pytest.raises(ResourceError):
        hk_direct_count(F_T0, q, enum_cap=5)
    orc = hk_oracle_report(F_T0, q, node_cap=9)
    assert orc.length == rep.value == hk(F_T0, 3, 1, engine="direct").value
    assert orc.nodes == 9 and hk(F_T0, 3, 1, engine="oracle").oracle == orc


def test_budgets_refuse_the_enumerations_never_auto():
    # budgets below q^m refuse both enumerating engines, never auto
    q = PrimePower(3, 1)
    with pytest.raises(ResourceError) as direct:
        hk_direct_count(F_T0, q, enum_cap=5)
    assert (direct.value.required, direct.value.budget) == (9, 5)
    assert str(direct.value) == "direct count needs 3^2 membership tests, budget is 5"
    with pytest.raises(ResourceError) as nodes:
        hk_oracle_report(F_T0, q, node_cap=6)
    assert (nodes.value.required, nodes.value.budget) == (9, 6)
    assert str(nodes.value) == "oracle needs 3^2 nodes, budget is 6"
    # hk's named engines meet their own budgets, never auto
    refusals = {
        "direct": (keycheck.ENUM_CAP, "direct count needs 3^16 membership tests, budget is 10000000"),
        "oracle": (oracle.ORACLE_CAP, "oracle needs 3^16 nodes, budget is 1000000"),
    }
    for engine, (budget, message) in refusals.items():
        with pytest.raises(ResourceError) as refusal:
            hk(F_T0, 3, OVER, engine=engine)
        exc = refusal.value
        assert (exc.required, exc.budget, str(exc)) == (3**16, budget, message)
    rep = hk(F_T0, 3, OVER)
    assert (rep.value, rep.engine) == (2 * 3**OVER - 1, "monomial")


def test_value_over_digit_limit():
    # hk returns the value; only writing it in decimal meets the interpreter's limit
    f = parse_binomial("x1^3*x2 - x2^2*x3^2", 5)
    rep = hk(f, 5, 7000)
    assert rep.value == hk_closed_form(f, 5, 7000)
    with pytest.raises(ResourceError):
        rep.json_dict()
    with pytest.raises(ResourceError) as exc:
        engines.decimal_str(rep.value)
    digits, limit = exc.value.required, exc.value.budget
    assert limit == sys.get_int_max_str_digits() < digits
    assert 10 ** (digits - 1) <= rep.value < 10**digits
    assert engines.decimal_str(10**limit - 1) == "9" * limit
    big = 10 ** (limit + 100)
    for x, digits in ((big - 1, limit + 100), (-big, limit + 101)):
        with pytest.raises(ResourceError) as exc:
            engines.decimal_str(x)
        assert exc.value.required == digits
    sys.set_int_max_str_digits(1000)
    try:  # math.log10 puts 10^1024 just below 1024
        with pytest.raises(ResourceError) as exc:
            engines.decimal_str(10**1024)
    finally:
        sys.set_int_max_str_digits(limit)
    assert exc.value.required == 1025


def test_auto_answers_beyond_every_budget():
    f = parse_binomial("x1^2*x2 - x1", 5)
    rep = hk(f, 5, 8)
    assert (rep.value, rep.engine, rep.guard_notes) == (5**8, "monomial", [])
    assert rep.value == 390625 == hk_1dim(f, 5, 8)[0]
    assert hk(f, 5, 2).value == hk(f, 5, 2, engine="direct").value == 25
    with pytest.raises(NotApplicableError):
        hk(f, 5, 8, engine="closed")


def test_cross_check_budget_skip_noted():
    # q^m = 5^10 is under the direct budget and over the oracle's
    report = cross_check([(F1, 5, 5)])
    entry = report.entries[0]
    assert entry["skipped"] == {"oracle": "budget: oracle needs 5^10 nodes, budget is 1000000"}
    assert entry["values"] == {"closed": str(2 * 5**5), "direct": str(2 * 5**5)}
    assert entry["agree"]


def test_cross_check_empty():
    report = cross_check([])
    assert report.all_agree and report.entries == []


def test_cross_check_compares_the_route_auto_takes(corpus200):
    # auto's value sits under its route, monomial exactly where the shape test
    # holds; each value is that engine's, and only a budget skips an engine
    report = cross_check(corpus200)
    assert report.all_agree
    for (f, p, n), entry in zip(corpus200, report.entries):
        monomial = closedform.is_monomial_shape(f.lead.exps, f.trail.exps, p**n)
        route = "monomial" if monomial else "closed"
        assert set(entry["values"]) - {"direct", "oracle"} == {route}
        for engine, value in entry["values"].items():
            if engine == "monomial":
                expected = closedform.trail_complement_count(p**n, f.trail.exps)
            else:
                expected = hk(f, p, n, engine=engine).value
            assert value == str(expected), (render(f), p, n, engine)
        assert all(note.startswith("budget: ") for note in entry["skipped"].values())


def test_load_corpus(tmp_path):
    path = tmp_path / "corpus.jsonl"
    lines = [
        json.dumps({"poly": render(F1), "p": 5, "n": 1}),
        "",
        json.dumps({"poly": "x1^3*x2 - x1*x2", "p": 3, "n": 2}),
    ]
    path.write_text("\n".join(lines) + "\n")
    items = load_corpus(str(path))
    assert len(items) == 2
    assert items[0][0] == F1


@pytest.mark.parametrize(
    "line",
    [
        {"poly": "x1^3 - x2^2", "p": 5, "n": 2.7},
        {"poly": "x1^3 - x2^2", "p": 5, "n": True},
        {"poly": "x1^3 - x2^2", "p": 5.0, "n": 1},
        {"poly": "x1^3 - x2^2", "p": "5", "n": 1},
        {"poly": 7, "p": 5, "n": 1},
        ["x1^3 - x2^2", 5, 1],
    ],
)
def test_load_corpus_rejects_bad_fields(tmp_path, line):
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps(line) + "\n")
    with pytest.raises(HKError, match=":1: bad corpus entry"):
        load_corpus(str(path))


def test_hk_takes_p_from_the_binomial_and_checks_it_and_the_engine():
    assert hk(F1, n=2).value == hk(F1, 5, 2).value == 50
    with pytest.raises(DomainError, match="p = 3 does not match the binomial over F_5"):
        hk(F1, 3, 2)
    with pytest.raises(DomainError, match="unknown engine 'fast'"):
        hk(F1, 5, 2, engine="fast")


_CLS = classify(F1)
_ENTRIES = {  # each takes (f, p, n); those given a PrimePower build it from (p, n)
    **{f"hk-{engine}": lambda f, p, n, e=engine: hk(f, p, n, engine=e)
       for engine in ("auto", "closed", "direct", "oracle")},
    "hk_closed_form": hk_closed_form,
    "hk_closed_form_tables": hk_closed_form_tables,
    "hk_1dim": hk_1dim,
    "hk_direct_count": lambda f, p, n: hk_direct_count(f, PrimePower(p, n)),
    "hk_oracle": lambda f, p, n: hk_oracle(f, PrimePower(p, n)),
    "hk_oracle_report": lambda f, p, n: hk_oracle_report(f, PrimePower(p, n)),
    "member_scan": lambda f, p, n: member_scan((0, 0), f, PrimePower(p, n)),
    "phi_recursive": lambda f, p, n: phi_recursive(1, _CLS, p, n),
    "g_chain": lambda f, p, n: g_chain(_CLS, p, n),
    "mmax_params": lambda f, p, n: mmax_params(_CLS, p, n),
}
_GIVEN_CLS = {"phi_recursive", "g_chain", "mmax_params"}  # no binomial, so no p to match


@pytest.mark.parametrize("name", sorted(_ENTRIES))
def test_every_entry_rejects_a_bad_p_or_n(name):
    entry = _ENTRIES[name]
    entry(F1, 5, 1)
    if name not in _GIVEN_CLS:
        with pytest.raises(DomainError, match="p = 3 does not match the binomial over F_5"):
            entry(F1, 3, 1)
    for p, n in [(4, 1), (5, 0), (5, -1)]:
        with pytest.raises(DomainError):
            entry(F1, p, n)


def test_entries_given_a_prime_power_check_its_p_without_building_it_again(monkeypatch):
    # hkb trace at n = 10^7 spent 3 s building p^n in member_scan, after the CLI had built it
    q, f3 = PrimePower(5, 1), parse_binomial("x1^3 - x2^2", 3)

    def build(self):
        raise AssertionError("p^n built again")

    monkeypatch.setattr(PrimePower, "__post_init__", build)
    entries = {"hk_direct_count": lambda f: hk_direct_count(f, q),
               "hk_oracle_report": lambda f: hk_oracle_report(f, q).length,
               "member_scan": lambda f: member_scan((4, 1), f, q)[0].member}
    assert {name: entry(F1) for name, entry in entries.items()} == {
        "hk_direct_count": 10, "hk_oracle_report": 10, "member_scan": False}
    for entry in entries.values():
        with pytest.raises(DomainError, match="p = 5 does not match the binomial over F_3"):
            entry(f3)


def test_report_timing_includes_the_classification(monkeypatch):
    # the closed route classifies inside `hk_closed_form_tables`
    def slow_classify(f):
        time.sleep(0.005)
        return classify(f)

    monkeypatch.setattr(closedform, "classify", slow_classify)
    rep = hk(parse_binomial("x1^3 - x2^2", 5), 5, 4)
    assert rep.engine == "closed" and 5 <= rep.timing_ms < 1000


def test_only_the_closed_route_classifies_once_per_exponent_pair(monkeypatch):
    calls = []

    def spy(f):
        calls.append(f)
        return classify(f)

    monkeypatch.setattr(engines, "classify", spy)
    monkeypatch.setattr(closedform, "classify", spy)
    for engine in ("auto", "direct", "oracle"):  # auto takes the monomial route on F_T0
        hk(F_T0, 3, 2, engine=engine)
    for engine in ("direct", "oracle"):
        hk(F1, 5, 2, engine=engine)
    assert calls == []
    _classify.cache_clear()
    for n in (2, 3):  # one exponent pair at two q: one miss, then one hit
        assert hk(F1, 5, n).engine == "closed"
    assert calls == [F1, F1]
    assert _classify.cache_info()[:2] == (1, 1)  # (hits, misses)
    rep = hk(F1, 5, 1, engine="direct")
    assert rep.classification == classify(F1) and len(calls) == 3  # read on demand


SPY_CASES = [("x1^3 - x2^2", 5, 2), ("x1^2*x2^2 - x3^3", 5, 2), ("x1^3*x2^3*x3 - x3^2*x4^4", 3, 2)]


def test_the_value_path_builds_no_mmax_params(monkeypatch):
    cases = [(parse_binomial(poly, p), p, n) for poly, p, n in SPY_CASES]
    expected = [hk(f, p, n, engine="oracle").value for f, p, n in cases]

    def refuse(*args):
        raise AssertionError("an MmaxParams was built on the value path")

    with monkeypatch.context() as patch:
        patch.setattr(closedform, "_mmax_at", refuse)
        patch.setattr(closedform, "MmaxParams", refuse)
        for engine in ("auto", "closed"):
            got = [hk(f, p, n, engine=engine) for f, p, n in cases]
            assert [(rep.engine, rep.value) for rep in got] == [("closed", v) for v in expected]
    for f, p, n in cases + [(F_T0, 3, 2)]:  # F_T0: the monomial route
        for engine in engines.ENGINES:
            try:
                rep = hk(f, p, n, engine=engine)
            except NotApplicableError:  # closed, on F_T0
                continue
            params = mmax_params(classify(f), p, n) if rep.engine == "closed" else None
            assert rep.mmax_params == params, (f, engine)
            assert (rep.p, rep.m, rep.guard_notes) == (f.p, f.m, []), (f, engine)
    for derived in ({"mmax_params": ()}, {"guard_notes": []}):
        with pytest.raises(TypeError):
            engines.HKReport(n=2, q=25, value=50, engine="closed", f=F1, **derived)


def _kunz_digits(m, p, n):
    """Decimal digits of Kunz's bound q^max(m-1, 1) read through a Fraction of
    log10(p) shaded below float error: the check every input once took."""
    below_log10_p = Fraction(math.log10(p)) * (1 - Fraction(1, 10**12))
    return math.floor(n * max(m - 1, 1) * below_log10_p) + 1


@pytest.mark.parametrize("limit", [0, 640, 4300, 10**5])
def test_kunz_refusal_near_the_limit_matches_the_fraction_bound(limit):
    rng = random.Random(limit + 7)
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        for _ in range(3000):
            m, p = rng.randint(1, 6), rng.choice((2, 3, 5, 7, 101, 65537, 1000003, 2**61 - 1))
            edge = max(limit, 640) / (max(m - 1, 1) * math.log10(p))  # n where the digits pass it
            n = max(1, int(edge * rng.uniform(0.85, 1.02)) + rng.randint(-2, 2))
            digits = _kunz_digits(m, p, n)
            try:
                engines.refuse_unwritable(m, p, n)
            except ResourceError as exc:
                assert (exc.required, exc.budget) == (digits, limit), (m, p, n)
                assert 0 < limit < digits, (m, p, n)
            else:
                assert not 0 < limit < digits, (m, p, n)
    finally:
        sys.set_int_max_str_digits(saved)
