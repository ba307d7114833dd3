import itertools
import os
import random
import subprocess
import sys

import pytest

from hkbinomial import (
    ContractError,
    DomainError,
    HKError,
    MembershipResult,
    PrimePower,
    ResourceError,
    Term,
    hk,
    hk_direct_count,
    hk_oracle,
    member_scan,
    normalize,
    parse_binomial,
)
from hkbinomial.classify import classify
from hkbinomial.closedform import closed_form_at
from hkbinomial.keycheck import ENUM_CAP, _check_standard
from tests.conftest import EDGE_SHAPES
from tests.keycheck_reference import is_convergent, sorted_vector

Q5 = PrimePower(5, 1)
F1 = parse_binomial("x1^3 - x2^2", 5)


def key_ideal_generators(A, q: PrimePower) -> set:
    """Generators of the key ideal of A: the step monomials B_i plus x_i^q.

    B_1 = x_1^(a_1+1) when a_1 < q-1; B_i = x_1^a_1 ... x_{i-1}^a_{i-1} x_i^(a_i+1)
    when a_i < q-1; B_i is dropped when a_i = q-1.
    """
    _check_standard(A, q)
    m = len(A)
    gens = set()
    for i in range(m):
        if A[i] < q.q - 1:
            gens.add(tuple(A[:i]) + (A[i] + 1,) + (0,) * (m - i - 1))
    for i in range(m):
        gens.add(tuple(q.q if j == i else 0 for j in range(m)))
    return gens


def monomial_divides(g, c) -> bool:
    return all(gi <= ci for gi, ci in zip(g, c))


def test_key_ideal_generators_examples():
    assert key_ideal_generators((3, 0), Q5) == {(4, 0), (3, 1), (5, 0), (0, 5)}
    assert key_ideal_generators((4, 4), Q5) == {(5, 0), (0, 5)}
    assert key_ideal_generators((4, 1), Q5) == {(4, 2), (5, 0), (0, 5)}


def test_key_ideal_rejects_nonstandard():
    with pytest.raises(DomainError):
        key_ideal_generators((5, 0), Q5)


def test_member_scan_rejects_a_negative_exponent():
    with pytest.raises(DomainError, match=r"monomial \(-1, 0\) has a negative exponent"):
        member_scan((-1, 0), F1, Q5)


def test_is_convergent_examples():
    assert is_convergent((0, 5), (4, 1), Q5) is True
    assert is_convergent((1, 3), (4, 1), Q5) is False
    assert is_convergent((4, 2), (4, 1), Q5) is True


def test_is_convergent_contract_error():
    with pytest.raises(ContractError):
        is_convergent((4, 1), (4, 1), Q5)


def test_membership_result_invariant_survives_optimize():
    with pytest.raises(ContractError):
        MembershipResult(True, None, None, 0)
    with pytest.raises(ContractError):
        MembershipResult(False, "trail", None, 0)
    # the check is not an assert, so it also holds under python -O
    script = (
        "from hkbinomial import ContractError, MembershipResult\n"
        "try:\n"
        "    MembershipResult(True, None, None, 0)\n"
        "except ContractError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env, timeout=60)
    assert done.returncode == 0


@pytest.mark.parametrize("qq,m", [(4, 2), (9, 2), (5, 3)])
def test_lex_shortcut_equals_generator_divisibility(qq, m):
    p, n = (2, 2) if qq == 4 else ((3, 2) if qq == 9 else (5, 1))
    q = PrimePower(p, n)
    for A in itertools.product(range(qq), repeat=m):
        gens = key_ideal_generators(A, q)
        for C in itertools.product(range(qq + 1), repeat=m):
            if C == A:
                continue
            by_gens = any(monomial_divides(g, C) for g in gens)
            assert is_convergent(C, A, q) == by_gens, (A, C)


def test_member_scan_matches_closed_form_everywhere(corpus_small):
    # closed form: a member iff the trail divides A, or the lead does and the
    # first scan step at which a growing exponent reaches q is within the bound
    for f, p, n in corpus_small:
        q = PrimePower(p, n)
        cls = classify(f)
        e2, e1 = f.lead.exps, f.trail.exps
        for A in itertools.product(range(q.q), repeat=f.m):
            ref, steps = member_scan(A, f, q)
            escape = min((-((a - q.q) // (y - x)) for a, x, y in zip(A, e2, e1) if y > x),
                         default=q.q + 1)
            trail = all(a >= y for a, y in zip(A, e1))
            assert ref.member == (trail or escape <= ref.mmax_scanned), (A, f, p, n)
            assert ref.witness == ("trail" if trail else "mutation" if ref.member else None)
            # each step's convergence is the key ideal's test in the sorted frame
            for _, _, cand, conv in steps:
                assert conv == is_convergent(sorted_vector(cls, cand), sorted_vector(cls, A), q)
            # the scan stops at its bound, or at the first convergent candidate
            steps_taken = {"trail": 0, "mutation": ref.witness_m, None: ref.mmax_scanned}
            assert len(steps) == steps_taken[ref.witness], (A, f, p, n)
            assert [M for M, *_ in steps] == list(range(1, len(steps) + 1))
            if ref.witness == "mutation":
                # witness validity: recompute both monomials of the step
                M = ref.witness_m
                assert M == escape
                inter = tuple(a - M * x + (M - 1) * y for a, x, y in zip(A, e2, e1))
                assert all(v >= 0 for v in inter)
                cand = tuple(v + y for v, y in zip(inter, e1))
                assert is_convergent(sorted_vector(cls, cand), sorted_vector(cls, A), q)
                assert 1 <= M <= ref.mmax_scanned


def test_direct_count_examples():
    assert hk_direct_count(F1, Q5) == 10
    assert hk_direct_count(parse_binomial("x1 - x2", 7), PrimePower(7, 1)) == 7
    assert hk_direct_count(parse_binomial("x1^3*x2 - x1*x2", 3), PrimePower(3, 1)) == 5


def test_direct_count_budget():
    with pytest.raises(ResourceError):
        hk_direct_count(F1, PrimePower(5, 8), enum_cap=10**6)


def test_direct_count_coefficient_invariance():
    base = None
    for c2, c1 in [(1, 1), (2, 3), (4, 4), (3, 1)]:
        f = normalize(5, Term(c2, (3, 0)), Term(c1, (0, 2)))
        v = hk_direct_count(f, Q5)
        base = v if base is None else base
        assert v == base == 10


def test_mixed_frame_instances_match_oracle():
    # instances whose input frame differs from the sorted frame; each is a
    # closed shape, so the closed form's body is compared too
    for poly, p, n in [
        ("x1*x2^3 - x1^2*x2", 5, 1),
        ("x2^3 - x1^2", 5, 1),
        ("x1*x2^3 - x1^2*x2", 3, 2),
        ("x2^3 - x1^2", 3, 2),
    ]:
        f = parse_binomial(poly, p)
        q = PrimePower(p, n)
        value, by_bound = closed_form_at(classify(f), q.q)
        assert by_bound is not None, poly
        assert value == hk_direct_count(f, q) == hk_oracle(f, q), poly


def test_direct_count_matches_oracle_on_corpus(corpus_small):
    for f, p, n in corpus_small:
        q = PrimePower(p, n)
        assert hk_direct_count(f, q) == hk_oracle(f, q)


@pytest.mark.parametrize("poly,p,n,num_vars", EDGE_SHAPES)
def test_edge_shapes_direct_equals_membership_and_oracle(poly, p, n, num_vars):
    f = parse_binomial(poly, p, num_vars)
    q = PrimePower(p, n)
    size = q.q**f.m
    by_member = sum(
        1 for A in itertools.product(range(q.q), repeat=f.m) if not member_scan(A, f, q)[0].member
    )
    assert hk_direct_count(f, q, enum_cap=size) == by_member == hk_oracle(f, q, node_cap=size)
    with pytest.raises(ResourceError) as direct_err:
        hk_direct_count(f, q, enum_cap=size - 1)
    with pytest.raises(ResourceError) as oracle_err:
        hk_oracle(f, q, node_cap=size - 1)
    assert direct_err.value.required == oracle_err.value.required == size


# (m, p, n) with 10^6 <= q^m <= ENUM_CAP: the direct count's own budget edge,
# where visiting each head took up to a third of a second; at m = 1 the one
# row is q long
BUDGET_EDGE = [(2, 3, 7), (2, 5, 5), (3, 5, 3), (3, 2, 7), (4, 7, 2), (4, 2, 5),
               (5, 2, 4), (5, 5, 2), (6, 11, 1), (7, 2, 3), (7, 3, 2), (1, 5, 10)]


def budget_edge_cases():
    """One seeded binomial per size, exponents 0..6; every third has t = 0
    (the trail divides the lead), which auto `hk` counts as a monomial ideal."""
    rng = random.Random(20261019)
    out = []
    for i, (m, p, n) in enumerate(BUDGET_EDGE):
        while len(out) == i:
            e2 = tuple(rng.randint(0, 6) for _ in range(m))
            e1 = tuple(rng.randint(0, e if i % 3 == 2 else 6) for e in e2)
            try:
                out.append((normalize(p, Term(1, e2), Term(rng.randint(1, p - 1), e1)), p, n))
            except HKError:  # equal terms or a constant term: redraw
                pass
    return out


def test_direct_count_at_its_budget_edge_is_auto_hk():
    engines = set()
    for f, p, n in budget_edge_cases():
        q = PrimePower(p, n)
        size = q.q**f.m
        assert 10**6 <= size <= ENUM_CAP
        report = hk(f, p, n)
        engines.add(report.engine)
        assert hk_direct_count(f, q) == report.value, (f, p, n)
        with pytest.raises(ResourceError) as err:
            hk_direct_count(f, q, enum_cap=size - 1)
        assert (err.value.required, err.value.budget) == (size, size - 1)
    assert engines == {"closed", "monomial"}
