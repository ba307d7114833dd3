"""Key ideals, the membership criterion, and the direct-count engine.

Every standard monomial A (all exponents <= q-1) gets a monomial key
ideal A_c; the length of the quotient equals the number of standard
monomials NOT lying in A_c + (f).  For a binomial f the membership test
reduces to divisibility by the trail term, or a finite scan that trades
one lead factor for one trail factor per step until the running monomial
either leaves the standard range (some exponent reaches q) or runs out
of lead divisibility.

The scan's convergence test compares monomials in the delta-sorted frame
of `classify`; in that frame the scan can only converge by an exponent
reaching q, never by the lexicographic route, which keeps the per-class
bookkeeping consistent with the filtration.  Evaluating the criterion in
an unsorted frame gives wrong counts (see tests for a two-variable
instance that exercises this).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import Binomial, PrimePower
from .classify import classify
from .errors import ContractError, DomainError, ResourceError


def _check_standard(A, q: PrimePower, what="monomial"):
    if any(e >= q.q for e in A):
        raise DomainError(f"{what} {A} has an exponent >= q = {q.q}")
    if any(e < 0 for e in A):
        raise DomainError(f"{what} {A} has a negative exponent")


def is_convergent(C, A, q: PrimePower) -> bool:
    """True iff the monomial C lies in the key ideal of A.

    Fast path: some exponent of C is >= q, or C is strictly greater than A
    in pure lex order with x_1 most significant.  Equivalent to divisibility
    by one of the key ideal's generators: x_i^q, and the step monomials
    x_1^a_1 ... x_{i-1}^a_{i-1} x_i^(a_i+1) for a_i < q-1; the tests check
    the equivalence exhaustively.
    """
    _check_standard(A, q, "key monomial")
    if len(C) != len(A):
        raise DomainError("exponent vectors of different lengths")
    if any(c >= q.q for c in C):
        return True
    if C == tuple(A):
        raise ContractError("the key monomial itself never lies in its key ideal")
    for c, a in zip(C, A):
        if c != a:
            return c > a
    return False


@dataclass(frozen=True)
class MembershipResult:
    member: bool
    witness: str | None  # "trail" | "mutation" | None
    witness_m: int | None
    mmax_scanned: int

    def __post_init__(self):
        if self.member != (self.witness is not None):
            raise ContractError("a member needs a witness and a non-member none")


def _lead_scan_bound(A, e2, delta):
    """Largest M >= 1 with A - M*e2 + (M-1)*e1 componentwise >= 0.

    Returns 0 when the lead term does not divide A, and None when no
    exponent shrinks (impossible for a normalized binomial, kept for
    robustness).
    """
    best = None
    for a, e, d in zip(A, e2, delta):
        if a < e:
            return 0
        if d < 0:
            cap = 1 + (a - e) // (-d)
            if best is None or cap < best:
                best = cap
    return best


def member_scan(A, f: Binomial, q: PrimePower):
    """Literal scan: returns (MembershipResult, steps).

    Each step is (M, intermediate, candidate, convergent) with exponent
    vectors in the original variable frame; the convergence test runs in
    the sorted frame.  Used by the trace front end and as the reference
    implementation in tests.
    """
    _check_standard(A, q)
    e2, e1 = f.lead.exps, f.trail.exps
    cls = classify(f)
    a_sorted = cls.sorted_vector(A)
    steps = []
    if all(a >= e for a, e in zip(A, e1)):
        return MembershipResult(True, "trail", None, _full_scan_bound(A, f)), steps
    mvec = list(A)
    mmax = 0
    member = None
    cap = q.q * f.m + 2  # safety bound; unreachable for normalized binomials
    for M in range(1, cap):
        inter = tuple(v - e for v, e in zip(mvec, e2))
        if any(v < 0 for v in inter):
            break
        mmax = M
        cand = tuple(v + e for v, e in zip(inter, e1))
        conv = is_convergent(cls.sorted_vector(cand), a_sorted, q)
        steps.append((M, inter, cand, conv))
        if conv:
            member = MembershipResult(True, "mutation", M, _full_scan_bound(A, f))
            break
        mvec = list(cand)
    if member is None:
        member = MembershipResult(False, None, None, mmax)
    return member, steps


def _full_scan_bound(A, f):
    e2, e1 = f.lead.exps, f.trail.exps
    delta = tuple(b - a for a, b in zip(e2, e1))
    mm = _lead_scan_bound(A, e2, delta)
    return 0 if mm is None else mm


def hk_direct_count(f: Binomial, q: PrimePower, enum_cap: int = 10**7) -> int:
    """Count standard monomials outside their key ideal plus (f).

    This equals the length of the quotient by the Frobenius power plus (f):
    the filtration over standard monomials has a one-dimensional slice
    exactly at each non-member.  Enumeration is row-major; the count is
    order independent.
    """
    if q.p != f.p:
        raise DomainError(f"prime power {q.p}^{q.n} does not match f over F_{f.p}")
    qq = q.q
    m = f.m
    total = qq**m
    if total > enum_cap:
        raise ResourceError(
            f"direct count needs {q.p}^{q.n * m} membership tests, budget is {enum_cap}",
            required=total,
            budget=enum_cap,
        )
    e2, e1 = f.lead.exps, f.trail.exps
    last = m - 1
    # (index, -delta) and (index, delta) of the first m - 1 coordinates
    neg = [(i, e2[i] - e1[i]) for i in range(last) if e1[i] < e2[i]]
    pos = [(i, e1[i] - e2[i]) for i in range(last) if e1[i] > e2[i]]
    t2, t1 = e2[last], e1[last]
    shrink, grow = t2 - t1, t1 - t2  # the last coordinate's -delta and delta
    # Sentinels for an empty min: no shrinking coordinate leaves the scan
    # unbounded (mm = qq + 1 > any mw), no growing one never escapes
    # (mw = qq + 2 > any mm).  Every finite mm and mw is at most qq.
    no_mm, no_mw = qq + 1, qq + 2
    count = 0
    for head in itertools.product(range(qq), repeat=last):
        trail_head = all(a >= e for a, e in zip(head, e1))
        if not all(a >= e for a, e in zip(head, e2)):
            # the lead term never divides: a member only when the trail does
            for a in range(qq):
                if not (trail_head and a >= t1):
                    count += 1
            continue
        mm_head = min((1 + (head[i] - e2[i]) // d for i, d in neg), default=no_mm)
        mw_head = min((-((head[i] - qq) // d) for i, d in pos), default=no_mw)
        for a in range(qq):
            if trail_head and a >= t1:
                continue  # trail divides: member
            if a < t2:
                count += 1  # neither term divides: never a member
                continue
            mm, mw = mm_head, mw_head
            if shrink > 0:
                mm = min(mm, 1 + (a - t2) // shrink)
            elif grow > 0:
                mw = min(mw, -((a - qq) // grow))
            if mw > mm:
                count += 1  # the scan runs out of lead divisibility first
    return count
