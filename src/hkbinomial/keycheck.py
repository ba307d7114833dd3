"""Key ideals, the membership criterion, and the direct-count engine.

Every standard monomial A (all exponents <= q-1) gets a monomial key ideal
A_c; the length of the quotient equals the number of standard monomials NOT
lying in A_c + (f), which `hk_direct_count` counts a row of x_m exponents at
a time.  For a binomial f the membership test reduces to divisibility by the
trail term, or a finite scan that trades one lead factor for one trail factor
per step until the running monomial either leaves the standard range (some
exponent reaches q) or runs out of lead divisibility.  A step lies in A's
key ideal only by that escape: the lead is deglex-greater, so some variable
shrinks, and the first coordinate of the delta-sorted frame strictly
decreases at every step, which rules out the lexicographic route.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Binomial, PrimePower, require_field
from .errors import ContractError, DomainError, ResourceError

ENUM_CAP = 10**7  # hk_direct_count's default budget on q^m membership tests


def _check_standard(A, q: PrimePower, what="monomial"):
    if any(e >= q.q for e in A):
        raise DomainError(f"{what} {A} has an exponent >= q = {q.q}")
    if any(e < 0 for e in A):
        raise DomainError(f"{what} {A} has a negative exponent")


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
    """Largest M >= 1 with A - M*e2 + (M-1)*e1 componentwise >= 0, or 0 when
    the lead term does not divide A.  Some exponent shrinks (delta < 0) in a
    normalized binomial, so the min is never empty."""
    if any(a < e for a, e in zip(A, e2)):
        return 0
    return min(1 + (a - e) // -d for a, e, d in zip(A, e2, delta) if d < 0)


def member_scan(A, f: Binomial, q: PrimePower):
    """Literal scan: returns (MembershipResult, steps).

    Step M trades M lead factors for M - 1 trail factors, so it runs for M
    up to the scan bound `_lead_scan_bound`, the most trades the lead term
    allows, and stops at the first convergent candidate (an exponent
    reaches q).  Each step is (M, intermediate, candidate, convergent) with
    exponent vectors in the original variable frame.  A trail member has
    no steps, a mutation member `witness_m` and a non-member `mmax_scanned`.
    Used by the trace front end and as the reference implementation in tests.
    """
    require_field(f, q.p)
    _check_standard(A, q)
    e2, e1 = f.lead.exps, f.trail.exps
    bound = _lead_scan_bound(A, e2, tuple(b - a for a, b in zip(e2, e1)))
    steps = []
    if all(a >= e for a, e in zip(A, e1)):
        return MembershipResult(True, "trail", None, bound), steps
    cand = A
    for M in range(1, bound + 1):
        inter = tuple(v - e for v, e in zip(cand, e2))
        cand = tuple(v + e for v, e in zip(inter, e1))
        conv = any(c >= q.q for c in cand)
        steps.append((M, inter, cand, conv))
        if conv:
            return MembershipResult(True, "mutation", M, bound), steps
    return MembershipResult(False, None, None, bound), steps


def hk_direct_count(f: Binomial, q: PrimePower, enum_cap: int = ENUM_CAP) -> int:
    """Count standard monomials outside their key ideal plus (f).

    This equals the length of the quotient by the Frobenius power plus (f):
    the filtration over standard monomials has a one-dimensional slice
    exactly at each non-member.  The heads (first m - 1 exponents) are walked
    depth first; each head, and the row of x_m exponents above it, costs O(1).
    """
    require_field(f, q.p)
    qq, m = q.q, f.m
    total = qq**m
    if total > enum_cap:
        raise ResourceError(
            f"direct count needs {q.p}^{q.n * m} membership tests, budget is {enum_cap}",
            required=total,
            budget=enum_cap,
        )
    e2, e1 = f.lead.exps, f.trail.exps
    # mm: the trades the lead allows; mw: the trades until an exponent reaches
    # q.  An empty min takes a sentinel: no_mm (scan unbounded) > any mw, and
    # no_mw (never escapes) > any mm, as finite mm and mw are at most qq.
    no_mm, no_mw = qq + 1, qq + 2
    # tables[i][a]: whether x_i^a admits the trail and the lead factor, and
    # x_i's terms of mm and mw.  m = 1 has no head: one row, the empty state.
    tables = [
        [(a >= lo1, a >= lo2, 1 + (a - lo2) // (lo2 - lo1) if lo2 > lo1 else no_mm,
          -((a - qq) // (lo1 - lo2)) if lo1 > lo2 else no_mw) for a in range(qq)]
        for lo1, lo2 in zip(e1[:-1], e2[:-1])
    ] or [[(True, True, no_mm, no_mw)]]
    inner, t2, t1 = len(tables) - 1, e2[-1], e1[-1]
    shrink, grow, trail_end = max(t2 - t1, 0), max(t1 - t2, 0), min(t1, qq)
    # Above a head with state (trail, lead, mm, mw), x_m^a is a member iff trail
    # and a >= t1, or lead and a >= t2 and mw(a) <= mm(a), with mm(a) = min(mm,
    # 1 + (a - t2) // shrink) and mw(a) = min(mw, ceil((qq - a) / grow)), a term
    # only at a nonzero rate.  So the non-members are the a < end (trail_end if
    # trail, else qq) if lead fails, else those of them below t2 or below stop:
    # - mw > mm: if grow = 0, every a (mw(a) = mw > mm >= mm(a)); else mm(a) = mm,
    #   and ceil((qq - a) / grow) > mm iff a < qq - grow*mm = stop.
    # - mw <= mm: if shrink = 0, no a (mw(a) <= mw <= mm = mm(a)); else mw(a) = mw,
    #   and 1 + (a - t2) // shrink < mw iff a < t2 + shrink*(mw - 1) = stop.
    def walk(i, trail, lead, mm, mw):
        if i < inner:
            return sum(walk(i + 1, trail and tr, lead and ld, min(mm, mm_i), min(mw, mw_i))
                       for tr, ld, mm_i, mw_i in tables[i])
        count = 0
        for tr, ld, mm_i, mw_i in tables[i]:
            end = trail_end if trail and tr else qq
            if lead and ld:
                mm_h, mw_h = min(mm, mm_i), min(mw, mw_i)
                stop = qq - grow * mm_h if mw_h > mm_h else t2 + shrink * (mw_h - 1)
                count += min(t2, end) + max(0, min(stop, end) - t2)
            else:
                count += end
        return count
    return walk(0, True, True, no_mm, no_mw)
