"""Key ideals, the membership criterion, and the direct-count engine.

Every standard monomial A (all exponents <= q-1) gets a monomial key ideal
A_c; the length of the quotient equals the number of standard monomials NOT
lying in A_c + (f).  `hk_direct_count` counts them without testing each:
the non-members in a row of x_m exponents depend only on the state of the
row's head (its first m - 1 exponents), and the heads are counted by state.
For a binomial f the membership test reduces to divisibility by the trail
term, or a finite scan that trades one lead factor for one trail factor
per step until the running monomial either leaves the standard range (some
exponent reaches q) or runs out of lead divisibility.  A step lies in A's
key ideal only by that escape: the lead is deglex-greater, so some variable
shrinks, and the first coordinate of the delta-sorted frame strictly
decreases at every step, which rules out the lexicographic route.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from operator import mul, sub

from .algebra import Binomial, PrimePower, require_field
from .errors import ContractError, DomainError, ResourceError

# hk_direct_count's default budget on q^m, the monomials it counts.  It is a
# contract on q^m, not the engine's cost, which is O(m*q): past it `check`
# skips the direct engine and `--engine direct` refuses.
ENUM_CAP = 10**7


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
    exactly at each non-member.  Each head (first m - 1 exponents) has a
    state, and the row of x_m exponents above it has a number of
    non-members that depends on that state alone.  The heads are counted
    by state, a product of interval lengths over their coordinates, and
    never visited: O(m*q) arithmetic and O(q) memory.
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
    heads, t2, t1 = list(zip(e1[:-1], e2[:-1])), e2[-1], e1[-1]
    shrink, grow, trail_end = max(t2 - t1, 0), max(t1 - t2, 0), min(t1, qq)
    # A head's state is (trail, lead, mm, mw): whether the trail and the lead
    # term divide it, the trades the lead allows (mm) and the trades until an
    # exponent reaches q (mw).  Above it, x_m^a is a member iff trail and
    # a >= t1, or lead and a >= t2 and mw(a) <= mm(a), with mm(a) = min(mm,
    # 1 + (a - t2) // shrink) and mw(a) = min(mw, ceil((qq - a) / grow)), a
    # term only at a nonzero rate.  So the non-members are the a < end
    # (trail_end if trail, else qq) if lead fails, else the a < min(end,
    # max(t2, stop)):
    # - mw > mm: if grow = 0, every a (mw(a) = mw > mm >= mm(a)); else mm(a) = mm,
    #   and ceil((qq - a) / grow) > mm iff a < qq - grow*mm = stop.
    # - mw <= mm: if shrink = 0, no a (mw(a) <= mw <= mm = mm(a)); else mw(a) = mw,
    #   and 1 + (a - t2) // shrink < mw iff a < t2 + shrink*(mw - 1) = stop.
    # Heads the lead does not divide, by inclusion-exclusion over the heads
    # the trail, the lead and both divide:
    n_trail = prod(max(qq - lo1, 0) for lo1, _ in heads)
    n_lead = prod(max(qq - lo2, 0) for _, lo2 in heads)
    n_both = prod(max(qq - max(lo1, lo2), 0) for lo1, lo2 in heads)
    count = (n_trail - n_both) * trail_end + (qq ** (m - 1) - n_lead - n_trail + n_both) * qq
    # Heads the lead divides.  A shrinking coordinate x_i^a (e2_i > e1_i) has
    # mm_i = 1 + (a - e2_i) // (e2_i - e1_i), a growing one (e1_i > e2_i) has
    # mw_i = ceil((qq - a) / (e1_i - e2_i)) and the trail bit a >= e1_i, and
    # the lead implies the trail bit on every other coordinate; mm and mw are
    # the min over the coordinates.  Each finite mm_i and mw_i is at most
    # top <= qq.  An empty min takes a sentinel: no_mm = top + 1 (scan
    # unbounded) > any mw, and no_mw = top + 2 (never escapes) > any mm.
    # no_mm enters a row only through stop = qq - grow*mm, and grow = 0 there:
    # a normalized binomial has a shrinking variable, so x_m shrinks when no
    # head coordinate does.  The survival lists count the heads by z =
    # 0..no_mw + 1: s_mm[z] those with mm >= z, s_mw[z] those with mw >= z
    # and s_trail[z] those of them with the trail bit.  Each is a product over
    # the coordinates of interval lengths: mm_i >= z iff a >= e2_i + (e2_i -
    # e1_i)*(z - 1), and mw_i >= z iff a < qq - (e1_i - e2_i)*(z - 1).
    top = max((-(-max(qq - lo2, 0) // abs(lo2 - lo1)) for lo1, lo2 in heads if lo1 != lo2),
              default=0)

    def lengths(room, rate):  # max(room - rate*max(z - 1, 0), 0) for each z
        run = [room, *range(room, 0, -rate)] if room > 0 else []
        return run + [0] * (top + 4 - len(run))

    s_mm = [1] * (top + 2) + [0, 0]
    s_mw = [1] * (top + 3) + [0]
    s_trail, fixed = s_mw, 1
    for lo1, lo2 in heads:
        if lo2 > lo1:
            s_mm = list(map(mul, s_mm, lengths(qq - lo2, lo2 - lo1)))
        elif lo1 > lo2:
            s_mw = list(map(mul, s_mw, lengths(qq - lo2, lo1 - lo2)))
            s_trail = list(map(mul, s_trail, lengths(qq - lo1, lo1 - lo2)))
        else:
            fixed *= max(qq - lo2, 0)
    lead = 0
    by_mm = list(map(sub, s_mm, s_mm[1:]))  # heads with mm = x
    for s_w, end in ((s_trail, trail_end), (list(map(sub, s_mw, s_trail)), qq)):
        by_mw = list(map(sub, s_w, s_w[1:]))
        # the heads with mw > mm, by mm = x, then those with mw <= mm, by mw = y
        lead += sum(n * s_w[x + 1] * min(max(qq - grow * x, t2), end)
                    for x, n in enumerate(by_mm) if n)
        lead += sum(n * s_mm[y] * min(t2 + shrink * (y - 1), end)
                    for y, n in enumerate(by_mw) if n)
    return count + fixed * lead
