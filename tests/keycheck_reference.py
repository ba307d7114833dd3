"""Reference forms of the membership criterion and the direct count,
for the tests only.

`is_convergent` is the key ideal's lex shortcut, taken in the delta-sorted
frame of `sorted_vector`; the tests check it against the ideal's
generators and each step of `member_scan` against it.
`is_member` decides membership in closed form: the trail term divides
A, or the lead term does and some growing exponent reaches q within the
scan bound.  `direct_count_per_monomial` applies that test to each of
the q^m standard monomials in turn, with what depends only on the first
m - 1 exponents worked out once per row.  `direct_count_by_heads` visits
each head and counts the row of x_m exponents above it by the head's
state.  The library's `member_scan` performs the literal scan, and
`hk_direct_count` sums over the scan bound with no monomial, head or row
visited; the tests check that all of them agree.
"""

import itertools

from hkbinomial.algebra import Binomial, PrimePower
from hkbinomial.classify import Classification
from hkbinomial.errors import ContractError, DomainError, ResourceError
from hkbinomial.keycheck import MembershipResult, _check_standard, _lead_scan_bound


def sorted_vector(cls: Classification, vec) -> tuple:
    """Map an original-frame exponent vector into the sorted frame."""
    return tuple(vec[i] for i in cls.perm)


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


def _first_escape(A, delta, qq):
    """Least M >= 1 at which some growing exponent of A + M*delta reaches q."""
    best = None
    for a, d in zip(A, delta):
        if d > 0:
            need = -((a - qq) // d)  # ceil((qq - a) / d)
            if best is None or need < best:
                best = need
    return best


def is_member(A, f: Binomial, q: PrimePower) -> MembershipResult:
    """Decide whether A lies in its key ideal plus (f).

    Membership holds iff the trail term divides A, or the lead term does
    and the exchange scan reaches a convergent monomial within the bound
    where intermediate exponents stay nonnegative.
    """
    if q.p != f.p:
        raise DomainError(f"prime power {q.p}^{q.n} does not match f over F_{f.p}")
    _check_standard(A, q)
    if len(A) != f.m:
        raise DomainError(f"monomial has {len(A)} exponents, expected {f.m}")
    e2, e1 = f.lead.exps, f.trail.exps
    delta = tuple(b - a for a, b in zip(e2, e1))
    mm = _lead_scan_bound(A, e2, delta)
    if all(a >= e for a, e in zip(A, e1)):
        return MembershipResult(True, "trail", None, mm)
    if mm == 0:
        return MembershipResult(False, None, None, 0)
    mw = _first_escape(A, delta, q.q)
    if mw is not None and mw <= mm:
        return MembershipResult(True, "mutation", mw, mm)
    return MembershipResult(False, None, None, mm)


def direct_count_per_monomial(f: Binomial, q: PrimePower, enum_cap: int = 10**7) -> int:
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


def direct_count_by_heads(f: Binomial, q: PrimePower) -> int:
    """The direct count with every head (first m - 1 exponents) visited.

    The heads are walked depth first, carrying the state (trail, lead, mm,
    mw) from coordinate to coordinate, and each row of x_m exponents above
    a head is counted in O(1).  Above a head, x_m^a is a member iff the
    trail divides and a >= t1, or the lead divides, a >= t2 and mw(a) <=
    mm(a), where x_m's own term joins the min at a nonzero rate.  So the
    non-members are the a < end (t1 if the trail divides, else q) when the
    lead fails, else those below t2 and those in [t2, min(end, stop)):
    with mw > mm, stop = q - grow*mm (every a when x_m does not grow); with
    mw <= mm, stop = t2 + shrink*(mw - 1) (no a when x_m does not shrink).
    """
    qq = q.q
    e2, e1 = f.lead.exps, f.trail.exps
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
