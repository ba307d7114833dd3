"""Key ideals, the membership criterion, and the direct-count engine.

Every standard monomial A (all exponents <= q-1) gets a monomial key ideal
A_c; the length of the quotient equals the number of standard monomials NOT
lying in A_c + (f).  `hk_direct_count` counts them without testing each,
as one sum over the scan bound across all m coordinates at once.
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
from itertools import chain, repeat
from math import prod

from .algebra import Binomial, PrimePower, decimal_str, require_field
from .errors import ContractError, DomainError, ResourceError

# hk_direct_count's default budget on q^m, the monomials it counts.  It is a
# contract on q^m, not the engine's cost, which is O(m*top) for a top scan
# bound top <= q: past it `check` skips the direct engine and `--engine
# direct` refuses.
ENUM_CAP = 10**7
# member_scan's budget on the steps it keeps, so `hkb trace` holds O(m*TRACE_CAP)
TRACE_CAP = 10**5


def _check_standard(A, q: PrimePower):
    if any(e >= q.q for e in A):
        raise DomainError(f"monomial {A} has an exponent >= q = {q.q}")
    if any(e < 0 for e in A):
        raise DomainError(f"monomial {A} has a negative exponent")


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
    A scan of more than TRACE_CAP steps is refused before it starts.
    Used by the trace front end and as the reference implementation in tests.
    """
    require_field(f, q.p)
    _check_standard(A, q)
    e2, e1 = f.lead.exps, f.trail.exps
    delta = tuple(b - a for a, b in zip(e2, e1))
    bound = _lead_scan_bound(A, e2, delta)
    steps = []
    if all(a >= e for a, e in zip(A, e1)):
        return MembershipResult(True, "trail", None, bound), steps
    # the scan bound, or the first M at which a growing exponent reaches q
    taken = min([bound, *(-((a - q.q) // d) for a, d in zip(A, delta) if d > 0)])
    if taken > TRACE_CAP:
        raise ResourceError(f"the scan takes {decimal_str(taken)} steps, over the limit of {TRACE_CAP}",
                            required=taken, budget=TRACE_CAP)
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
    exactly at each non-member.  A non-member is one the trail term does
    not divide, and either the lead term does not divide it or no growing
    exponent reaches q within the scan bound.  The monomials are counted by
    their scan bounds, products of interval lengths over the coordinates,
    and never visited: O(m*top) arithmetic and O(top) memory, for the
    smaller top scan bound top <= q.
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
    pairs = list(zip(f.lead.exps, f.trail.exps))
    # Non-members: those outside both the trail's and the lead's ideal, by
    # inclusion-exclusion, and those the lead divides but not the trail whose
    # scan runs out of lead divisibility first (mw > mm).  Where the lead
    # divides, mm (the trades it allows) depends only on the shrinking
    # coordinates and mw (the trades until an exponent reaches q) only on the
    # growing ones, and the trail bit holds on every shrinking and fixed one.
    # A run counts, for z = 1, 2, ..., one coordinate's exponents a >= e2 with
    # mm_i >= z (a >= e2 + (e2 - e1)*(z - 1)), with mw_i >= z (a < qq - (e1 -
    # e2)*(z - 1)), or with that and a >= e1.  A normalized binomial has a
    # shrinking coordinate; with no growing one the lead implies the trail.
    count = (total - prod(max(qq - b, 0) for _, b in pairs)
             - prod(max(qq - a, 0) for a, _ in pairs) + prod(max(qq - max(pair), 0) for pair in pairs))
    shrink = [range(qq - a, 0, b - a) for a, b in pairs if a > b]
    grow = [range(qq - a, 0, a - b) for a, b in pairs if a < b]
    trail = [range(qq - b, 0, a - b) for a, b in pairs if a < b]
    fixed = prod(max(qq - a, 0) for a, b in pairs if a == b)
    top = min(map(len, shrink + grow)) if grow else 0

    def survivors(runs):  # tuples with every bound >= z, for z = 1..top + 1
        return list(map(prod, zip(repeat(1, top + 1), *(chain(r, repeat(0)) for r in runs))))

    mm, g, gt = survivors(shrink), survivors(grow), survivors(trail)
    # by mm = x: those with mw >= x + 1 less those the trail divides
    return count + fixed * sum((mm[x - 1] - mm[x]) * (g[x] - gt[x]) for x in range(1, top + 1))
