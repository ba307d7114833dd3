"""Reference form of the membership criterion, for the tests only.

`is_member` decides membership in closed form: the trail term divides
A, or the lead term does and some growing exponent reaches q within the
scan bound.  The library's `member_scan` performs the literal scan and
`hk_direct_count` inlines the same test row by row; the tests check
that all three agree.
"""

from hkbinomial.algebra import Binomial, PrimePower
from hkbinomial.errors import DomainError
from hkbinomial.keycheck import MembershipResult, _check_standard, _lead_scan_bound


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
        return MembershipResult(True, "trail", None, mm if mm is not None else 0)
    if mm == 0:
        return MembershipResult(False, None, None, 0)
    mw = _first_escape(A, delta, q.q)
    if mw is not None and (mm is None or mw <= mm):
        return MembershipResult(True, "mutation", mw, mm if mm is not None else mw)
    return MembershipResult(False, None, None, mm)
