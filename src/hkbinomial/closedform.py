"""The iterative closed-form count and its building blocks.

The count is a formula in the integer q alone, the length of S/(x_1^q, ...,
x_m^q, f) at every q >= 1, prime power or not: p and n enter only through
q = p^n, which the (p, n) wrappers build after checking the field.  Layout
of the computation, all in the delta-sorted frame:

* mmax_params: per shrinking variable with drop a and minimum power b,
  the top scan bound floor((q - 1 - b)/a), the most trades a monomial at
  that variable's top exponent q - 1 allows.  Not on the value path,
  which reads a and b from the classification: a closed report derives
  it for its payload.
* phi_recursive: `_phi_at` at one scan bound, the block count of the
  non-members whose shrinking exponents are fixed while the zero and
  growing exponents range freely.  Four products of linear factors, one
  over the zero variables and three over the growing ones; `_phi_at`
  takes the two that do not depend on the scan bound once per value.
* g_chain: the trail complement of each prefix of the chain P_t, ...,
  P_1, Z_1, ..., Z_s, N_1, ..., N_r.  Not on the value path: kept only
  for the benchmark's trace.
* closed_form_at, the one body, HK at every q >= 1 on every shape (only
  its wrapper hk_closed_form_tables, at q = p^n, refuses a monomial shape):
  the non-members by scan bound M = 1..V, V ~ q/a the least top scan bound,
  are one PiecewisePoly whose `total` costs O(t * (t + r)) evaluations, so
  the value takes time independent of q; an O(m) inclusion-exclusion term
  adds the rest.  Each evaluation is one summand phi(M) * drop(M) over
  factors built once per value; the classification is cached on the
  exponents (`classify`), so a value costs its evaluations plus O(m) set-up.
* trail_complement_count: the body's value where the ideal is a monomial
  ideal, the shapes `is_monomial_shape` finds from the exponents alone.

Everything is exact integer arithmetic; no floating point.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import le

from .algebra import Binomial, PrimePower, check_field
from .classify import Classification, classify
from .errors import ContractError, DomainError, FormulaDomainError, NotApplicableError


def ceil_div(x: int, d: int) -> int:
    return -((-x) // d)


# ---------------------------------------------------------------------------
# top scan bounds of the shrinking variables


@dataclass(frozen=True)
class MmaxParams:
    """Constants of one shrinking variable at fixed q."""

    var: int  # original 1-based variable index
    a: int
    b: int
    top_value: int  # floor((q - 1 - b)/a): the scan bound at exponent q - 1


def mmax_params(cls: Classification, p: int, n: int) -> tuple:
    """One MmaxParams per shrinking variable (N_1 first).

    Not applicable when q <= nmax for some shrinking variable (then no
    standard monomial is divisible by the lead term and the whole
    closed-form route is vacuous).  Every binomial has a shrinking
    variable: its lead is deglex-greater, so some lead exponent exceeds
    the trail's.
    """
    return _mmax_at(cls, PrimePower(p, n).q)


def _mmax_at(cls: Classification, qq: int) -> tuple:
    for rec in cls.neg:
        if qq <= rec.nmax:
            raise NotApplicableError(f"q = {qq} does not exceed the max power {rec.nmax} "
                                     f"of x{rec.var}")
    return tuple(
        MmaxParams(rec.var, rec.a, rec.nmin, (qq - 1 - rec.nmin) // rec.a)
        for rec in cls.neg
    )


# ---------------------------------------------------------------------------
# phi: counts over the zero/growing block at a fixed scan bound


def _phi_at(cls: Classification, qq: int):
    """M -> the block count at scan bound M, the paper's chain over P_t, ...,
    P_1 and fold over the fixed variables multiplied out: q^(s+t) less the
    members prod_Z (q - zmin) * (prod_G (q - pmin) - prod_G (q - pmin - dp*M)+
    + prod_G (q - pmax - dp*M)+), the tuples the lead divides, less those
    whose every growing exponent stays below q through all M trades, unless
    the trail divides them.  The parts that do not depend on M are taken once."""
    grow, lead, fixed = [], 1, 1
    for P in cls.pos:
        grow.append((qq - P.pmin, qq - P.pmax, P.dp))
        lead *= qq - P.pmin
    for z in cls.zero:
        fixed *= qq - z.zmin
    whole = qq ** (cls.s + cls.t)

    def phi(M):
        low = high = 1
        for lo, hi, dp in grow:
            w = dp * M
            low *= lo - w if lo > w else 0
            high *= hi - w if hi > w else 0
        return whole - fixed * (lead - low + high)

    return phi


def phi_recursive(M: int, cls: Classification, p: int, n: int) -> int:
    """Non-member count over the zero/growing block at scan bound M, q = p^n."""
    if cls.t == 0:
        raise NotApplicableError("no growing variable: the block count is undefined")
    if M < 1:
        raise DomainError(f"scan bound must be >= 1, got {M}")
    return _phi_at(cls, PrimePower(p, n).q)(M)


# ---------------------------------------------------------------------------
# G chain: the trail complement of each chain prefix


def g_chain(cls: Classification, p: int, n: int) -> tuple:
    """Entry k - 1, the value of chain variable k + 1, counts the tuples of the
    first k chain variables that the trail term does not divide (k = 1..m - 1):
    `trail_complement_count` of that prefix, in the chain's order P_t, ...,
    P_1, Z_1, ..., Z_s, N_1, ..., N_r of trail exponents."""
    if cls.t == 0:
        raise NotApplicableError("chain needs a growing variable")
    qq = PrimePower(p, n).q
    weights = [P.pmax for P in reversed(cls.pos)]
    weights += [z.zmin for z in cls.zero] + [N.nmin for N in cls.neg]
    return tuple(trail_complement_count(qq, weights[:k]) for k in range(1, cls.m))


# ---------------------------------------------------------------------------
# degenerate shapes: the ideal is a monomial ideal


def is_monomial_shape(lead_exps, trail_exps, qq: int) -> bool:
    """True when (x_1^q, ..., x_m^q, f) = (x_1^q, ..., x_m^q, trail), for f
    with these lead and trail exponents.

    Either no variable grows (every trail exponent is at most its lead
    exponent, t = 0: the trail term divides the lead term, so f = trail *
    unit in the Artinian local quotient), or some lead exponent is >= q (the
    lead term lies in the Frobenius power).  It reads only the exponents, so
    no route needs the classification to take it.
    """
    return all(map(le, trail_exps, lead_exps)) or max(lead_exps) >= qq


def trail_complement_count(qq: int, trail_exps) -> int:
    """Standard monomials with some exponent under its trail power: the
    length q^m - prod max(0, q - e_i) of S / (x_1^q, ..., x_m^q, trail)."""
    prod = 1
    for e in trail_exps:
        prod *= max(0, qq - e)
    return qq ** len(trail_exps) - prod


# ---------------------------------------------------------------------------
# piecewise polynomials: the non-members by scan bound


class PiecewisePoly:
    """An integer function on [0, length) that is a polynomial of degree at
    most `degree` between consecutive cuts, and `total`, the sum of its
    values.

    Each piece keeps its forward differences D_k at its start (Newton
    form): the value u steps into the piece is sum D_k * C(u, k), and the
    sum of its first u values is sum D_k * C(u, k + 1).

    A piece is built by evaluating `fn` at min(degree + 1, piece length)
    points.  `breaks` may hold extra cuts (and cuts outside the range,
    which are dropped); a missing one is caught on any piece longer than
    degree + 1 by evaluating its last point as well, which raises
    ContractError when it differs from the Newton form.
    """

    __slots__ = ("length", "starts", "diffs", "total")

    def __init__(self, fn, length: int, breaks, degree: int):
        cuts = sorted({0, length, *breaks})
        cuts = cuts[bisect_left(cuts, 0) : bisect_right(cuts, length)]
        self.length = length
        self.starts = cuts[:-1]
        self.diffs = []
        total = 0
        for lo, hi in zip(cuts, cuts[1:]):
            diffs = [fn(x) for x in range(lo, min(lo + degree + 1, hi))]
            for k in range(1, len(diffs)):  # in place: diffs[j] becomes D_j
                for j in range(len(diffs) - 1, k - 1, -1):
                    diffs[j] -= diffs[j - 1]
            if hi - lo > degree + 1 and _newton(diffs, hi - 1 - lo, 0) != fn(hi - 1):
                raise ContractError(
                    f"not a polynomial of degree <= {degree} on [{lo}, {hi}): a cut is missing"
                )
            self.diffs.append(diffs)
            total += _newton(diffs, hi - lo, 1)
        self.total = total

    def __call__(self, x: int) -> int:
        if not 0 <= x < self.length:
            raise ContractError(f"{x} is outside [0, {self.length - 1}]")
        i = bisect_right(self.starts, x) - 1
        return _newton(self.diffs[i], x - self.starts[i], 0)


def _newton(diffs, u: int, shift: int) -> int:
    """sum_k diffs[k] * C(u, k + shift) for u >= 0 and shift 0 or 1."""
    total, c = 0, (u if shift else 1)
    for k, d in enumerate(diffs, shift):
        total += d * c
        c = c * (u - k) // (k + 1)
    return total


# ---------------------------------------------------------------------------
# full assembly


def hk_closed_form_tables(f: Binomial, p: int, n: int):
    """(value, by_bound) of `closed_form_at` for f at q = p^n after the field check, or
    NotApplicableError where by_bound is None; a closed report derives `mmax_params` when read."""
    value, by_bound = closed_form_at(classify(f), check_field(f, p, n).q)
    if by_bound is None:
        raise NotApplicableError("no growing variable, or a lead exponent is >= q: "
                                 "the length is the trail complement count")
    return value, by_bound


def closed_form_at(cls: Classification, qq: int):
    """(value, by_bound) at an integer q >= 1, on every shape: the length and
    the non-members by scan bound (x -> those at bound x + 1, on [0, V)), or
    on a monomial shape (`is_monomial_shape`) the trail complement count and None.

    Sums the non-members by scan bound M = 1..V, V the least top scan bound
    floor((q - 1 - b)/a), read from the classification's shrinking
    variables.  at_least(M) counts the shrinking tuples past the lead powers
    whose every bound is >= M: a product of r factors q - b - a*M, each >= 1
    for M <= V, and 0 from M = V + 1 on, where the first factor is <= 0.
    Bound M holds phi(M) * drop(M) non-members, drop(M) = at_least(M) -
    at_least(M + 1): a polynomial of degree t + r - 1 in M between phi's
    cuts, with one more cut at M = V, where at_least(M + 1) is 0.  drop
    takes both products in one pass over the factors.  The other monomials
    are those whose shrinking part the lead does not divide: a non-member
    exactly when the trail does not divide it, counted by inclusion-exclusion.
    """
    if is_monomial_shape(cls.lead_exps, cls.trail_exps, qq):
        return trail_complement_count(qq, cls.trail_exps), None
    factors, cuts = [], []  # factor c - a*x at x = M - 1; cut x where a factor reaches its end
    past_lead = past_trail = 1  # at_least(1) and the count past the trail powers
    for N in cls.neg:
        c = qq - N.nmax  # q - b - a*M at M = 1, > 0 (shape test)
        factors.append((c, N.a))
        cuts.append((c - 1) // N.a)  # V_i - 1
        past_lead *= c
        past_trail *= qq - N.nmin
    V = min(cuts) + 1
    if V < 1:
        raise FormulaDomainError("top scan bound below 1")
    for P in cls.pos:  # where each clamped factor of the block count reaches 0
        cuts += (ceil_div(qq - P.pmin, P.dp) - 1, (qq - P.pmax) // P.dp)
    phi = _phi_at(cls, qq)

    def summand(x):  # phi(M) * drop(M) at M = x + 1
        now = after = 1
        for c, a in factors:
            c -= a * x  # >= 1, as M <= V
            now *= c
            after *= c - a if c > a else 0  # factor at M + 1; <= 0 makes at_least(M + 1) 0
        return phi(x + 1) * (now - after)

    by_bound = PiecewisePoly(summand, V, cuts, cls.t + cls.r - 1)
    rest = 1  # trail complement of the zero and growing variables
    for z in cls.zero:
        rest *= qq - z.zmin  # zmin is a lead exponent, < q past the shape test
    for P in cls.pos:
        rest *= qq - P.pmax if qq > P.pmax else 0
    lead_fails = qq ** (cls.s + cls.t) * (qq**cls.r - past_lead)  # less those the trail divides
    lead_fails -= rest * (past_trail - past_lead)
    return by_bound.total + lead_fails, by_bound


def hk_closed_form(f: Binomial, p: int, n: int) -> int:
    """Exact quotient length via the iterative closed form.

    Applicable when there is at least one growing variable and every lead
    exponent is at most q-1; raises NotApplicableError otherwise.  Those
    excluded shapes are exactly `is_monomial_shape`, whose length is
    `trail_complement_count`.  The cost does not depend on q.
    """
    return hk_closed_form_tables(f, p, n)[0]
