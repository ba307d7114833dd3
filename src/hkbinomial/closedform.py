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
* phi_recursive: for a fixed scan bound, counts the non-members among
  monomials whose shrinking exponents are fixed while the zero and
  growing exponents range freely.  Four products of linear factors, one
  over the zero variables and three over the growing ones.
* g_chain: counts, per shrinking variable, the non-members that arise
  once the lead term stops dividing (membership then reduces to trail
  divisibility); a single descending product chain.  Not on the value
  path: kept only for the benchmark's trace until it moves to the tests.
* closed_form_at, the one body, HK at every q >= 1 on every shape (only
  its wrapper hk_closed_form_tables, at q = p^n, refuses a monomial shape):
  the non-members by scan bound M = 1..V, V ~ q/a the least top scan bound,
  are one PiecewisePoly whose `total` costs O(t * (t + r)) evaluations, so
  the value takes time independent of q; an O(m) inclusion-exclusion term
  adds the rest.  Each evaluation multiplies r precomputed linear factors,
  each >= 1 on M = 1..V; the classification it reads is cached on the
  exponents (`classify`), so a value's fixed cost is a few such points.
* trail_complement_count: the body's value where the ideal is a monomial
  ideal, the shapes `is_monomial_shape` finds from the exponents alone.

Everything is exact integer arithmetic; no floating point.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import prod
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
        MmaxParams(rec.var, rec.a, rec.b, (qq - 1 - rec.b) // rec.a)
        for rec in cls.neg
    )


# ---------------------------------------------------------------------------
# phi: counts over the zero/growing block at a fixed scan bound


def _phi_value(M: int, cls: Classification, qq: int) -> int:
    """The block count at scan bound M, the paper's chain over P_t, ..., P_1
    and fold over the fixed variables multiplied out: q^(s+t) less the members
    prod_Z (q - zmin) * (prod_G (q - pmin) - prod_G (q - pmin - dp*M)+
    + prod_G (q - pmax - dp*M)+), the tuples the lead divides, less those
    whose every growing exponent stays below q through all M trades, unless
    the trail divides them."""
    lead = low = high = 1
    for P in cls.pos:
        w = qq - P.dp * M
        lead *= qq - P.pmin
        low *= w - P.pmin if w > P.pmin else 0
        high *= w - P.pmax if w > P.pmax else 0
    fixed = 1
    for z in cls.zero:
        fixed *= qq - z.zmin
    return qq ** (cls.s + cls.t) - fixed * (lead - low + high)


def phi_recursive(M: int, cls: Classification, p: int, n: int) -> int:
    """Non-member count over the zero/growing block at scan bound M, q = p^n."""
    if cls.t == 0:
        raise NotApplicableError("no growing variable: the block count is undefined")
    if M < 1:
        raise DomainError(f"scan bound must be >= 1, got {M}")
    return _phi_value(M, cls, PrimePower(p, n).q)


# ---------------------------------------------------------------------------
# G chains: counts once the lead term has stopped dividing


@dataclass(frozen=True)
class GChains:
    g_p: tuple  # value for P_q, q = 1..t-1 (empty when t <= 1)
    g_z: tuple  # value for Z_l, l = 1..s
    g_n: tuple  # value for N_i, i = 1..r


def g_chain(cls: Classification, p: int, n: int) -> GChains:
    """Descending product chain seeded at the top growing variable.

    The value attached to a variable counts the tuples of later-sorted
    exponents that break trail divisibility; each step consumes the
    variable immediately above.  The chain runs P_t, ..., P_1, Z_1, ...,
    Z_s, N_1, ..., N_r, so a variable's position in it is the number of
    variables above it, and each weight is the variable's trail exponent.
    """
    if cls.t == 0:
        raise NotApplicableError("chain needs a growing variable")
    qq = PrimePower(p, n).q
    t, s = cls.t, cls.s
    weights = [P.pmax for P in reversed(cls.pos)]
    weights += [z.zmin for z in cls.zero] + [N.nmin for N in cls.neg]
    values, cur = [], 0  # values[k]: the value attached to chain entry k + 1
    for above, w in enumerate(weights[:-1]):
        cur = max(0, qq - w) * cur + min(w, qq) * qq**above
        values.append(cur)
    return GChains(
        g_p=tuple(reversed(values[: t - 1])),
        g_z=tuple(values[t - 1 : t - 1 + s]),
        g_n=tuple(values[t - 1 + s :]),
    )


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
        cuts = sorted({0, length}.union(b for b in breaks if 0 < b < length))
        self.length = length
        self.starts = cuts[:-1]
        self.diffs = []
        total = 0
        for lo, hi in zip(cuts, cuts[1:]):
            row = [fn(x) for x in range(lo, min(lo + degree + 1, hi))]
            diffs = []
            while row:
                diffs.append(row[0])
                row = [b - a for a, b in zip(row, row[1:])]
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


def scan_cuts(cls: Classification, qq: int) -> list:
    """(rate, x = M - 1) per cut of the count by scan bound: V_i - 1 per
    shrinking variable, and per growing one where each of its two clamped
    factors in the block count reaches 0.
    x is q/rate plus an offset, constant on a class of q mod rate and at
    most (E + 1)/rate + 2 in size, E the largest exponent."""
    cuts = [(N.a, (qq - 1 - N.b) // N.a - 1) for N in cls.neg]
    for P in cls.pos:
        cuts += [(P.dp, ceil_div(qq - P.pmin, P.dp) - 1), (P.dp, (qq - P.pmax) // P.dp)]
    return cuts


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
    factors = [(qq - N.b, N.a) for N in cls.neg]  # factor c - a*M at M
    V = min((c - 1) // a for c, a in factors)
    if V < 1:
        raise FormulaDomainError("top scan bound below 1")

    def drop(M):
        now = after = 1
        for c, a in factors:
            c -= a * M  # >= 1, as M <= V
            now *= c
            after *= c - a if c > a else 0  # factor at M + 1; <= 0 makes at_least(M + 1) 0
        return now - after

    by_bound = PiecewisePoly(
        lambda x: _phi_value(x + 1, cls, qq) * drop(x + 1),
        V, [x for _, x in scan_cuts(cls, qq)], cls.t + cls.r - 1,
    )
    past_lead = prod(qq - N.nmax for N in cls.neg)  # at_least(1); each q - nmax > 0 (shape test)
    past_trail = prod(qq - N.nmin for N in cls.neg)
    rest_trail = [z.zmin for z in cls.zero] + [P.pmax for P in cls.pos]
    lead_fails = qq ** (cls.s + cls.t) * (qq**cls.r - past_lead)  # less those the trail divides
    lead_fails -= prod(max(0, qq - e) for e in rest_trail) * (past_trail - past_lead)
    return by_bound.total + lead_fails, by_bound


def hk_closed_form(f: Binomial, p: int, n: int) -> int:
    """Exact quotient length via the iterative closed form.

    Applicable when there is at least one growing variable and every lead
    exponent is at most q-1; raises NotApplicableError otherwise.  Those
    excluded shapes are exactly `is_monomial_shape`, whose length is
    `trail_complement_count`.  The cost does not depend on q.
    """
    return hk_closed_form_tables(f, p, n)[0]
