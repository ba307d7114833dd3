"""The iterative closed-form count and its building blocks.

Layout of the computation, all in the delta-sorted frame:

* phi_recursive: for a fixed scan bound, counts the non-members among
  monomials whose shrinking exponents are fixed while the zero and
  growing exponents range freely.  Built from suffix chains over the
  growing variables followed by a fold over the zero variables.
* g_chain: counts, per shrinking variable, the non-members that arise
  once the lead term stops dividing (membership then reduces to trail
  divisibility); a single descending product chain.
* hk_closed_form: assembles the total by enumerating each shrinking
  variable's exponent through its bracket table, folding levels from the
  least negative variable outward.  A level is a function of the scan
  offset j in [0, Vr), Vr ~ q/a, and is kept as a PiecewisePoly: phi is a
  polynomial of degree <= t in the scan bound between at most 2t cuts
  per growing variable, and each fold (a linear or capped factor times
  the level, plus a bracket-weighted suffix sum of it, plus a constant)
  raises the degree by one at cuts known in closed form.  A level costs
  O(cuts * degree) evaluations, so the value takes time independent of q.
* trail_complement_count: the length for the shapes the closed form
  excludes (`is_monomial_shape`), where the ideal is a monomial ideal.

Everything is exact integer arithmetic; no floating point.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .algebra import Binomial
from .classify import Classification, classify
from .errors import ContractError, DomainError, FormulaDomainError, NotApplicableError
from .mmax import MmaxParams, ceil_div, mmax_params


# ---------------------------------------------------------------------------
# phi: counts over the zero/growing block at a fixed scan bound


def _minc(M, P, qq):
    """Escape threshold width for one growing variable: min(q - pmin, M*dp)."""
    cap = qq - P.pmin
    grow = M * P.dp
    return cap if grow >= cap else grow


def _phi_value(M: int, cls: Classification, qq: int) -> int:
    """Chain evaluation of the block count at scan bound M (t >= 1).

    One step per growing variable, P_t down to P_1; Dt after P_1 is the
    count over the growing block.  A capped minc leaves rest = 0 and so
    h = 0 (pmin < pmax), which drops the rest and h terms.
    """
    A, C, D, Dt = 0, 1, 1, 0
    for P in reversed(cls.pos):
        minc = _minc(M, P, qq)
        rest = qq - P.pmin - minc
        h = max(0, qq - minc - P.pmax)
        base = minc * A + P.pmin * C
        A, C, D, Dt = (
            (qq - P.pmin) * A + P.pmin * C,
            C * qq,
            base + rest * D,
            base + h * Dt + (rest - h) * D,
        )
    S = Dt
    for j, z in enumerate(cls.zero):
        S = S * (qq - z.zmin) + qq ** (cls.t + j) * z.zmin
    return S


def phi_recursive(M: int, cls: Classification, p: int, n: int) -> int:
    """Non-member count over the zero/growing block at scan bound M."""
    if cls.t == 0:
        raise NotApplicableError("no growing variable: the block count is undefined")
    if M < 1:
        raise DomainError(f"scan bound must be >= 1, got {M}")
    return _phi_value(M, cls, p**n)


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
    if cls.r == 0 or cls.t == 0:
        raise NotApplicableError("chain needs a shrinking and a growing variable")
    qq = p**n
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


def is_monomial_shape(cls: Classification, qq: int) -> bool:
    """True when (x_1^q, ..., x_m^q, f) = (x_1^q, ..., x_m^q, trail).

    Either no variable grows (t = 0: the trail term divides the lead term,
    so f = trail * unit in the Artinian local quotient), or some lead
    exponent is >= q (the lead term lies in the Frobenius power).
    """
    return cls.t == 0 or max(cls.lead_exps) >= qq


def trail_complement_count(qq: int, trail_exps) -> int:
    """Standard monomials with some exponent under its trail power: the
    length q^m - prod max(0, q - e_i) of S / (x_1^q, ..., x_m^q, trail)."""
    prod = 1
    for e in trail_exps:
        prod *= max(0, qq - e)
    return qq ** len(trail_exps) - prod


# ---------------------------------------------------------------------------
# piecewise polynomials: the levels of the fold


class PiecewisePoly:
    """An integer function on [0, length) that is a polynomial of degree at
    most `degree` between consecutive cuts.

    Each piece keeps its forward differences D_k at its start (Newton
    form): the value u steps into the piece is sum D_k * C(u, k), and the
    sum of its first u values is sum D_k * C(u, k + 1).  Running totals of
    whole pieces make `prefix` cost O(log pieces + degree).

    A piece is built by evaluating `fn` at min(degree + 1, piece length)
    points.  `breaks` may hold extra cuts (and cuts outside the range,
    which are dropped); a missing one is caught on any piece longer than
    degree + 1 by evaluating its last point as well, which raises
    ContractError when it differs from the Newton form.
    """

    __slots__ = ("length", "starts", "diffs", "totals")

    def __init__(self, fn, length: int, breaks, degree: int):
        cuts = sorted({0, length}.union(b for b in breaks if 0 < b < length))
        self.length = length
        self.starts = cuts[:-1]
        self.diffs = []
        self.totals = [0]  # totals[i]: sum of the values before piece i
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
            self.totals.append(self.totals[-1] + _newton(diffs, hi - lo, 1))

    def _piece(self, x: int, hi: int) -> int:
        if not 0 <= x <= hi:
            raise ContractError(f"{x} is outside [0, {hi}]")
        return bisect_right(self.starts, x) - 1

    def __call__(self, x: int) -> int:
        i = self._piece(x, self.length - 1)
        return _newton(self.diffs[i], x - self.starts[i], 0)

    def prefix(self, x: int) -> int:
        """Sum of the values at 0, ..., x - 1."""
        i = self._piece(x, self.length)
        return self.totals[i] + _newton(self.diffs[i], x - self.starts[i], 1)


def _newton(diffs, u: int, shift: int) -> int:
    """sum_k diffs[k] * C(u, k + shift) for u >= 0 and shift 0 or 1."""
    total, c = 0, (u if shift else 1)
    for k, d in enumerate(diffs, shift):
        total += d * c
        c = c * (u - k) // (k + 1)
    return total


# ---------------------------------------------------------------------------
# full assembly


@dataclass(frozen=True)
class ClosedFormTables:
    g_p: tuple
    g_z: tuple
    g_n: tuple
    d_consts: tuple  # first-bracket-width constant per shrinking variable
    xtilde: tuple  # last offset contributed by each shrinking variable
    level_top: PiecewisePoly  # the outermost level, j -> value on [0, Vr)


def _setup(f: Binomial, p: int, n: int):
    cls = classify(f)
    qq = p**n
    if is_monomial_shape(cls, qq):
        raise NotApplicableError(
            "no growing variable, or a lead exponent is >= q: "
            "the length is the trail complement count"
        )
    params = mmax_params(cls, p, n)
    return cls, qq, params


def _bracket_sum(level: PiecewisePoly, prm: MmaxParams, delta: int, u: int) -> int:
    """sum over brackets jp = u, ..., L-1 of width[jp] * level[jp + delta].

    The widths are 1+E for jp = 0, a for 1 <= jp < ktilde_last and a' for
    jp = ktilde_last (absent when a' = 0), so the sum is three range sums.
    """
    kt = prm.ktilde_last
    total = 0
    for lo, hi, width in ((0, 1, 1 + prm.excess), (1, kt, prm.a), (kt, kt + 1, prm.a_prime)):
        lo = max(lo, u)
        if lo < hi and width:  # a' = 0: no last bracket; kt + 1 + delta may pass Vr
            total += width * (level.prefix(hi + delta) - level.prefix(lo + delta))
    return total


def _level_zero(cls: Classification, qq: int, Vr: int) -> PiecewisePoly:
    """j -> phi(Vr - j).  Per growing variable, phi changes formula at the
    least M where M*dp reaches q - pmin (minc caps, rest hits 0) and at the
    least M where it passes q - pmax (h hits 0); j = Vr - M + 1 starts the
    piece just below each such M."""
    breaks = set()
    for P in cls.pos:
        for M in (ceil_div(qq - P.pmin, P.dp), (qq - P.pmax) // P.dp + 1):
            breaks.add(Vr - M + 1)
    return PiecewisePoly(lambda j: _phi_value(Vr - j, cls, qq), Vr, breaks, cls.t)


def _fold(
    level: PiecewisePoly, prm: MmaxParams, delta: int, K: int, const: int, degree: int
) -> PiecewisePoly:
    """One level out: new[j] = stay(j) * level[j] + tail(j) + const, where
    x = j - delta, stay = min(1 + E + a*x, K) for x >= 0 (else 0), and
    tail = the bracket sum from u = max(x + 1, lo).  stay is linear and the
    tail a sum of `level`, so the degree grows by one.  The tail is one
    polynomial in u on each closed span between the clamp lo, the width
    changes 1, kt and L, and the old cuts shifted by -delta; a cut at
    j = u + delta for each of those u, plus the old cuts and the two
    places where stay starts and caps, covers every change."""
    lo = max(0, -delta)
    kt = prm.ktilde_last
    L = kt + (prm.a_prime > 0)

    def value(j):
        x = j - delta
        stay = 0 if x < 0 else min(1 + prm.excess + prm.a * x, K)
        u = max(x + 1, lo)  # u >= L leaves an empty sum
        return stay * level(j) + _bracket_sum(level, prm, delta, u) + const

    breaks = set(level.starts)
    breaks.update((delta, delta + ceil_div(K - 1 - prm.excess, prm.a)))
    breaks.update(u + delta for u in (lo, 1, kt, L))
    return PiecewisePoly(value, level.length, breaks, degree)


def _assemble(f: Binomial, p: int, n: int):
    """Fold the levels from the least negative shrinking variable outward,
    each a piecewise polynomial in j on [0, Vr), then sum the outermost
    over its brackets."""
    cls, qq, params = _setup(f, p, n)
    r, s, t = cls.r, cls.s, cls.t
    V = [prm.top_value for prm in params]
    Vr = V[r - 1]
    if Vr < 1:
        raise FormulaDomainError("top scan bound below 1")
    gch = g_chain(cls, p, n)

    def const(i):
        rec = cls.neg[i - 1]
        return (rec.nmax - rec.nmin) * gch.g_n[i - 1] + rec.nmin * qq ** (s + t + i - 1)

    level = _level_zero(cls, qq, Vr)
    for i in range(2, r + 1):
        prm = params[i - 2]
        level = _fold(level, prm, Vr - V[i - 2], qq - prm.nmax, const(i - 1), t + i - 1)
    total = _bracket_sum(level, params[r - 1], 0, 0) + const(r)
    return total, cls, params, gch, level, V


def hk_closed_form(f: Binomial, p: int, n: int) -> int:
    """Exact quotient length via the iterative closed form.

    Applicable when there is at least one growing variable and every lead
    exponent is at most q-1; raises NotApplicableError otherwise.  Those
    excluded shapes are exactly `is_monomial_shape`, whose length is
    `trail_complement_count`.  The cost does not depend on q.
    """
    total, *_ = _assemble(f, p, n)
    return total


def hk_closed_form_tables(f: Binomial, p: int, n: int):
    """Closed-form value plus the audit tables and per-variable constants."""
    total, cls, params, gch, level, V = _assemble(f, p, n)
    Vr = V[cls.r - 1]
    d_consts = tuple(
        (1 + prm.excess) + prm.a * (V[i] - Vr) for i, prm in enumerate(params)
    )
    xtilde = tuple((Vr - V[i]) + prm.ktilde_last for i, prm in enumerate(params))
    tables = ClosedFormTables(
        g_p=gch.g_p,
        g_z=gch.g_z,
        g_n=gch.g_n,
        d_consts=d_consts,
        xtilde=xtilde,
        level_top=level,
    )
    return total, tables, params
