"""Reference forms of the closed form's parts, for the tests only.

`levels_linear` is the level fold with one list entry per scan offset:
Vr ~ q/a big integers and Vr calls of the block count, so O(q) time and
memory.  With `naive=True` it also drops the running suffix sums, for a
quadratic-time version.  The library's piecewise-polynomial fold must
give the same totals.  `phi_tables` runs the paper's chain recurrence
for the block count, over P_t, ..., P_1 and then the zero variables,
keeping every intermediate value: the library's product formula
`_phi_at` is checked against it.  `phi_product` is a product form of
the block count written with the chain's minc, rest and h, and
`g_complement` a product form of the g-chain values.
`phi_closed_simple` is the block count's single formula in the simple
case, `mmax_three_branch` the first bracket of a scan-bound table in its
three-branch form, and `mmax_closed` the scan bound of one monomial read
off the bracket tables, whose widths `brackets` derives from a
variable's drop and q.
`classify_reference` is the classification built by sign block, with
the `(delta, index)` sort key and the 1-based N_i, Z_i, P_q positions
written out, which the library's one-pass `classify` must match.
`closed_form_at_reference` is the closed body as it was composed before
its fixed cost was cut: a lambda over `_phi_at(cls, q)` and `drop` per point,
the cuts from `scan_cuts` as (rate, x) pairs, and `PiecewisePolyReference`,
which builds its cut set from a generator and its differences by list
comprehensions.  The library's `closed_form_at` must give the same value
and the same pieces.
"""

import itertools
from dataclasses import dataclass
from math import prod

from hkbinomial.algebra import check_field
from hkbinomial.classify import Classification, NegVar, PosVar, ZeroVar, classify
from hkbinomial.closedform import (
    MmaxParams, _newton, _phi_at, ceil_div, is_monomial_shape, mmax_params, trail_complement_count,
)
from hkbinomial.errors import ContractError, DomainError, FormulaDomainError, NotApplicableError


def classify_reference(f) -> Classification:
    """The classification of f: variables sorted by (delta, index), then
    N_i at sorted position r+1-i, Z_i at r+s+1-i and P_q at r+s+q (1-based)."""
    e2, e1 = f.lead.exps, f.trail.exps
    delta_orig = [e1[i] - e2[i] for i in range(f.m)]
    order = sorted(range(f.m), key=lambda i: (delta_orig[i], i))
    delta = tuple(delta_orig[i] for i in order)
    r = sum(1 for d in delta if d < 0)
    s = sum(1 for d in delta if d == 0)
    t = f.m - r - s
    neg = []
    for i in range(1, r + 1):
        orig = order[r - i]
        lo, hi = min(e1[orig], e2[orig]), max(e1[orig], e2[orig])
        neg.append(NegVar(var=orig + 1, a=-delta_orig[orig], b=lo, nmin=lo, nmax=hi))
    zero = []
    for i in range(1, s + 1):
        orig = order[r + s - i]
        zero.append(ZeroVar(var=orig + 1, zmin=e1[orig], zmax=e1[orig]))
    pos = []
    for q in range(1, t + 1):
        orig = order[r + s + q - 1]
        lo, hi = min(e1[orig], e2[orig]), max(e1[orig], e2[orig])
        pos.append(PosVar(var=orig + 1, dp=delta_orig[orig], pmin=lo, pmax=hi))
    return Classification(m=f.m, r=r, s=s, t=t, perm=tuple(order), delta=delta,
                          neg=tuple(neg), zero=tuple(zero), pos=tuple(pos), lead_exps=e2,
                          trail_exps=e1)


def _minc(M, P, qq):
    """Escape threshold width for one growing variable: min(q - pmin, M*dp)."""
    cap = qq - P.pmin
    grow = M * P.dp
    return cap if grow >= cap else grow


def brackets(prm: MmaxParams, qq: int):
    """(excess, ktilde_last, a_prime) of a variable's bracket table.

    Distance k = q - x from the top exponent, for k in [1, q - nmax], has
    the scan bound floor((q - k - b)/a).  The first bracket (k = 1, ...,
    1 + excess) has the top value, each further bracket of width a one
    less; ktilde_last is the index of the last bracket (>= 1 by
    convention) and a_prime its width, possibly zero.
    """
    K = qq - prm.b - prm.a  # q - nmax
    excess = (qq - 1 - prm.b) % prm.a
    kt = max(1, ceil_div(K - 1 - excess, prm.a))
    return excess, kt, K - (1 + excess + prm.a * (kt - 1))


def widths(prm: MmaxParams, qq: int):
    """Bracket widths [first, a, ..., a, last]; a zero-width last bracket is
    dropped so the list length equals the number of populated brackets."""
    excess, kt, a_prime = brackets(prm, qq)
    w = [1 + excess]
    w.extend([prm.a] * (kt - 1))
    if a_prime > 0:
        w.append(a_prime)
    return w


def levels_linear(cls, qq, params, p, n, naive=False, phis=None):
    """Integral vectors per shrinking level, outermost last; phis[M] is the
    block count at scan bound M = 1..Vr, `_phi_at` at each when None."""
    r, s, t = cls.r, cls.s, cls.t
    V = [prm.top_value for prm in params]
    Vr = V[r - 1]
    if Vr < 1:
        raise FormulaDomainError("top scan bound below 1")
    phi = _phi_at(cls, qq)
    level = phis[Vr:0:-1] if phis else [phi(Vr - j) for j in range(Vr)]
    for i in range(2, r + 1):
        prm = params[i - 2]
        rec = cls.neg[i - 2]
        delta = Vr - V[i - 2]
        w = widths(prm, qq)
        L = len(w)
        g_n = g_complement(cls, p, n, "N", i - 1)
        const = (rec.nmax - rec.nmin) * g_n + rec.nmin * qq ** (s + t + i - 2)
        if naive:
            level = [
                sum(w[jp] * level[max(j, jp + delta)] for jp in range(L)) + const
                for j in range(Vr)
            ]
            continue
        K = qq - rec.nmax
        lo = max(0, -delta)
        suffix = [0] * (L + 1)
        for jp in range(L - 1, lo - 1, -1):
            suffix[jp] = suffix[jp + 1] + w[jp] * level[jp + delta]
        new = []
        for j in range(Vr):
            x = j - delta
            stay = 0 if x < 0 else min(w[0] + prm.a * x, K)
            tail_from = max(x + 1, lo)
            tail = suffix[tail_from] if tail_from <= L else 0
            new.append(stay * level[j] + tail + const)
        level = new
    return level


def hk_closed_form_linear(f, p, n, naive=False, phis=None):
    """Closed-form total from the list fold; returns (total, outermost level).
    phis as in `levels_linear`."""
    qq, cls = check_field(f, p, n).q, classify(f)
    if is_monomial_shape(f.lead.exps, f.trail.exps, qq):
        raise NotApplicableError("the length is the trail complement count")
    params = mmax_params(cls, p, n)
    r, s, t = cls.r, cls.s, cls.t
    level = levels_linear(cls, qq, params, p, n, naive=naive, phis=phis)
    rec = cls.neg[r - 1]
    total = sum(w * level[jp] for jp, w in enumerate(widths(params[r - 1], qq)))
    g_n = g_complement(cls, p, n, "N", r)
    total += (rec.nmax - rec.nmin) * g_n + rec.nmin * qq ** (s + t + r - 1)
    return total, level


def hk_closed_form_naive(f, p, n) -> int:
    """Quadratic-time assembly without suffix sums."""
    return hk_closed_form_linear(f, p, n, naive=True)[0]


def phi_product(M: int, cls: Classification, p: int, n: int) -> int:
    """Product form of the block count in the chain's terms: escapees by a
    small exponent plus the window product minus the all-windows-above-trail
    product, then the chain's zero-variable fold."""
    qq = p**n
    t, s = cls.t, cls.s
    prod_div = 1
    prod_rest = 1
    prod_h = 1
    for P in cls.pos:
        minc = _minc(M, P, qq)
        rest = qq - P.pmin - minc
        prod_div *= max(0, qq - P.pmin)
        prod_rest *= rest
        prod_h *= max(0, qq - minc - P.pmax)
    S = (qq**t - prod_div) + (prod_rest - prod_h)
    for j in range(1, s + 1):
        z = cls.zero[j - 1]
        S = S * (qq - z.zmin) + qq ** (t + j - 1) * z.zmin
    return S


def g_complement(cls: Classification, p: int, n: int, kind: str, i: int) -> int:
    """Reference form of the chain value for P_i, Z_i or N_i (`kind` "P",
    "Z" or "N"): all tuples of the exponents above it in the chain minus
    those keeping every exponent at or above its trail power.  Above P_i
    are P_{i+1}, ..., P_t; above Z_i every P and Z_1, ..., Z_{i-1}; above
    N_i every P, every Z and N_1, ..., N_{i-1}."""
    qq = p**n
    pos = [P.pmax for P in cls.pos]
    zero = [z.zmin for z in cls.zero]
    trail = {
        "P": pos[i:],
        "Z": pos + zero[: i - 1],
        "N": pos + zero + [N.nmin for N in cls.neg[: i - 1]],
    }[kind]
    prod = 1
    for e in trail:
        prod *= max(0, qq - e)
    return qq ** len(trail) - prod


@dataclass(frozen=True)
class PhiTables:
    """Intermediate chain values, kept for auditing."""

    m_bound: int
    minc: tuple
    s_: tuple
    d_: tuple
    h_: tuple
    chain: tuple  # rows (q, A_q, C_q, D_q, Dt_q) for q = t+1 down to 2
    s_values: tuple  # folded values for j = 0..s
    phi: int


def phi_tables(M: int, cls: Classification, p: int, n: int) -> PhiTables:
    if cls.t == 0:
        raise NotApplicableError("no growing variable")
    if M < 1:
        raise DomainError(f"scan bound must be >= 1, got {M}")
    qq = p**n
    t, s = cls.t, cls.s
    minc = tuple(_minc(M, P, qq) for P in cls.pos)
    s_ = tuple(min(P.pmax - 1, qq - minc[k] - 1) for k, P in enumerate(cls.pos))
    d_ = tuple(s_[k] - P.pmin + 1 for k, P in enumerate(cls.pos))
    h_ = tuple(max(0, (qq - minc[k]) - P.pmax) for k, P in enumerate(cls.pos))
    A, C, D, Dt = 0, 1, 1, 0
    chain = [(t + 1, A, C, D, Dt)]
    for qi in range(t, 1, -1):
        P = cls.pos[qi - 1]
        k = qi - 1
        if minc[k] < qq - P.pmin:
            Dt_new = minc[k] * A + h_[k] * Dt + d_[k] * D + P.pmin * C
        else:
            Dt_new = minc[k] * A + P.pmin * C
        A, C, D, Dt = (
            (qq - P.pmin) * A + P.pmin * C,
            qq ** (t - qi + 1),
            minc[k] * A + (qq - P.pmin - minc[k]) * D + P.pmin * C,
            Dt_new,
        )
        chain.append((qi, A, C, D, Dt))
    P = cls.pos[0]
    B = (h_[0] * Dt + d_[0] * D) if minc[0] < qq - P.pmin else 0
    S = A * minc[0] + B + C * P.pmin
    s_values = [S]
    for j in range(1, s + 1):
        z = cls.zero[j - 1]
        S = S * (qq - z.zmin) + qq ** (t + j - 1) * z.zmin
        s_values.append(S)
    return PhiTables(M, minc, s_, d_, h_, tuple(chain), tuple(s_values), S)


def phi_closed_simple(M: int, cls: Classification, p: int, n: int) -> int:
    """Single-formula block count, valid only in the simple case where
    every escape threshold sits strictly between the two trivial regimes:
    q - pmax <= minc_q < q - pmin for every growing variable.
    """
    if cls.t == 0:
        raise NotApplicableError("no growing variable")
    if M < 1:
        raise DomainError(f"scan bound must be >= 1, got {M}")
    qq = p**n
    t, s = cls.t, cls.s
    mincs = []
    for P in cls.pos:
        minc = _minc(M, P, qq)
        if not (qq - P.pmax <= minc < qq - P.pmin):
            raise NotApplicableError(
                f"simple-case guard fails for x{P.var}: "
                f"need {qq - P.pmax} <= {minc} < {qq - P.pmin}"
            )
        mincs.append(minc)
    base = 1
    for P in cls.pos:
        base *= qq - M * P.dp
    acc = base
    pmins = [P.pmin for P in cls.pos]
    for l in range(2, t + 1):
        e_l = 0
        for subset in itertools.combinations(range(t), l):
            for picks in itertools.product((0, 1), repeat=l):
                if all(picks) or not any(picks):
                    continue  # need a mix of both item types
                prod = 1
                for pos_idx, pick in zip(subset, picks):
                    prod *= mincs[pos_idx] if pick else pmins[pos_idx]
                e_l += prod
        acc += (-1) ** l * e_l * qq ** (t - l)
    zmins = [z.zmin for z in cls.zero]
    phi = acc
    for z in zmins:
        phi *= qq - z
    for k in range(1, s + 1):
        e_k = sum(
            _prod(zmins[i] for i in subset)
            for subset in itertools.combinations(range(s), k)
        )
        phi += (-1) ** (k + 1) * qq ** (t + s - k) * e_k
    return phi


def _prod(it):
    out = 1
    for x in it:
        out *= x
    return out


def mmax_three_branch(a: int, b: int, qq: int):
    """(top_value, excess) of a scan-bound table in the three-branch form:
    with q - 1 = a*m_div + rem, the top value is m_div - shift for a shift
    of 0 (b < a, rem >= b), 1 (b < a, rem < b) or ceil((b - rem)/a)
    (b >= a), and the excess follows from the same case."""
    m_div, rem = divmod(qq - 1, a)
    if b < a and rem >= b:
        return m_div, rem - b
    if b < a:
        return m_div - 1, rem - b + a
    d = b - rem  # positive: rem < a <= b
    y = a * ceil_div(d, a)  # least multiple of a that is >= d
    return m_div - y // a, y - d


def bracket_index(prm: MmaxParams, k: int, qq: int) -> int:
    """Bracket number of distance k: 0 for k <= 1+E, then one per width a."""
    excess = brackets(prm, qq)[0]
    if k <= 1 + excess:
        return 0
    return ceil_div(k - 1 - excess, prm.a)


def mmax_closed(A, cls: Classification, params, q) -> int:
    """Largest valid scan step count for A, as the minimum of per-variable
    bracket-table values.  Requires the lead term to divide A."""
    qq = q.q
    if any(a < e for a, e in zip(A, cls.lead_exps)):
        raise ContractError("the lead term does not divide the monomial")
    if any(a >= qq for a in A):
        raise ContractError("monomial is not standard")
    best = None
    for prm in params:
        k = qq - A[prm.var - 1]
        val = prm.top_value - bracket_index(prm, k, qq)
        if best is None or val < best:
            best = val
    return best


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


class PiecewisePolyReference:
    """The pieces of `closedform.PiecewisePoly` (length, starts, diffs,
    total) built as they were: the cut set from a generator and each
    piece's forward differences by repeated list comprehensions."""

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


def closed_form_at_reference(cls: Classification, qq: int):
    """(value, by_bound) of `closedform.closed_form_at`, composed per point
    through `_phi_at(cls, q)` and `drop`, with the cuts from `scan_cuts`."""
    if is_monomial_shape(cls.lead_exps, cls.trail_exps, qq):
        return trail_complement_count(qq, cls.trail_exps), None
    factors = [(qq - N.b, N.a) for N in cls.neg]  # factor c - a*M at M
    V = min((c - 1) // a for c, a in factors)
    if V < 1:
        raise FormulaDomainError("top scan bound below 1")

    def drop(M):
        now = after = 1
        for c, a in factors:
            c -= a * M
            now *= c
            after *= c - a if c > a else 0
        return now - after

    by_bound = PiecewisePolyReference(
        lambda x: _phi_at(cls, qq)(x + 1) * drop(x + 1),
        V, [x for _, x in scan_cuts(cls, qq)], cls.t + cls.r - 1,
    )
    past_lead = prod(qq - N.nmax for N in cls.neg)
    past_trail = prod(qq - N.nmin for N in cls.neg)
    rest_trail = [z.zmin for z in cls.zero] + [P.pmax for P in cls.pos]
    lead_fails = qq ** (cls.s + cls.t) * (qq**cls.r - past_lead)
    lead_fails -= prod(max(0, qq - e) for e in rest_trail) * (past_trail - past_lead)
    return by_bound.total + lead_fails, by_bound
