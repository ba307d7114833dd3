"""Reference forms of the closed form's parts, for the tests only.

`classify_reference` is the classification built by sign block, with
the `(delta, index)` sort key and the 1-based N_i, Z_i, P_q positions
written out, which the library's one-pass `classify` must match.
`phi_tables` runs the paper's chain recurrence for the block count, over
P_t, ..., P_1 and then the zero variables, keeping every intermediate
value: the library's product formula `_phi_at` is checked against it.
`g_complement` is a product form of the g-chain values, and `scan_cuts`
lists the cuts of the count by scan bound with the rate each moves at,
for the lemma under the quasi-polynomial's fit.
"""

from dataclasses import dataclass

from hkbinomial.classify import Classification, NegVar, PosVar, ZeroVar
from hkbinomial.closedform import ceil_div
from hkbinomial.errors import DomainError, NotApplicableError


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
        neg.append(NegVar(var=orig + 1, a=-delta_orig[orig], nmin=lo, nmax=hi))
    zero = []
    for i in range(1, s + 1):
        orig = order[r + s - i]
        zero.append(ZeroVar(var=orig + 1, zmin=e1[orig]))
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


def scan_cuts(cls: Classification, qq: int) -> list:
    """(rate, x = M - 1) per cut of the count by scan bound: V_i - 1 per
    shrinking variable, and per growing one where each of its two clamped
    factors in the block count reaches 0.
    x is q/rate plus an offset, constant on a class of q mod rate and at
    most (E + 1)/rate + 2 in size, E the largest exponent."""
    cuts = [(N.a, (qq - 1 - N.nmin) // N.a - 1) for N in cls.neg]
    for P in cls.pos:
        cuts += [(P.dp, ceil_div(qq - P.pmin, P.dp) - 1), (P.dp, (qq - P.pmax) // P.dp)]
    return cuts

