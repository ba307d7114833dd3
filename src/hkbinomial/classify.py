"""Per-variable difference classification of a binomial.

For each variable the difference delta_i = (power in trail) - (power in
lead) is computed; variables are then stably sorted by ascending delta.
Variables with negative delta shrink under repeated trail/lead exchange,
zero-delta variables stay fixed, positive ones grow.  All downstream
closed forms consume this sorted view.

Index conventions (1-based, mirroring the sorted order x_1 <= ... <= x_m):
N_i is the variable at sorted position r+1-i, Z_i the one at position
r+s+1-i, P_q the one at position r+s+q.  So N_1 has the least negative
delta, N_r the most negative, and P_t the largest positive delta.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .algebra import Binomial


@dataclass(frozen=True)
class NegVar:
    """A shrinking variable: a = -delta > 0, b = its minimum power."""

    var: int  # original 1-based variable index
    a: int
    b: int
    nmin: int
    nmax: int


@dataclass(frozen=True)
class ZeroVar:
    var: int
    zmin: int
    zmax: int


@dataclass(frozen=True)
class PosVar:
    """A growing variable: dp = delta > 0."""

    var: int
    dp: int
    pmin: int
    pmax: int


@dataclass(frozen=True)
class Classification:
    m: int
    r: int
    s: int
    t: int
    perm: tuple  # sorted position (0-based) -> original 0-based variable index
    delta: tuple  # deltas in sorted (ascending) order
    neg: tuple  # NegVar records, N_1 first
    zero: tuple  # ZeroVar records, Z_1 first
    pos: tuple  # PosVar records, P_1 first
    lead_exps: tuple  # original-frame exponents of the lead term


@lru_cache(maxsize=4096)
def classify(f: Binomial) -> Classification:
    """Compute the sorted difference classification of a binomial.

    The sort is stable with the original index as tie-break, so the
    resulting permutation is deterministic.  Degenerate shapes (t = 0,
    s = 0) are representable; closed-form callers guard on them.
    """
    e2, e1 = f.lead.exps, f.trail.exps
    delta_orig = [e1[i] - e2[i] for i in range(f.m)]
    order = sorted(range(f.m), key=lambda i: (delta_orig[i], i))
    delta = tuple(delta_orig[i] for i in order)
    r = sum(1 for d in delta if d < 0)
    s = sum(1 for d in delta if d == 0)
    t = f.m - r - s

    neg = []
    for i in range(1, r + 1):  # N_i sits at sorted position r+1-i (1-based)
        orig = order[r - i]
        lo, hi = min(e1[orig], e2[orig]), max(e1[orig], e2[orig])
        neg.append(NegVar(var=orig + 1, a=-delta_orig[orig], b=lo, nmin=lo, nmax=hi))
    zero = []
    for i in range(1, s + 1):  # Z_i at sorted position r+s+1-i
        orig = order[r + s - i]
        zero.append(ZeroVar(var=orig + 1, zmin=e1[orig], zmax=e1[orig]))
    pos = []
    for q in range(1, t + 1):  # P_q at sorted position r+s+q
        orig = order[r + s + q - 1]
        lo, hi = min(e1[orig], e2[orig]), max(e1[orig], e2[orig])
        pos.append(PosVar(var=orig + 1, dp=delta_orig[orig], pmin=lo, pmax=hi))

    return Classification(
        m=f.m,
        r=r,
        s=s,
        t=t,
        perm=tuple(order),
        delta=delta,
        neg=tuple(neg),
        zero=tuple(zero),
        pos=tuple(pos),
        lead_exps=e2,
    )


def classification_summary(cls: Classification) -> dict:
    """JSON-ready view with original variable labels."""
    return {
        "m": cls.m,
        "r": cls.r,
        "s": cls.s,
        "t": cls.t,
        "perm": [i + 1 for i in cls.perm],
        "delta": list(cls.delta),
        "neg": [
            {"var": f"x{v.var}", "a": v.a, "b": v.b, "nmin": v.nmin, "nmax": v.nmax}
            for v in cls.neg
        ],
        "zero": [{"var": f"x{v.var}", "zmin": v.zmin, "zmax": v.zmax} for v in cls.zero],
        "pos": [
            {"var": f"x{v.var}", "dp": v.dp, "pmin": v.pmin, "pmax": v.pmax}
            for v in cls.pos
        ],
    }
