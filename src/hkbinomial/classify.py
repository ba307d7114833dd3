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
    trail_exps: tuple  # original-frame exponents of the trail term


def classify(f: Binomial) -> Classification:
    """Compute the sorted difference classification of a binomial.

    The sort is stable, so ties keep the original index order and the
    resulting permutation is deterministic.  Degenerate shapes (t = 0,
    s = 0) are representable; closed-form callers guard on them.  The
    classification reads only the exponents, so it is cached on the pair
    (lead exponents, trail exponents): binomials that differ only in p or
    in their coefficients share one entry.
    """
    return _classify(f.lead.exps, f.trail.exps)


@lru_cache(maxsize=4096)
def _classify(e2: tuple, e1: tuple) -> Classification:
    delta = [e1[i] - e2[i] for i in range(len(e2))]
    order = sorted(range(len(e2)), key=delta.__getitem__)
    neg, zero, pos = [], [], []
    for i in order:  # ascending delta; N_i and Z_i count down from the zero block
        d = delta[i]
        if d < 0:
            neg.append(NegVar(i + 1, -d, e1[i], e1[i], e2[i]))
        elif d:
            pos.append(PosVar(i + 1, d, e2[i], e1[i]))
        else:
            zero.append(ZeroVar(i + 1, e1[i], e1[i]))
    neg.reverse()
    zero.reverse()
    return Classification(len(e2), len(neg), len(zero), len(pos), tuple(order),
                          tuple(sorted(delta)), tuple(neg), tuple(zero), tuple(pos), e2, e1)


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
