"""Multiplicities: exact two-variable closed forms and a general estimator.

For hypersurfaces the leading behaviour of the length is c * q^d with
d = m - 1.  In two variables c is an integer with a short case split, and
the whole length function has an exact O(1) evaluation obtained by
integrating the block counts over the bracket table in three regimes
(the middle regime never holds more than one scan bound).

The general estimator reports exact rationals only and never claims a
closed-form value for m >= 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import Binomial, check_field
from .classify import classify
from .closedform import ceil_div, is_monomial_shape, trail_complement_count
from .errors import DomainError
from . import engines as _engines
from .engines import decimal_str


def _two_variable_case(f: Binomial):
    """The classification of f for m = 2 and its case label: "II/III"
    when no variable grows (membership is trail divisibility alone), else
    "I(ii)" or "I(iii)" as the shrink rate a exceeds or equals the growth
    rate dp.  The lead term has the higher degree, so dp - a = deg(trail)
    - deg(lead) <= 0 and the case a < dp never occurs."""
    if f.m != 2:
        raise DomainError(f"two-variable closed form called with m = {f.m}")
    cls = classify(f)
    if cls.t == 0:
        return cls, "II/III"
    # t = 1 forces r = 1, s = 0 for a normalized binomial
    return cls, "I(ii)" if cls.neg[0].a > cls.pos[0].dp else "I(iii)"


def hk_1dim(f: Binomial, p: int, n: int):
    """Exact two-variable length with its case label (see `_two_variable_case`).

    Returns (value, label).  Exact for every n; the classical displays are
    recovered once p^n clears the exponents.
    """
    qq = check_field(f, p, n).q
    cls, label = _two_variable_case(f)
    if is_monomial_shape(cls, qq):
        return trail_complement_count(qq, f.trail.exps), label
    neg, pos = cls.neg[0], cls.pos[0]
    a, dp = neg.a, pos.dp
    V, E = divmod(qq - 1 - neg.b, a)
    K = qq - neg.nmax

    def widths_upto(x):  # total bracket width for offsets 0..x
        if x < 0:
            return 0
        return min(1 + E + a * x, K)

    cmin = ceil_div(qq - pos.pmin, dp)  # scan bound at or above: block count = pmin
    c_top = (qq - pos.pmax) // dp  # scan bound at or below: block count = pmax
    total = 0
    hi = min(cmin - 1, V)
    lo_mid = max(1, c_top + 1)
    if V >= cmin:
        total += pos.pmin * widths_upto(V - cmin)
    if c_top >= 1:
        bound = min(c_top, V)
        total += pos.pmax * (K - widths_upto(V - bound - 1))
    for M in range(lo_mid, hi + 1):  # at most one scan bound lands here
        w = widths_upto(V - M) - widths_upto(V - M - 1)
        total += w * (qq - M * dp)
    total += (neg.nmax - neg.nmin) * min(pos.pmax, qq) + neg.nmin * qq
    return total, label


def hk_multiplicity_1dim(f: Binomial):
    """The integer multiplicity in two variables, with its case label."""
    cls, label = _two_variable_case(f)
    if cls.t == 0:
        return f.trail.exps[0] + f.trail.exps[1], label
    return cls.pos[0].pmax + cls.neg[0].nmin, label


@dataclass
class MultiplicityReport:
    d: int
    p: int
    samples: list  # (n, length, Fraction(length, q^d))
    exact: tuple | None  # (integer, case label) when m = 2
    converged: bool
    gap: Fraction | None  # last consecutive-estimate gap
    limit: Fraction | None  # difference-quotient value, d = 1 only

    def json_dict(self) -> dict:
        """Integers as decimal strings; ResourceError when one is too long."""

        def frac(x):
            if x is None:
                return None
            return {"num": decimal_str(x.numerator), "den": decimal_str(x.denominator)}

        return {
            "d": self.d,
            "p": self.p,
            "samples": [
                {"n": n, "hk": decimal_str(v), "estimate": frac(e)}
                for n, v, e in self.samples
            ],
            "exact": None
            if self.exact is None
            else {"value": str(self.exact[0]), "case": self.exact[1]},
            "converged": self.converged,
            "gap": frac(self.gap),
            "limit": frac(self.limit),
        }


def estimate_multiplicity(f: Binomial, p: int, n_range) -> MultiplicityReport:
    """Exact-rational multiplicity estimates over a range of exponents.

    Ratios length / q^d are exact fractions.  Convergence is flagged when
    the last consecutive gap is at most C / q with C calibrated from the
    first gap.  In two variables the report also carries the difference
    quotient of the last two samples, which is exact once the length has
    entered its eventually-affine regime, plus the closed-form integer.
    Each sample is auto `hk`, which never enumerates.
    """
    d = f.m - 1
    samples = []
    for n in sorted(set(n_range)):
        rep = _engines.hk(f, p, n)
        samples.append((n, rep.value, Fraction(rep.value, p ** (n * d))))
    exact = None
    if f.m == 2:
        exact = hk_multiplicity_1dim(f)
    gap = None
    converged = False
    if len(samples) >= 2:
        gaps = [
            abs(samples[i + 1][2] - samples[i][2]) for i in range(len(samples) - 1)
        ]
        gap = gaps[-1]
        calib = gaps[0] * p ** samples[1][0]  # C from the first difference
        converged = gap <= calib * Fraction(1, p ** samples[-1][0])
    limit = None
    if d == 1 and len(samples) >= 2:
        (na, va, _), (nb, vb, _) = samples[-2], samples[-1]
        limit = Fraction(vb - va, p**nb - p**na)
    return MultiplicityReport(
        d=d,
        p=p,
        samples=samples,
        exact=exact,
        converged=converged,
        gap=gap,
        limit=limit,
    )
