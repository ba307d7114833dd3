"""Multiplicities: the exact Hilbert-Kunz quasi-polynomial of a binomial.

Past n0, HK(p^n) is a polynomial in q = p^n on each class of n modulo a
period pi; its q^(m-1) coefficient, the same on every class, is the
multiplicity e_HK, rational, and an integer when m = 2.  Each class is
interpolated from `closed_form_at`, HK on every shape at any integer Q,
not at q = p^n; `hk_1dim` is the m = 2 length by the classical case split.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .algebra import Binomial, check_field, decimal_str
from .classify import classify
from .closedform import ceil_div, closed_form_at, is_monomial_shape, trail_complement_count
from .errors import ContractError, DomainError, ResourceError

WORK_BUDGET = 3 * 10**13  # hk_quasi_polynomial's most work: its period times a class's `unit`


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
    if is_monomial_shape(f.lead.exps, f.trail.exps, qq):
        return trail_complement_count(qq, f.trail.exps), label
    neg, pos = cls.neg[0], cls.pos[0]
    a, dp = neg.a, pos.dp
    V, E = divmod(qq - 1 - neg.nmin, a)
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


@dataclass(frozen=True)
class QuasiPolynomial:
    """HK(p^n) = sum_k classes[n % period][k] * q^k for every n >= n0."""

    m: int
    p: int
    n0: int
    period: int
    classes: tuple  # per residue of n: Fractions, the coefficients of q^0 .. q^(m-1)
    e_hk: Fraction  # the q^(m-1) coefficient, the same on every class

    def json_dict(self) -> dict:
        """Fractions as strings ("7/2"); ResourceError when one is too long."""
        classes = [{"residue": c, "coefficients": [fraction_str(x) for x in coeffs]}
                   for c, coeffs in enumerate(self.classes)]
        return {"m": self.m, "p": self.p, "n0": self.n0, "period": self.period,
                "e_hk": fraction_str(self.e_hk), "classes": classes}


def fraction_str(x: Fraction) -> str:
    """str(x), as `decimal_str` writes each integer."""
    num = decimal_str(x.numerator)
    return num if x.denominator == 1 else f"{num}/{decimal_str(x.denominator)}"


def hk_quasi_polynomial(f: Binomial, p: int) -> QuasiPolynomial:
    """The exact quasi-polynomial of HK(p^n), and e_HK.

    Past n0, q exceeds every exponent and no two cuts of the count by scan
    bound (where `closed_form_at` starts its pieces, and 0) change order:
    cuts of rates r1 < r2 differ by q/r1 - q/r2 less their offsets.  On a
    class n = c (mod pi), q mod L, L the lcm of the rates, is fixed, each
    cut is affine in q, and HK, a sum of polynomials over pieces with affine
    ends, is one of degree <= m in q: the closed form at m + 1 integers Q
    past the bound in that residue class fixes it.  ResourceError, before
    any evaluation, when the work is over WORK_BUDGET; ContractError on a
    q^m term or classes with different e_HK.
    """
    check_field(f, p, 1)
    m, cls = f.m, classify(f)
    E = max(f.lead.exps + f.trail.exps)
    rates = sorted({N.a for N in cls.neg} | {P.dp for P in cls.pos}) if cls.t else []
    bound = E + 1 + 2 * rates[-1] if rates else E  # every cut above 0 past this q
    for i, r1 in enumerate(rates):
        for r2 in rates[i + 1 :]:
            bound = max(bound, ((E + 1) * (r1 + r2) + 4 * r1 * r2) // (r2 - r1))
    n0, qn = 1, p  # then the least n >= 1 with p^n > bound
    while qn <= bound:
        n0, qn = n0 + 1, qn * p
    L = lcm(*rates)  # its p-part divides p^n0, as it is at most the largest rate
    # a class's work: m + 1 evaluations, each priced by m and the bits of the largest Q^m
    unit = (m + 1) * (m + 40) * (4000 + m * (bound + L * (m + 2)).bit_length()) ** 2
    period = 1  # the order of p mod the part of L prime to p, or the least period over budget
    while pow(p, n0 + period, L) != pow(p, n0, L) and period * unit <= WORK_BUDGET:
        period += 1
    if period * unit > WORK_BUDGET:
        raise ResourceError(f"the quasi-polynomial needs at least {period * unit} units of "
                            f"work, over the budget of {WORK_BUDGET}", period * unit, WORK_BUDGET)
    classes = []
    for c in range(period):
        Qs = [pow(p, n0 + (c - n0) % period, L) + (bound // L + 1 + k) * L for k in range(m + 1)]
        coeffs = _interpolate(Qs, [closed_form_at(cls, Q)[0] for Q in Qs])
        if coeffs[m]:
            raise ContractError(f"HK has a q^{m} term on the class {c} mod {period}")
        classes.append(tuple(coeffs[:m]))
    if len({coeffs[-1] for coeffs in classes}) > 1:
        raise ContractError("the classes' q^(m-1) coefficients differ")
    return QuasiPolynomial(m, p, n0, period, tuple(classes), classes[0][-1])


def _interpolate(xs, ys) -> list:
    """Coefficients, lowest degree first, of the polynomial through the
    points: Newton's divided differences, expanded by Horner's rule."""
    d = [Fraction(y) for y in ys]
    for j in range(1, len(xs)):
        d[j:] = [(b - a) / (xs[i + j] - xs[i]) for i, (a, b) in enumerate(zip(d[j - 1 :], d[j:]))]
    coeffs = [0] * len(xs)  # the top coefficient of each product by x - xs[i] is 0
    for x, di in zip(xs[::-1], d[::-1]):
        coeffs = [di - x * coeffs[0]] + [a - x * b for a, b in zip(coeffs, coeffs[1:])]
    return coeffs
