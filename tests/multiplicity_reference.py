"""References for `hk_quasi_polynomial`: the two-variable multiplicity by
its classical case split, and the quasi-polynomial by interpolating auto
`hk` at q = p^n, which the small-Q interpolation replaced."""

from math import lcm, log

from hkbinomial import QuasiPolynomial, hk
from hkbinomial.classify import classify
from hkbinomial.multiplicity import _interpolate, _two_variable_case
from tests.closedform_reference import scan_cuts


def hk_multiplicity_1dim(f):
    """The integer multiplicity in two variables, with its case label."""
    cls, label = _two_variable_case(f)
    if cls.t == 0:
        return f.trail.exps[0] + f.trail.exps[1], label
    return cls.pos[0].pmax + cls.neg[0].nmin, label


def hk_quasi_polynomial_at_prime_powers(f, p):
    """The quasi-polynomial from m + 1 auto `hk` values at q = p^n on each
    class: n0 and the period as `hk_quasi_polynomial` derives them, with
    the rates read from `scan_cuts`, and no work budget."""
    m, cls = f.m, classify(f)
    E = max(f.lead.exps + f.trail.exps)
    rates = sorted({rate for rate, _ in scan_cuts(cls, p)}) if cls.t else []
    bound = E + 1 + 2 * rates[-1] if rates else E
    for i, r1 in enumerate(rates):
        for r2 in rates[i + 1 :]:
            bound = max(bound, ((E + 1) * (r1 + r2) + 4 * r1 * r2) // (r2 - r1))
    n0 = max(1, int(log(bound, p)) - 1)
    while p**n0 <= bound:
        n0 += 1
    L = lcm(*rates)
    while L % p == 0:
        L //= p
    period = 1
    while pow(p, period, L) != 1 % L:
        period += 1
    classes = []
    for c in range(period):
        ns = [n0 + (c - n0) % period + k * period for k in range(m + 1)]
        coeffs = _interpolate([p**n for n in ns], [hk(f, p, n).value for n in ns])
        assert coeffs[m] == 0, (f, c)
        classes.append(tuple(coeffs[:m]))
    return QuasiPolynomial(m, p, n0, period, tuple(classes), classes[0][-1])
