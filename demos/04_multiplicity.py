"""Multiplicities: the exact Hilbert-Kunz quasi-polynomial.

Past a bound n0, HK(p^n) is a polynomial in q = p^n on each class of n
modulo a period pi, which the closed form's cuts determine.  Its q^(m-1)
coefficient, the same on every class, is the multiplicity e_HK: an
integer in two variables, a rational in more.
"""

from hkbinomial import hk, hk_quasi_polynomial, parse_binomial, render


def poly_text(coeffs):
    terms = [f"({a})*q^{k}" for k, a in enumerate(coeffs) if a]
    return " + ".join(reversed(terms)) or "0"


for poly, p in [
    ("x1^3 - x2^2", 5),
    ("x2^5 - x1*x2^2", 5),
    ("x1^2*x2 - x2*x3", 3),
    ("x1^9*x2^2*x3 - x2^5*x3^9*x4^2", 2),
]:
    f = parse_binomial(poly, p)
    qp = hk_quasi_polynomial(f, p)
    print(f"{render(f)} over F_{p}: e_HK = {qp.e_hk}, n0 = {qp.n0}, period {qp.period}")
    for c, coeffs in enumerate(qp.classes):
        print(f"  n = {c} (mod {qp.period}): HK = {poly_text(coeffs)}")
    n = qp.n0 + (f.m + 1) * qp.period  # past the n the polynomials were fitted at
    q = p**n
    value = sum(a * q**k for k, a in enumerate(qp.classes[n % qp.period]))
    assert value == hk(f, p, n).value
    print(f"  at n = {n} the class polynomial gives hk's value, {len(str(value))} digits")
