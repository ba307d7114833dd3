"""Closed-form scan bounds per shrinking variable.

For a shrinking variable with drop a and minimum power b, and q = p^n,
the largest step count at which the variable's exponent stays
nonnegative depends on its distance k from the top exponent q-1 through
a bracket table.  With top_value, E = divmod(q - 1 - b, a), the first
bracket (k = 1, ..., 1+E) has the value top_value, and each further
bracket of width a lowers the value by one, so distance k has the value
floor((q - k - b)/a).  The table is exact for all k in [1, q - nmax];
the final bracket may be short (width a_prime, possibly zero).
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import PrimePower
from .classify import Classification
from .errors import NotApplicableError


def ceil_div(x: int, d: int) -> int:
    return -((-x) // d)


@dataclass(frozen=True)
class MmaxParams:
    """Arithmetic constants for one shrinking variable at fixed p, n."""

    var: int  # original 1-based variable index
    a: int
    b: int
    nmax: int
    top_value: int  # scan bound at distance k = 1 (first bracket)
    excess: int  # E: width of the first bracket minus one, 0 <= E < a
    ktilde_last: int  # index of the last bracket (>= 1 by convention)
    a_prime: int  # width of the last bracket, 0 <= a_prime <= a


def mmax_params(cls: Classification, p: int, n: int) -> tuple:
    """Per-variable constants, one MmaxParams per shrinking variable (N_1 first).

    Not applicable when there is no shrinking variable or when q <= nmax for
    some shrinking variable (then no standard monomial is divisible by the
    lead term and the whole closed-form route is vacuous).
    """
    if cls.r == 0:
        raise NotApplicableError("no shrinking variable")
    qq = PrimePower(p, n).q
    out = []
    for rec in cls.neg:
        a, b = rec.a, rec.b
        K = qq - rec.nmax
        if K < 1:
            raise NotApplicableError(
                f"q = {qq} does not exceed the max power {rec.nmax} of x{rec.var}"
            )
        top_value, excess = divmod(qq - 1 - b, a)
        kt = max(1, ceil_div(K - 1 - excess, a))
        a_prime = K - (1 + excess + a * (kt - 1))
        out.append(
            MmaxParams(
                var=rec.var,
                a=a,
                b=b,
                nmax=rec.nmax,
                top_value=top_value,
                excess=excess,
                ktilde_last=kt,
                a_prime=a_prime,
            )
        )
    return tuple(out)


def params_summary(params) -> list:
    return [
        {
            "var": f"x{prm.var}",
            "a": prm.a,
            "b": prm.b,
            "top_value": prm.top_value,
            "excess": prm.excess,
            "ktilde_last": prm.ktilde_last,
            "a_prime": prm.a_prime,
        }
        for prm in params
    ]
