"""Terms, binomials, and the degree-lexicographic term order.

Exponent vectors are plain tuples of nonnegative ints, one entry per
variable.  Coefficients are elements of the prime field F_p stored as
least nonnegative residues.  Everything here is immutable and pure, so
all operations are safe under unrestricted concurrent use.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import (
    ConstantTermError,
    DegenerateBinomialError,
    DimensionError,
    DomainError,
    ParseError,
    ResourceError,
    ZeroCoefficientError,
)

# deglex_compare return values
LESS, EQUAL, GREATER = -1, 0, 1


MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BELOW = 3317044064679887385961981  # least strong pseudoprime to all of MR_BASES


@lru_cache(maxsize=256)  # every entry point checks p again
def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin over the primes 2..41, exact for every
    p < MR_EXACT_BELOW in O(log p) multiplications mod p.  A larger p is a
    ResourceError, not a probable answer."""
    if p >= MR_EXACT_BELOW:
        msg = f"Miller-Rabin over the bases 2..41 is exact only below {MR_EXACT_BELOW}"
        raise ResourceError(f"p of {p.bit_length()} bits: {msg}", required=p, budget=MR_EXACT_BELOW)
    if p < 2 or any(p % b == 0 for b in MR_BASES):
        return p in MR_BASES
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2^s with d odd
    d = (p - 1) >> s
    for b in MR_BASES:
        x = pow(b, d, p)
        if x == 1:
            continue
        for _ in range(s):  # x^(2^k) for k < s: one of them is p - 1 when p is prime
            if x == p - 1:
                break
            x = x * x % p
        else:
            return False
    return True


def require_prime(p: int):
    """DomainError unless p is a prime int (a bool or a float is refused before
    `is_prime`, whose cache takes 5.0 for 5): checked before anything reduces mod p."""
    if type(p) is not int:
        raise DomainError(f"p must be an integer, got {p!r}")
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")


def deglex_compare(u, v) -> int:
    """Compare exponent vectors by total degree, ties broken lexicographically
    with the last variable most significant.  Returns -1, 0 or 1.
    """
    if len(u) != len(v):
        raise DimensionError(
            f"cannot compare exponent vectors of lengths {len(u)} and {len(v)}"
        )
    du, dv = sum(u), sum(v)
    if du != dv:
        return GREATER if du > dv else LESS
    for a, b in zip(reversed(u), reversed(v)):
        if a != b:
            return GREATER if a > b else LESS
    return EQUAL


@dataclass(frozen=True)
class Term:
    """A scalar coefficient times a monomial."""

    coeff: int
    exps: tuple

    def __post_init__(self):
        for e in self.exps:
            if e < 0:
                raise DomainError(f"negative exponent in {self.exps}")

    @property
    def degree(self) -> int:
        return sum(self.exps)


@dataclass(frozen=True)
class PrimePower:
    """q = p^n, computed exactly."""

    p: int
    n: int
    q: int = field(init=False)

    def __post_init__(self):
        require_prime(self.p)
        if type(self.n) is not int:
            raise DomainError(f"exponent n must be an integer, got {self.n!r}")
        if self.n < 1:
            raise DomainError(f"exponent n must be positive, got {self.n}")
        object.__setattr__(self, "q", self.p**self.n)


@dataclass(frozen=True)
class Binomial:
    """A two-term polynomial over F_p, with `lead` deglex-greater than `trail`.

    Invariants enforced at construction: distinct exponent vectors, nonzero
    coefficients mod p, no constant term, lead strictly greater in deglex.
    """

    p: int
    m: int
    lead: Term
    trail: Term

    def __post_init__(self):
        require_prime(self.p)
        if len(self.lead.exps) != self.m or len(self.trail.exps) != self.m:
            raise DimensionError("term length does not match variable count")
        for t in (self.lead, self.trail):
            if not 0 < t.coeff < self.p:
                raise ZeroCoefficientError(f"coefficient {t.coeff} not in F_{self.p}*")
            if t.degree == 0:
                raise ConstantTermError("terms must have total degree >= 1")
        if self.lead.exps == self.trail.exps:
            raise DegenerateBinomialError("the two terms share an exponent vector")
        if deglex_compare(self.lead.exps, self.trail.exps) != GREATER:
            raise DomainError("lead term is not deglex-greater than trail term")


def normalize(p: int, term_a: Term, term_b: Term) -> Binomial:
    """Order two terms into a Binomial, reducing coefficients mod p; the
    Binomial checks the rest."""
    require_prime(p)
    a, b = (Term(t.coeff % p, tuple(t.exps)) for t in (term_a, term_b))
    if deglex_compare(a.exps, b.exps) == LESS:
        a, b = b, a
    return Binomial(p=p, m=len(a.exps), lead=a, trail=b)


def require_field(f: Binomial, p: int):
    """DomainError unless f is a binomial over F_p."""
    if p != f.p:
        raise DomainError(f"p = {p} does not match the binomial over F_{f.p}")


def check_field(f: Binomial, p: int, n: int) -> PrimePower:
    """q = p^n for f, which must be a binomial over F_p.  The PrimePower is
    built once per (p, n) and shared (it is frozen); a bad p or n raises on
    every call, since a raising call is not cached."""
    require_field(f, p)
    return _prime_power(p, n)


_prime_power = lru_cache(maxsize=256, typed=True)(PrimePower)  # typed: 2.0 is not 2


_FACTOR_RE = re.compile(r"(\d+)$|x(\d+)(?:\^(\d+))?$")  # an integer, or x<index>[^<power>]
_TERM_SPLIT_RE = re.compile(r"([+-])")


def _literal(text: str) -> int:
    """int(text) for a run of decimal digits, signed in a JSON corpus, or a
    ResourceError where int() would raise ValueError: more digits, the sign
    not counted, than the interpreter's `sys.get_int_max_str_digits`.  No limit
    but 0 is below `sys.int_info.str_digits_check_threshold`, so a shorter text
    needs no check."""
    if len(text) < sys.int_info.str_digits_check_threshold:
        return int(text)
    limit, digits = sys.get_int_max_str_digits(), len(text.lstrip("-"))
    if 0 < limit < digits:
        raise ResourceError(f"an integer literal of {digits} decimal digits is over the "
                            f"interpreter's limit of {limit}", digits, limit)
    return int(text)


def decimal_str(x: int) -> str:
    """str(x), or a ResourceError when x has more decimal digits than the
    interpreter converts (`sys.get_int_max_str_digits`)."""
    try:
        return str(x)
    except ValueError:  # int -> str raises it only for the digit limit
        x = abs(x)
        digits = int(math.log10(x)) + 1
        digits += (x >= 10**digits) - (x < 10 ** (digits - 1))
        limit = sys.get_int_max_str_digits()
        raise ResourceError(
            f"an integer of {digits} decimal digits is over the interpreter's limit of {limit}",
            required=digits,
            budget=limit,
        ) from None


MAX_VARS = 14285  # the most m at which 2^(m-1), Kunz's bound on HK at q = 2, has <= 4300 digits


def _refuse_many_vars(m: int):
    """ResourceError past MAX_VARS variables, before any vector of m entries is
    built.  At the interpreter's default digit limit, `engines.refuse_unwritable`
    refuses every hk, table and check input past it at every p and n."""
    if m > MAX_VARS:
        raise ResourceError(f"{decimal_str(m)} variables, over the limit of {MAX_VARS}",
                            m, MAX_VARS)


def _parse_term(chunk: str, sign: int):
    """Parse one signed term into (coeff, {var_index: exp}), matching each
    factor once."""
    coeff = sign
    exps = {}
    for k, part in enumerate(chunk.split("*")):
        mt = _FACTOR_RE.match(part)
        if mt is None:
            if not part:
                raise ParseError(f"empty factor in term {chunk!r}")
            raise ParseError(f"bad factor {part!r} in term {chunk!r}")
        integer, var, exp = mt.groups()
        if integer is not None:
            if k != 0:
                raise ParseError(f"integer factor must come first in {chunk!r}")
            coeff *= _literal(integer)
            continue
        idx = _literal(var)
        if idx < 1:
            raise ParseError(f"variables are 1-indexed, got x{idx}")
        e = _literal(exp) if exp else 1
        if idx in exps:  # like factors: their sum is refused as a literal that long is
            e += exps[idx]
            decimal_str(e)
        exps[idx] = e
    return coeff, exps


def parse_binomial(text: str, p: int, num_vars: int | None = None) -> Binomial:
    """Parse ASCII polynomial text into a normalized Binomial.

    Grammar: term := [int "*"] factor ("*" factor)*; factor := var ["^" int];
    var := "x" int (1-indexed); poly := term (("+"|"-") term)*.  Whitespace
    (`str.isspace`) is ignored.  Like terms are combined mod p; exactly two
    distinct monomials with nonzero coefficients must remain.  Their
    coefficients are reduced by then, so each Term is built once, the two
    are ordered by `deglex_compare`, and the Binomial, built here rather
    than through `normalize`, checks the rest.
    """
    require_prime(p)
    if num_vars is not None and type(num_vars) is not int:
        raise DomainError(f"num_vars must be an integer, got {num_vars!r}")
    s = "".join(text.split())
    if not s:
        raise ParseError("empty polynomial")
    if s[0] not in "+-":
        s = "+" + s
    pieces = _TERM_SPLIT_RE.split(s)  # "", sign, chunk, sign, chunk, ...
    raw = []
    max_var = 0
    for k in range(1, len(pieces), 2):
        coeff, exps = _parse_term(pieces[k + 1], 1 if pieces[k] == "+" else -1)
        raw.append((coeff, exps))
        if exps:
            max_var = max(max_var, max(exps))
    m = num_vars if num_vars is not None else max_var
    if m < 1:
        raise ParseError("no variables found")
    _refuse_many_vars(m)
    if max_var > m:
        raise ParseError(f"variable x{max_var} exceeds declared count {m}")
    combined = {}
    for coeff, exps in raw:
        vec = [0] * m
        for i, e in exps.items():
            vec[i - 1] = e
        vec = tuple(vec)
        combined[vec] = (combined.get(vec, 0) + coeff) % p
    monomials = [Term(c, vec) for vec, c in combined.items() if c != 0]
    if len(monomials) != 2:
        raise DegenerateBinomialError(
            f"expected exactly 2 distinct monomials after combining, got {len(monomials)}"
        )
    lead, trail = monomials
    if deglex_compare(lead.exps, trail.exps) == LESS:
        lead, trail = trail, lead
    return Binomial(p, m, lead, trail)


def render_term(t: Term) -> str:
    """A term of a Binomial, which has degree >= 1 (`ConstantTermError`)."""
    facs = []
    for i, e in enumerate(t.exps):
        if e == 1:
            facs.append(f"x{i + 1}")
        elif e:
            facs.append(f"x{i + 1}^{e}")
    if t.coeff != 1:
        facs.insert(0, str(t.coeff))
    return "*".join(facs)


def render(b: Binomial) -> str:
    """Canonical text form; parse_binomial(render(b), b.p, b.m) round-trips."""
    return f"{render_term(b.lead)} + {render_term(b.trail)}"


def parse_monomial(text: str, num_vars: int | None = None) -> tuple:
    """Parse a single monomial ("x1^4*x2") or a comma list ("4,1") of exponents."""
    if num_vars is not None and type(num_vars) is not int:
        raise DomainError(f"num_vars must be an integer, got {num_vars!r}")
    s = "".join(text.split())
    if not s:
        raise ParseError("empty monomial")
    if re.match(r"^\d+(,\d+)*$", s):
        vec = tuple(_literal(x) for x in s.split(","))
        if num_vars is not None and len(vec) != num_vars:
            raise DimensionError(
                f"expected {num_vars} exponents, got {len(vec)}"
            )
        return vec
    coeff, exps = _parse_term(s, 1)  # has a variable: a lone integer is the list form above
    if coeff != 1:
        raise ParseError("a monomial must not carry a coefficient")
    max_var = max(exps)
    m = num_vars if num_vars is not None else max_var
    _refuse_many_vars(m)
    if max_var > m:
        raise ParseError(f"variable x{max_var} exceeds declared count {m}")
    return tuple(exps.get(i, 0) for i in range(1, m + 1))
