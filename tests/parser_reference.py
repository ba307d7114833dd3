"""A plainer form of the polynomial parser, for the tests only.

`parse_binomial_reference` matches each factor against two patterns,
strips whitespace with the regex `\\s+` and builds the Binomial through
`normalize`, which reduces and orders the two terms.  The library's
`parse_binomial` takes the same grammar in one match per factor and builds
each Term and the Binomial once; the tests check that both give the same
Binomial, or the same error class and message, on seeded texts.
"""

import re

from hkbinomial.algebra import Term, _literal, normalize, require_prime
from hkbinomial.errors import DegenerateBinomialError, ParseError

_FACTOR_RE = re.compile(r"x(\d+)(?:\^(\d+))?$")
_INT_RE = re.compile(r"\d+$")
_TERM_SPLIT_RE = re.compile(r"([+-])")


def _parse_term_reference(chunk: str, sign: int):
    """Parse one signed term into (coeff, {var_index: exp})."""
    parts = chunk.split("*")
    coeff = sign
    exps = {}
    for k, part in enumerate(parts):
        if not part:
            raise ParseError(f"empty factor in term {chunk!r}")
        if _INT_RE.match(part):
            if k != 0:
                raise ParseError(f"integer factor must come first in {chunk!r}")
            coeff *= _literal(part)
            continue
        mt = _FACTOR_RE.match(part)
        if not mt:
            raise ParseError(f"bad factor {part!r} in term {chunk!r}")
        idx = _literal(mt.group(1))
        if idx < 1:
            raise ParseError(f"variables are 1-indexed, got x{idx}")
        exp = _literal(mt.group(2)) if mt.group(2) else 1
        exps[idx] = exps.get(idx, 0) + exp
    return coeff, exps


def parse_binomial_reference(text: str, p: int, num_vars: int | None = None):
    """Parse ASCII polynomial text into a normalized Binomial."""
    require_prime(p)
    s = re.sub(r"\s+", "", text)
    if not s:
        raise ParseError("empty polynomial")
    if s[0] not in "+-":
        s = "+" + s
    pieces = _TERM_SPLIT_RE.split(s)[1:]  # sign, chunk, sign, chunk, ...
    if len(pieces) % 2 != 0:
        raise ParseError(f"dangling sign in {text!r}")
    raw = []
    max_var = 0
    for sgn, chunk in zip(pieces[::2], pieces[1::2]):
        coeff, exps = _parse_term_reference(chunk, 1 if sgn == "+" else -1)
        raw.append((coeff, exps))
        if exps:
            max_var = max(max_var, max(exps))
    m = num_vars if num_vars is not None else max_var
    if m < 1:
        raise ParseError("no variables found")
    if max_var > m:
        raise ParseError(f"variable x{max_var} exceeds declared count {m}")
    combined = {}
    for coeff, exps in raw:
        vec = tuple(exps.get(i, 0) for i in range(1, m + 1))
        combined[vec] = (combined.get(vec, 0) + coeff) % p
    monomials = [(vec, c) for vec, c in combined.items() if c != 0]
    if len(monomials) != 2:
        raise DegenerateBinomialError(
            f"expected exactly 2 distinct monomials after combining, got {len(monomials)}"
        )
    (va, ca), (vb, cb) = monomials
    return normalize(p, Term(ca, va), Term(cb, vb))
