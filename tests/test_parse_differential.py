"""`parse_binomial` against the plainer reference parser in
`tests/parser_reference.py`, on seeded texts: the same Binomial, or the
same error class, message and ResourceError keys.

The texts are rendered binomials, random sums of terms (coefficients,
repeated variables, like terms that cancel mod p), the same with a
malformation spliced in, and each with random whitespace.  Each is parsed
with and without a declared variable count.
"""

import random
import re

from hkbinomial import HKError, ResourceError, parse_binomial, render
from tests.conftest import random_binomials
from tests.parser_reference import parse_binomial_reference

SPACES = (" ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\xa0", "\u2028", "\u3000")
LONG = "7" * 4301  # one digit past the interpreter's default int-to-str limit
MALFORMED = (
    "x1**x2",  # an empty factor
    "*x1", "x1*",
    "+", "-", "x1 +", "x1 - x2 -", "- + x1", "x1 +- x2",  # dangling signs
    "y1", "x", "x^2", "x1^", "x1^^2", "x1^-2", "2x1", "x1.5",
    "x0", "x00^3",
    "x1*3", "x2^2*4*x1",  # an integer factor that is not first
    "3", "0", "12*1",  # constant terms
    "x\u0661^\u0663",  # Arabic-Indic digits, which int() and \d both take
    "x" + LONG, "x1^" + LONG, LONG + "*x1",
)


def outcome(parse, text, p, num_vars):
    try:
        return parse(text, p, num_vars)
    except ResourceError as exc:
        return ResourceError, str(exc), exc.required, exc.budget
    except HKError as exc:
        return type(exc), str(exc)


def random_term(rng, m):
    factors = [f"x{rng.randint(1, m)}" + (f"^{rng.randint(0, 5)}" if rng.random() < 0.7 else "")
               for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.4:
        factors.insert(0, str(rng.choice((0, 1, 2, 3, 4, 5, 6, 10, 25, 10**20))))
    return "*".join(factors)


def random_sum(rng, m, p):
    terms = [random_term(rng, m) for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.3:  # a like term whose coefficient cancels it mod p
        terms += [terms[0], f"{p - 1}*{terms[0]}"]
    out = rng.choice(("", "-", "+")) + terms[0]
    for term in terms[1:]:
        out += rng.choice("+-") + term
    return out


def spliced(rng, text):
    cut = rng.randint(0, len(text))
    return text[:cut] + rng.choice(MALFORMED) + text[cut:]


def spaced(rng, text):
    out = []
    for ch in text:
        if rng.random() < 0.15:
            out.append("".join(rng.choice(SPACES) for _ in range(rng.randint(1, 3))))
        out.append(ch)
    return "".join(out) + rng.choice(("", " ", "\n", "\u3000"))


def seeded_cases(seed=2111):
    rng = random.Random(seed)
    cases = [(render(f), f.p) for f, _, _ in random_binomials(seed, 300, ms=(1, 2, 3, 4))]
    for _ in range(1700):
        m, p = rng.randint(1, 4), rng.choice((2, 3, 5, 7))
        text = random_sum(rng, m, p)
        cases.append((spliced(rng, text) if rng.random() < 0.35 else text, p))
    cases += [(bad, 5) for bad in MALFORMED]
    cases += [("", 5), ("  \t\u3000", 5), ("x1^3 - x2^2", 4), ("x1^3 - x2^2", 0)]
    return [(spaced(rng, text) if rng.random() < 0.5 else text, p) for text, p in cases]


def test_parser_equals_the_reference_on_seeded_texts():
    rng = random.Random(2112)
    cases = seeded_cases()
    kinds = set()
    for text, p in cases:
        for num_vars in (None, rng.randint(0, 5)):
            got = outcome(parse_binomial, text, p, num_vars)
            assert got == outcome(parse_binomial_reference, text, p, num_vars), (text, p, num_vars)
            if type(got) is not tuple:
                assert hash(got) == hash(parse_binomial_reference(text, p, num_vars))
            kinds.add(got[0] if type(got) is tuple else "binomial")
    assert len(cases) >= 2000
    assert {"binomial", ResourceError} <= kinds and len(kinds) >= 6, kinds


def test_isspace_and_regex_whitespace_agree_on_every_code_point():
    # parse_binomial strips str.isspace characters, the reference strips \s
    every = "".join(map(chr, range(0x110000)))
    assert re.findall(r"\s", every) == list(filter(str.isspace, every))
