import math
import random
from functools import cache

import pytest

from hkbinomial import HKError, PrimePower, Term, normalize

CORPUS_SEED = 20260811


def random_binomials(seed, count, ms=(2, 3), ps=(2, 3, 5), ns=(1, 2), max_exp=4, qm_cap=6561):
    """Deterministic corpus of (binomial, p, n) triples within the size cap."""
    rng = random.Random(seed)
    out = []
    seen = set()
    while len(out) < count:
        m = rng.choice(ms)
        p = rng.choice(ps)
        n = rng.choice(ns)
        if (p**n) ** m > qm_cap:
            continue
        e2 = tuple(rng.randint(0, max_exp) for _ in range(m))
        e1 = tuple(rng.randint(0, max_exp) for _ in range(m))
        c2 = rng.randint(1, p - 1)
        c1 = rng.randint(1, p - 1)
        try:
            f = normalize(p, Term(c2, e2), Term(c1, e1))
        except HKError:
            continue
        key = (f, p, n)
        if key in seen:
            continue
        seen.add(key)
        out.append((f, p, n))
    return out


def two_variable_binomials(seed, primes, max_exp, lead_coefficient):
    """50 seeded two-variable binomials, the lead coefficient 1 unless drawn."""
    rng = random.Random(seed)
    drawn = []
    while len(drawn) < 50:
        p = rng.choice(primes)
        e2, e1 = (tuple(rng.randint(0, max_exp) for _ in range(2)) for _ in range(2))
        c2 = rng.randint(1, p - 1) if lead_coefficient else 1
        try:
            drawn.append(normalize(p, Term(c2, e2), Term(rng.randint(1, p - 1), e1)))
        except HKError:
            continue
    return drawn


@cache
def direct_cases():
    """300 distinct (shape, f, q, permuted f, scaled f), m = 1..5, p <= 7
    and q^m <= 5000, drawn from a fixed seed.

    Exponents are 0..6.  Three shapes are drawn: one the closed form
    takes (a growing and a shrinking variable, every exponent < q), the
    trail dividing the lead (t = 0), and a lead exponent raised to q..q + 2.
    """
    rng = random.Random(20261020)
    out, seen = [], set()
    while len(out) < 300:
        shape = rng.choice(("closed", "t = 0", "lead >= q"))
        m = rng.randint(2 if shape == "closed" else 1, 5)
        p = rng.choice((2, 3, 5, 7))
        q = PrimePower(p, rng.randint(1, max(1, int(math.log(5000, p) / m))))
        if q.q**m > 5000:
            continue
        top = min(6, q.q - 1) if shape == "closed" else 6
        e2 = [rng.randint(0, top) for _ in range(m)]
        if shape == "t = 0":
            e1 = [rng.randint(0, e) for e in e2]
        else:
            e1 = [rng.randint(0, top) for _ in range(m)]
            j = rng.randrange(m)
            if shape == "closed":  # x_j grows and x_k shrinks
                k = (j + rng.randint(1, m - 1)) % m
                (e2[j], e1[j]), (e1[k], e2[k]) = (sorted(rng.sample(range(top + 1), 2))
                                                  for _ in range(2))
            else:
                e2[j] = q.q + rng.randint(0, 2)
        c2, c1, s2, s1 = (rng.randint(1, p - 1) for _ in range(4))
        try:
            f = normalize(p, Term(c2, tuple(e2)), Term(c1, tuple(e1)))
        except HKError:  # equal terms or a constant term: redraw
            continue
        if (f, q) in seen or shape == "lead >= q" and max(f.lead.exps) < q.q:
            continue
        seen.add((f, q))
        perm = rng.sample(range(m), m)
        terms = (f.lead, f.trail)
        permuted = normalize(p, *(Term(t.coeff, tuple(t.exps[i] for i in perm)) for t in terms))
        scaled = normalize(p, *(Term(t.coeff * s, t.exps) for t, s in zip(terms, (s2, s1))))
        out.append((shape, f, q, permuted, scaled))
    return out


@pytest.fixture(scope="session")
def corpus200():
    return random_binomials(CORPUS_SEED, 200)


@pytest.fixture(scope="session")
def corpus_small():
    return random_binomials(CORPUS_SEED + 1, 60)
