import random
import tempfile
from pathlib import Path

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from hkbinomial import HKError, Term, normalize

CORPUS_SEED = 20260811


def pytest_configure(config):
    # Hypothesis caches the constants it reads from source files even with no
    # example database; keep that cache out of the working tree.
    set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "hkbinomial-hypothesis")


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


@pytest.fixture(scope="session")
def corpus200():
    return random_binomials(CORPUS_SEED, 200)


@pytest.fixture(scope="session")
def corpus_small():
    return random_binomials(CORPUS_SEED + 1, 60)
