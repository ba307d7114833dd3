"""Seeded inputs for the three benchmark workloads, and how each value is checked.

Every workload is a fixed schedule of slots.  A slot fixes what sets an
instance's cost: the variable count m, the prime p, the exponents n, and
for closed_sweep and auto_fallback the binomial's shape (the shrink rates a
of its shrinking variables, how many variables stay fixed, the growth rates
of the growing ones).  The run seed draws everything else: exponents,
variable order and coefficients.  So two seeds give different binomials of
the same cost, and a batch's wall time moves with the program, not the seed.

Each value is checked.  Two-variable values are compared with the exact
form `hk_1dim`.  Values with m >= 3 cannot be recomputed cheaply at these
sizes, so those slots draw their binomial from a pool whose values are
pinned in `pinned.json` (see `pin.py`); the seed picks the pool member,
permutes its variables and draws its coefficients, none of which changes
the length.  engine_crosscheck is checked by the cross-check itself
(`all_agree`) and, for m = 2, by `hk_1dim`.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

from hkbinomial import HKError, Term, normalize, render

HERE = os.path.dirname(os.path.abspath(__file__))
PINNED_PATH = os.path.join(HERE, "pinned.json")

# q = p^n from about 1.5e4 to 5e5: closedform._levels is O(q) here.  Each p
# has at least three exponents, for the slope of log time against log q.
SWEEP_N = {2: tuple(range(15, 20)), 3: tuple(range(10, 13)), 5: tuple(range(6, 9))}

# closed_sweep slots: (m, p, shrink rates, fixed-variable count, growth rates).
# The shrink rates exceed the growth rates in sum, so the constructed lead
# term is the deglex-greater one and the shape survives normalisation.
CLOSED_SHAPES = (
    (2, 2, (2,), 0, (1,)),
    (2, 3, (3,), 0, (1,)),
    (2, 5, (2,), 0, (1,)),
    (3, 2, (1, 3), 0, (2,)),
    (3, 3, (2,), 1, (1,)),
    (3, 5, (3,), 0, (1, 1)),
    (4, 2, (2, 2), 1, (1,)),
    (4, 3, (1, 2, 3), 0, (1,)),
    (4, 5, (3,), 1, (1, 1)),
)

# auto_fallback slots: (kind, m, p, n).  "t0": the trail term divides the
# lead term (no growing variable); "bigexp": a lead exponent is >= q.  Both
# make hk_closed_form raise NotApplicableError, and q^m is within the direct
# budget, so auto hk falls back to hk_direct_count.  The q^m climb from
# 2.9e4 to 2.8e5 in small steps, so that no percentile of the per-instance
# times hangs on one instance.  "refused": q^m is beyond every budget, so
# auto hk raises ResourceError today (kept in on purpose: it is the case a
# total closed route would answer).
FALLBACK_SLOTS = (
    ("t0", 2, 13, 2),
    ("t0", 4, 13, 1),
    ("t0", 3, 31, 1),
    ("t0", 3, 2, 5),
    ("bigexp", 3, 37, 1),
    ("t0", 2, 3, 5),
    ("bigexp", 2, 2, 8),
    ("bigexp", 4, 2, 4),
    ("t0", 3, 41, 1),
    ("t0", 3, 43, 1),
    ("t0", 2, 17, 2),
    ("t0", 4, 17, 1),
    ("t0", 3, 47, 1),
    ("t0", 2, 7, 3),
    ("t0", 3, 7, 2),
    ("bigexp", 2, 19, 2),
    ("t0", 4, 19, 1),
    ("bigexp", 3, 53, 1),
    ("t0", 3, 59, 1),
    ("t0", 2, 2, 9),
    ("t0", 3, 2, 6),
    ("t0", 2, 23, 2),
    ("refused", 2, 5, 8),
    ("refused", 2, 3, 12),
)
FALLBACK_SHRINK = {2: (2,), 3: (1, 2), 4: (1, 1, 2)}  # shrink rates per m for "t0"

CROSS_COUNT = 200
CROSS_QM_CAP = 2 * 10**4
CROSS_PRIMES = (2, 3, 5, 7)
CROSS_MAX_EXP = 4
CROSS_SCHEDULE_SEED = 20261017  # fixes the (m, p, n) of each corpus slot

POOL_SIZE = 4  # pinned binomials per m >= 3 slot
EXP_SPAN = 4  # free exponents are drawn from 0..EXP_SPAN (1..EXP_SPAN when fixed)


@dataclass(frozen=True)
class Instance:
    """One value to compute: the program sees only text, p and n."""

    text: str
    p: int
    n: int
    m: int
    group: int  # slot index; a closed_sweep slot holds one binomial at several n
    expected: int | None  # pinned value, or None when hk_1dim checks it
    refusable: bool  # q^m is beyond every engine budget


def shape_exps(rng: random.Random, negs, zeros: int, poss):
    """Lead and trail exponents for one binomial of the given shape, in
    canonical variable order: shrinking, then fixed, then growing."""
    lead, trail = [], []
    for a in negs:
        b = rng.randint(0, EXP_SPAN)
        lead.append(b + a)
        trail.append(b)
    for _ in range(zeros):
        z = rng.randint(1, EXP_SPAN)
        lead.append(z)
        trail.append(z)
    for dp in poss:
        c = rng.randint(0, EXP_SPAN)
        lead.append(c)
        trail.append(c + dp)
    return tuple(lead), tuple(trail)


def fallback_exps(rng: random.Random, kind: str, m: int, q: int):
    """Exponents that make the closed engine inapplicable at q."""
    if kind in ("t0", "refused"):
        negs = FALLBACK_SHRINK[m]
        return shape_exps(rng, negs, m - len(negs), ())
    # bigexp: one shrinking variable whose lead power is at least q
    lead, trail = shape_exps(rng, (2,), m - 2, (1,))
    big = q + rng.randint(0, 3)
    return (big,) + lead[1:], (big - 2,) + trail[1:]


def seeded_binomial(rng: random.Random, p: int, lead, trail):
    """Permute the variables and draw the coefficients; neither changes the
    length, so a pinned value stays valid."""
    m = len(lead)
    perm = list(range(m))
    rng.shuffle(perm)
    e2 = tuple(lead[i] for i in perm)
    e1 = tuple(trail[i] for i in perm)
    c2 = rng.randint(1, p - 1)
    c1 = rng.randint(1, p - 1)
    return normalize(p, Term(c2, e2), Term(c1, e1))


def load_pinned(path: str = PINNED_PATH) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def closed_sweep(seed: int, pinned: dict, tiny: bool = False) -> list:
    rng = random.Random(f"closed_sweep:{seed}")
    out = []
    for slot, (m, p, negs, zeros, poss) in enumerate(CLOSED_SHAPES):
        if m == 2:
            lead, trail = shape_exps(rng, negs, zeros, poss)
            ns = SWEEP_N[p][:1] if tiny else SWEEP_N[p]
            expect = {n: None for n in ns}
        else:
            member = pinned["closed_sweep"][str(slot)][rng.randrange(POOL_SIZE)]
            lead, trail = tuple(member["lead"]), tuple(member["trail"])
            vals = member["agreed"] if tiny else member["values"]
            expect = {int(n): int(v) for n, v in vals.items()}
        f = seeded_binomial(rng, p, lead, trail)
        for n in sorted(expect):
            out.append(Instance(render(f), p, n, m, slot, expect[n], False))
    return out


def auto_fallback(seed: int, pinned: dict, tiny: bool = False) -> list:
    rng = random.Random(f"auto_fallback:{seed}")
    out = []
    for slot, (kind, m, p, n) in enumerate(FALLBACK_SLOTS):
        if m == 2:
            if tiny and kind != "refused":
                n = 1
            lead, trail = fallback_exps(rng, kind, m, p**n)
            expected = None
        else:
            member = pinned["auto_fallback"][str(slot)][rng.randrange(POOL_SIZE)]
            lead, trail = tuple(member["lead"]), tuple(member["trail"])
            vals = member["agreed"] if tiny else member["values"]
            n = min(int(k) for k in vals)
            expected = int(vals[str(n)])
        f = seeded_binomial(rng, p, lead, trail)
        out.append(Instance(render(f), p, n, m, slot, expected, kind == "refused"))
    return out


def cross_schedule(count: int) -> list:
    """The (m, p, n) of each corpus slot; the same for every run seed."""
    rng = random.Random(CROSS_SCHEDULE_SEED)
    out = []
    while len(out) < count:
        m = rng.choice((2, 3, 4))
        p = rng.choice(CROSS_PRIMES)
        ns = [n for n in range(1, 20) if (p**n) ** m <= CROSS_QM_CAP]
        out.append((m, p, rng.choice(ns)))
    return out


def engine_crosscheck(seed: int, tiny: bool = False) -> list:
    rng = random.Random(f"engine_crosscheck:{seed}")
    out, seen = [], set()
    for slot, (m, p, n) in enumerate(cross_schedule(20 if tiny else CROSS_COUNT)):
        while True:
            e2 = tuple(rng.randint(0, CROSS_MAX_EXP) for _ in range(m))
            e1 = tuple(rng.randint(0, CROSS_MAX_EXP) for _ in range(m))
            try:
                f = normalize(p, Term(rng.randint(1, p - 1), e2), Term(rng.randint(1, p - 1), e1))
            except HKError:  # degenerate draw (equal terms, constant term): redraw
                continue
            # the corpus text must name x_m to keep m variables; instances are distinct
            if (e2[-1] or e1[-1]) and (f, n) not in seen:
                break
        seen.add((f, n))
        out.append(Instance(render(f), p, n, m, slot, None, False))
    return out


def build(workload: str, seed: int, tiny: bool = False) -> list:
    if workload == "engine_crosscheck":
        return engine_crosscheck(seed, tiny)
    pinned = load_pinned()
    if workload == "closed_sweep":
        return closed_sweep(seed, pinned, tiny)
    if workload == "auto_fallback":
        return auto_fallback(seed, pinned, tiny)
    raise ValueError(f"unknown workload {workload!r}")
