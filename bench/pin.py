"""Build `pinned.json`: the pool binomials of the m >= 3 slots and their values.

Usage (from the repository root):  python3 bench/pin.py

A value is pinned only after every applicable engine agrees on the binomial
at its smallest n: closed, direct and oracle for closed_sweep (the smallest n
at which the closed form applies), direct and oracle for auto_fallback (where
the closed form must refuse).  closed_sweep values at the sweep exponents come
from the closed form; auto_fallback values at the slot exponent are computed
by both direct and oracle, which must agree.  Each member is also re-checked
after a seeded variable permutation and coefficient draw, the two transforms
the workloads apply to it.
"""

from __future__ import annotations

import json
import random
import sys

import srcpath

srcpath.require_src()

import hkbinomial  # noqa: E402
from hkbinomial import (  # noqa: E402
    NotApplicableError,
    PrimePower,
    Term,
    classify,
    hk_closed_form,
    hk_direct_count,
    hk_oracle,
    normalize,
)

import workloads as W  # noqa: E402

srcpath.check_imported(hkbinomial)

ORACLE_CAP = 10**6
AGREE_CAP = 2 * 10**5  # further three-way points are taken while q^m stays below this


def closed_or_none(f, p, n):
    try:
        return hk_closed_form(f, p, n)
    except NotApplicableError:
        return None


def agreed_values(f, p, n_max, want_closed):
    """{n: value} from n = smallest usable exponent while q^m <= AGREE_CAP
    (at least one point), asserting that the engines agree at each n."""
    out = {}
    for n in range(1, n_max + 1):
        size = (p**n) ** f.m
        closed = closed_or_none(f, p, n)
        if want_closed and closed is None:
            if out:
                raise AssertionError(f"closed form stops applying at n = {n}")
            continue
        if not want_closed and closed is not None:
            raise AssertionError(f"closed form applies at n = {n}")
        if out and size > AGREE_CAP:
            break
        if size > ORACLE_CAP:
            raise AssertionError(f"no three-way point: q^m = {size} at the smallest n = {n}")
        q = PrimePower(p, n)
        direct = hk_direct_count(f, q, enum_cap=ORACLE_CAP)
        oracle = hk_oracle(f, q, node_cap=ORACLE_CAP)
        if direct != oracle or (want_closed and closed != direct):
            raise AssertionError(f"engines disagree at n = {n}: {closed} {direct} {oracle}")
        out[n] = direct
    if not out:
        raise AssertionError("no n at which the engines could be compared")
    return out


def check_transforms(lead, trail, p, agreed):
    """The workloads permute variables and redraw coefficients: re-check."""
    g = W.seeded_binomial(random.Random(f"pin:{lead}:{trail}"), p, lead, trail)
    n = min(agreed)
    q = PrimePower(p, n)
    if hk_direct_count(g, q, enum_cap=ORACLE_CAP) != agreed[n] or hk_oracle(g, q, node_cap=ORACLE_CAP) != agreed[n]:
        raise AssertionError(f"value changed under permutation/coefficients: {lead} {trail}")


def members(tag, draw):
    rng = random.Random(f"pool:{tag}")
    seen = []
    while len(seen) < W.POOL_SIZE:
        pair = draw(rng)
        if pair not in seen:
            seen.append(pair)
    return seen


def pin_closed_slot(slot, shape):
    m, p, negs, zeros, poss = shape
    out = []
    for lead, trail in members(f"closed_sweep:{slot}", lambda rng: W.shape_exps(rng, negs, zeros, poss)):
        f = normalize(p, Term(1, lead), Term(1, trail))
        cls = classify(f)
        if (cls.r, cls.s, cls.t) != (len(negs), zeros, len(poss)) or sorted(v.a for v in cls.neg) != sorted(negs):
            raise AssertionError(f"shape lost in normalisation: {lead} {trail}")
        agreed = agreed_values(f, p, max(W.SWEEP_N[p]), want_closed=True)
        check_transforms(lead, trail, p, agreed)
        values = {n: hk_closed_form(f, p, n) for n in W.SWEEP_N[p]}
        out.append(_entry(lead, trail, agreed, values))
        print(f"closed_sweep slot {slot}: {lead} {trail} agreed at n = {sorted(agreed)}", file=sys.stderr)
    return out


def pin_fallback_slot(slot, spec):
    kind, m, p, n = spec
    q = p**n
    out = []
    for lead, trail in members(f"auto_fallback:{slot}", lambda rng: W.fallback_exps(rng, kind, m, q)):
        f = normalize(p, Term(1, lead), Term(1, trail))
        agreed = agreed_values(f, p, n, want_closed=False)
        check_transforms(lead, trail, p, agreed)
        if closed_or_none(f, p, n) is not None:
            raise AssertionError(f"closed form applies at the slot exponent: {lead} {trail}")
        qq = PrimePower(p, n)
        value = hk_direct_count(f, qq, enum_cap=ORACLE_CAP)
        if hk_oracle(f, qq, node_cap=ORACLE_CAP) != value:
            raise AssertionError(f"direct and oracle disagree at n = {n}: {lead} {trail}")
        out.append(_entry(lead, trail, agreed, {n: value}))
        print(f"auto_fallback slot {slot}: {lead} {trail} agreed at n = {sorted(agreed)}", file=sys.stderr)
    return out


def _entry(lead, trail, agreed, values):
    return {
        "lead": list(lead),
        "trail": list(trail),
        "agreed": {str(n): str(v) for n, v in sorted(agreed.items())},
        "values": {str(n): str(v) for n, v in sorted(values.items())},
    }


def main():
    pinned = {
        "closed_sweep": {
            str(slot): pin_closed_slot(slot, shape)
            for slot, shape in enumerate(W.CLOSED_SHAPES)
            if shape[0] >= 3
        },
        "auto_fallback": {
            str(slot): pin_fallback_slot(slot, spec)
            for slot, spec in enumerate(W.FALLBACK_SLOTS)
            if spec[1] >= 3
        },
    }
    with open(W.PINNED_PATH, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
