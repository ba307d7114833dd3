"""Cross-validate the engines on a randomly generated corpus.

The harness compares, per instance, the answer auto `hk` gives (the
closed form, or the monomial count on the shapes the closed form
excludes) with the direct count and the oracle.  Any disagreement is a
bug by definition, so the harness treats it as a hard failure; it fails
an instance that compared fewer than two values too.  This script
generates a small corpus, runs the harness, and prints the per-instance
verdicts.
"""

import random

from hkbinomial import HKError, Term, cross_check, normalize

rng = random.Random(42)
instances = []
while len(instances) < 25:
    m = rng.choice([2, 3])
    p = rng.choice([2, 3, 5])
    n = rng.choice([1, 2])
    if (p**n) ** m > 6561:
        continue
    try:
        f = normalize(
            p,
            Term(rng.randint(1, p - 1), tuple(rng.randint(0, 4) for _ in range(m))),
            Term(rng.randint(1, p - 1), tuple(rng.randint(0, 4) for _ in range(m))),
        )
    except HKError:
        continue
    instances.append((f, p, n))

report = cross_check(instances)
for entry in report.entries:
    vals = ", ".join(f"{k}={v}" for k, v in entry["values"].items())
    skips = ", ".join(f"{k} skipped" for k in entry["skipped"]) or "all ran"
    print(f"  {entry['poly']:<28} p={entry['p']} n={entry['n']}: {vals}  ({skips})")

print(f"\nall_agree = {report.all_agree} over {len(report.entries)} instances")
