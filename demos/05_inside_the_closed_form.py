"""Peek inside the closed-form evaluation.

The closed form classifies variables by the difference of their powers
between the two terms, derives each shrinking variable's top scan bound,
counts the zero/growing block per bound, and sums the non-members by
scan bound.  All of those intermediates are exposed for audit.
"""

from hkbinomial import (
    classification_summary,
    classify,
    hk_closed_form_tables,
    mmax_params,
    parse_binomial,
    phi_recursive,
    render,
)

f = parse_binomial("x1^2*x2 - x2*x3", p=3)
print(f"f = {render(f)} over F_3, q = 3\n")

cls = classify(f)
summary = classification_summary(cls)
print(f"classification: r={summary['r']} s={summary['s']} t={summary['t']}")
print(f"  shrinking: {summary['neg']}")
print(f"  fixed    : {summary['zero']}")
print(f"  growing  : {summary['pos']}\n")

for prm in mmax_params(cls, 3, 1):
    print(f"x{prm.var} shrinks by {prm.a} per trade: top scan bound {prm.top_value}")

print("\nblock counts by scan bound:")
for M in (1, 2):
    print(f"  bound {M}: {phi_recursive(M, cls, 3, 1)}")

value, by_bound = hk_closed_form_tables(f, 3, 1)
counts = tuple(by_bound(x) for x in range(by_bound.length))
print(f"\nby_bound (non-members at bound 1..V): {counts}")
print(f"assembled value                     : {value}")
