"""Compute one Hilbert-Kunz value three independent ways.

The library counts the F_p-dimension of k[x1,...,xm] / (x1^q, ..., xm^q, f)
for a two-term polynomial f and q = p^n.  Three engines produce the same
exact integer: a closed-form evaluation, a per-monomial membership count,
and a relation-graph oracle.  This script runs all three on a small
instance and shows what the automatic engine picks.
"""

from hkbinomial import (
    PrimePower,
    hk,
    hk_closed_form,
    hk_direct_count,
    hk_oracle,
    parse_binomial,
    render,
)

f = parse_binomial("x1^3 - x2^2", p=5)
print(f"f = {render(f)} over F_5  (the cusp x^3 = y^2)")

q = PrimePower(5, 1)
print(f"\nq = 5:")
print(f"  closed form   : {hk_closed_form(f, 5, 1)}")
print(f"  direct count  : {hk_direct_count(f, q)}")
print(f"  oracle        : {hk_oracle(f, q)}")

print("\nThe automatic engine evaluates the closed form, which never enumerates:")
for n in range(1, 9):
    rep = hk(f, 5, n)
    print(f"  n={n}: q={rep.q:>7} value={rep.value:>8} engine={rep.engine}")

print("\nThe values are exactly 2 * 5^n: the multiplicity of the cusp is 2.")

g = parse_binomial("x1^2*x2 - x1", p=5)
rep = hk(g, 5, 8)
print(f"\ng = {render(g)}: the trail term divides the lead term, so the ideal is")
print("the monomial ideal (x1^q, x2^q, x1) and the length is a product.")
print(f"  n=8: q={rep.q} value={rep.value} engine={rep.engine}")
