"""Dense linear-algebra length, for the tests only: it guards the oracle's
union-find.  numpy is a test-only dependency."""

import itertools

from hkbinomial.algebra import Binomial, PrimePower
from hkbinomial.errors import DomainError, ResourceError


def dense_rank_length(f: Binomial, q: PrimePower, size_cap: int = 4096) -> int:
    """Secondary mini-oracle: length = (number of standard monomials) minus
    the rank of multiplication-by-f on the standard monomial space.

    Cubic cost; test-only, guards the union-find logic itself.
    """
    import numpy as np

    if q.p != f.p:
        raise DomainError(f"prime power {q.p}^{q.n} does not match f over F_{f.p}")
    qq = q.q
    m = f.m
    N = qq**m
    if N > size_cap:
        raise ResourceError(
            f"dense rank needs a {N}x{N} matrix, cap is {size_cap}",
            required=N,
            budget=size_cap,
        )
    e2, e1 = f.lead.exps, f.trail.exps
    strides = [qq ** (m - 1 - i) for i in range(m)]
    mat = np.zeros((N, N), dtype=np.int64)
    for col, a in enumerate(itertools.product(range(qq), repeat=m)):
        for exps, coeff in ((e2, f.lead.coeff), (e1, f.trail.coeff)):
            row = 0
            ok = True
            for i in range(m):
                e = a[i] + exps[i]
                if e >= qq:
                    ok = False
                    break
                row += e * strides[i]
            if ok:
                mat[row, col] = (mat[row, col] + coeff) % f.p
    return N - _rank_mod_p(mat, f.p)


def _rank_mod_p(mat, p: int) -> int:
    import numpy as np

    A = mat % p
    rows, cols = A.shape
    rank = 0
    for c in range(cols):
        pivots = np.nonzero(A[rank:, c])[0]
        if pivots.size == 0:
            continue
        piv = rank + int(pivots[0])
        if piv != rank:
            A[[rank, piv]] = A[[piv, rank]]
        inv = pow(int(A[rank, c]), -1, p)
        A[rank] = A[rank] * inv % p
        rest = np.nonzero(A[rank + 1 :, c])[0]
        for i in rest:
            row = rank + 1 + int(i)
            A[row] = (A[row] - A[row, c] * A[rank]) % p
        rank += 1
        if rank == rows:
            break
    return rank
