"""Reference form of the key ideal, for the tests only.

`is_convergent` is the key ideal's lex shortcut, taken in the delta-sorted
frame of `sorted_vector`; the tests check it against the ideal's
generators and each step of the library's literal scan `member_scan`
against it.
"""

from hkbinomial.algebra import PrimePower
from hkbinomial.classify import Classification
from hkbinomial.errors import ContractError, DomainError
from hkbinomial.keycheck import _check_standard


def sorted_vector(cls: Classification, vec) -> tuple:
    """Map an original-frame exponent vector into the sorted frame."""
    return tuple(vec[i] for i in cls.perm)


def is_convergent(C, A, q: PrimePower) -> bool:
    """True iff the monomial C lies in the key ideal of A.

    Fast path: some exponent of C is >= q, or C is strictly greater than A
    in pure lex order with x_1 most significant.  Equivalent to divisibility
    by one of the key ideal's generators: x_i^q, and the step monomials
    x_1^a_1 ... x_{i-1}^a_{i-1} x_i^(a_i+1) for a_i < q-1; the tests check
    the equivalence exhaustively.
    """
    _check_standard(A, q)
    if len(C) != len(A):
        raise DomainError("exponent vectors of different lengths")
    if any(c >= q.q for c in C):
        return True
    if C == tuple(A):
        raise ContractError("the key monomial itself never lies in its key ideal")
    for c, a in zip(C, A):
        if c != a:
            return c > a
    return False
