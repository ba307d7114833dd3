"""Exact Hilbert-Kunz functions and multiplicities of binomial hypersurfaces.

The length l(S / (x_1^q, ..., x_m^q, f)) for a two-term polynomial f over
F_p is computed by three independent engines (iterative closed form,
per-monomial membership counting, bit-parallel relation-graph oracle)
that are cross-checked against each other, all in exact integer
arithmetic.
"""

from .algebra import (
    Binomial,
    PrimePower,
    Term,
    deglex_compare,
    normalize,
    parse_binomial,
    parse_monomial,
    render,
)
from .classify import Classification, classify, classification_summary
from .closedform import (
    MmaxParams,
    hk_closed_form,
    hk_closed_form_tables,
    mmax_params,
    phi_recursive,
    g_chain,
)
from .engines import HKReport, cross_check, hk, load_corpus
from .errors import (
    ConstantTermError,
    ContractError,
    DegenerateBinomialError,
    DimensionError,
    DomainError,
    FormulaDomainError,
    HKError,
    NotApplicableError,
    ParseError,
    ResourceError,
    ZeroCoefficientError,
)
from .keycheck import (
    MembershipResult,
    hk_direct_count,
    member_scan,
)
from .multiplicity import QuasiPolynomial, hk_1dim, hk_quasi_polynomial
from .oracle import hk_oracle, hk_oracle_report

__version__ = "0.1.0"

__all__ = [
    "Binomial",
    "Classification",
    "HKReport",
    "MembershipResult",
    "MmaxParams",
    "PrimePower",
    "QuasiPolynomial",
    "Term",
    "classify",
    "classification_summary",
    "cross_check",
    "deglex_compare",
    "g_chain",
    "hk",
    "hk_1dim",
    "hk_closed_form",
    "hk_closed_form_tables",
    "hk_direct_count",
    "hk_quasi_polynomial",
    "hk_oracle",
    "hk_oracle_report",
    "load_corpus",
    "member_scan",
    "mmax_params",
    "normalize",
    "parse_binomial",
    "parse_monomial",
    "phi_recursive",
    "render",
    # errors
    "HKError",
    "ParseError",
    "DimensionError",
    "DegenerateBinomialError",
    "ZeroCoefficientError",
    "ConstantTermError",
    "DomainError",
    "ContractError",
    "NotApplicableError",
    "FormulaDomainError",
    "ResourceError",
]
