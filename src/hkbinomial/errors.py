"""Exception hierarchy shared by all modules."""


class HKError(Exception):
    """Base class for every error raised by this package."""


class ParseError(HKError):
    """Polynomial text does not match the input grammar."""


class DimensionError(HKError):
    """Exponent vectors of mismatched length."""


class DegenerateBinomialError(HKError):
    """Input does not reduce to exactly two distinct monomials."""


class ZeroCoefficientError(HKError):
    """A coefficient vanishes after reduction mod p."""


class ConstantTermError(HKError):
    """A term of degree zero; the polynomial must lie in (x_1, ..., x_m)."""


class DomainError(HKError):
    """Argument outside the operation's domain (bad prime, exponent >= q, ...)."""


class ContractError(HKError):
    """A caller-side precondition was violated."""


class NotApplicableError(HKError):
    """A closed-form route's applicability guard failed for this shape."""


class FormulaDomainError(NotApplicableError):
    """A closed-form evaluation would need a value outside its defined range."""


class ResourceError(HKError):
    """An enumeration budget was exceeded."""

    def __init__(self, message, required=None, budget=None):
        super().__init__(message)
        self.required = required
        self.budget = budget
