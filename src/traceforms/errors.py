"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes, so the split between categories
(validation, tameness, hypothesis, consistency) is part of the contract.
"""


class TraceFormsError(Exception):
    """Base class for all package errors."""


class InvalidPrimeError(TraceFormsError):
    """A prime-spot argument was not -1, 2, or an odd prime."""


class ZeroArgumentError(TraceFormsError):
    """An argument that must be nonzero was zero."""


class NonUnitError(TraceFormsError):
    """A value that must be a p-adic unit has nonzero valuation."""


class SingularFormError(TraceFormsError):
    """A Gram matrix or diagonal form is degenerate."""


class FormRangeError(TraceFormsError):
    """Model-form parameters out of range (e.g. f outside 0 < f <= n)."""


class RepeatedRootError(TraceFormsError):
    """A polynomial that must be squarefree has a repeated root."""


class NotAFieldError(TraceFormsError):
    """A defining polynomial is reducible over the rationals."""


class BadBasisError(TraceFormsError):
    """A supplied basis is not an order (or has wrong shape)."""


class UnsupportedSplittingError(TraceFormsError):
    """Splitting at p cannot be computed natively and was not supplied.

    Its args are (p,), so `UnsupportedSplittingError(*exc.args)` raises
    the same error again."""

    def __init__(self, p):
        super().__init__(p)
        self.p = p

    def __str__(self):
        return f"splitting at {self.p} requires supplied data"


class HypothesisError(TraceFormsError):
    """Inputs fall outside a decision procedure's hypotheses."""


class TamenessError(HypothesisError):
    """A wildly ramified prime where tameness is required."""


class FlagInconsistencyError(HypothesisError):
    """A trusted input flag (e.g. Galois) contradicts computed data."""


class ConsistencyError(TraceFormsError):
    """An internal cross-check invariant failed; indicates corrupt input."""


class ParseError(TraceFormsError):
    """Malformed input record."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DuplicateLabelError(ParseError):
    """Two input records share a label."""


class LimitError(TraceFormsError):
    """A configured size or iteration cap was exceeded."""
