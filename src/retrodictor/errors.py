"""Exception hierarchy shared by all retrodictor modules."""

from __future__ import annotations


class RetrodictorError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(RetrodictorError):
    """Input data violates a domain invariant (carries the measured residuals)."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(str(v) for v in self.violations)
        super().__init__(f"validation failed: {lines}")


class DimensionMismatch(RetrodictorError):
    """Operands live in different Hilbert-space dimensions."""


class NonHermitianInput(RetrodictorError):
    """A matrix expected to be Hermitian is not, beyond tolerance."""


class SingularOperator(RetrodictorError):
    """A pole function (inverse square root) was requested on a rank-deficient operator.

    rows holds the leading indices of a stack's operators below the floor, as
    np.argwhere gives them (((1,),) for row 1 of an (N, d, d) stack), and the
    message names them; one operator's empty index names nothing.
    """

    def __init__(self, message: str, rows=()):
        self.rows = tuple(tuple(map(int, row)) for row in rows if len(row))
        named = ", ".join(f"[{', '.join(map(str, row))}]" for row in self.rows)
        plural = "s" * (len(self.rows) > 1)
        super().__init__(f"{message} at stack row{plural} {named}" if self.rows else message)


class ZeroProbabilityOutcome(RetrodictorError):
    """Conditioning on an outcome whose probability is below the floor."""


class NumericIntegrityError(RetrodictorError):
    """A computed quantity violates an exact identity by more than roundoff allows."""
