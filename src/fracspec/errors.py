"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NumericalFailureError(RuntimeError):
    """A numerical procedure failed to converge.

    Carries what the refusing stage measured, so callers can inspect how
    close the computation got before giving up; each is None where the stage
    has none.  `estimate` is the refused linear solve's condition estimate,
    or the adaptive quadrature's running integral when its budget runs out.
    `error_bound` is that quadrature's error estimate, or the max node
    residual of a Gauss-Jacobi rule whose Newton pass stalled.  `index` is
    the index tuple of a refused eigenmode of the space-time solve.
    """

    def __init__(self, message, estimate=None, error_bound=None, index=None):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound
        self.index = index

    def prefixed(self, context):
        """This refusal as "<context>: <message>", keeping its estimate, error bound and index."""
        return NumericalFailureError(
            f"{context}: {self}", self.estimate, self.error_bound, self.index
        )


class StudyError(RuntimeError):
    """A convergence study aborted; partial results are attached."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial
