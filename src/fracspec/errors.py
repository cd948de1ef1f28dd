"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NumericalFailureError(RuntimeError):
    """A numerical procedure failed to converge.

    Carries the best available estimate and its error bound so callers can
    inspect how close the computation got before giving up.  A refused
    eigenmode of the space-time solve also carries the mode's index tuple.
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
