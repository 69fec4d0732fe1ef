"""Exception types shared across the package."""


class SingularMatrixError(ValueError):
    """A matrix required to be (numerically) SPD is not.

    Carries the offending extreme eigenvalues so callers can report how far
    from positive definite the input was.
    """

    def __init__(self, message, lambda_min=None, lambda_max=None):
        super().__init__(message)
        self.lambda_min = lambda_min
        self.lambda_max = lambda_max


class QuadratureError(RuntimeError):
    """A quadrature result failed its accuracy requirement.

    ``achieved`` holds the error estimate that exceeded the target.
    """

    def __init__(self, message, achieved=None, target=None):
        super().__init__(message)
        self.achieved = achieved
        self.target = target
