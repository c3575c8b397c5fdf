"""Exception types shared across the package."""


class LadderError(Exception):
    """Base class for domain errors raised by this package."""


class NonUnitaryRegime(LadderError):
    """A required coupling lambda_j^2 is negative: the algebra has no
    real-coupling representation on the requested index range."""


class PoleError(LadderError):
    """Evaluation point within 1e-9 of a pole of the factorization's
    scalar factors: |D+| or |D-| below 1e-9 (a tan/sec pole for
    exp(iy(R+L)))."""


class ConvergenceError(LadderError):
    """A series evaluation cannot converge in the requested domain."""


class SingularS(LadderError):
    """The rotation parametrization degenerates (the scale factor s
    vanishes, e.g. omega = theta = pi/2)."""
