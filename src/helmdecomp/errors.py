"""Exception types shared across the package."""


class HelmdecompError(Exception):
    """Base class for all package errors."""


class SingularPoint(HelmdecompError):
    """Kernel evaluated at (or too close to) its singular point."""


class NoUniqueProjection(HelmdecompError):
    """Closest-point projection failed or the point lies beyond the reach."""


class OutOfChart(HelmdecompError):
    """Normal-coordinate argument outside the chart box."""


class NonDecayingInput(HelmdecompError):
    """Input does not decay at the grid boundary; spectral/quadrature output untrusted."""


class ZeroFrequencyIll(HelmdecompError):
    """Negative-order norm dominated by the unresolved zero-frequency cell."""


class NoAdmissibleBall(HelmdecompError):
    """Seminorm estimator found no admissible sample ball on this grid."""


class TooCloseToSurface(HelmdecompError):
    """Target closer to the boundary than the quadrature validity range."""


class ExtrapolationUnstable(HelmdecompError):
    """Boundary extrapolation shells disagree beyond the allowed tolerance."""


class NotContractive(HelmdecompError):
    """Empirical operator norm of the boundary iteration is >= 1."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class MaxIterations(HelmdecompError):
    """Series hit the iteration cap; carries the partial solution."""

    def __init__(self, message, solution=None):
        super().__init__(message)
        self.solution = solution


class ConfigError(HelmdecompError):
    """Invalid run configuration."""
