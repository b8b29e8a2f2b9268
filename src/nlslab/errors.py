"""Exception types shared across the package."""


class NlslabError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(NlslabError, ValueError):
    """A precondition on (N, p, grid, ...) was violated."""


class GridMismatchError(NlslabError, ValueError):
    """Fields defined on different grids were combined."""


class NonConvergenceError(NlslabError, RuntimeError):
    """An iterative solver exceeded its iteration cap."""


class CertificationError(NlslabError, RuntimeError):
    """A computed object violates one of its certified invariants."""


class SpectralFailureError(NlslabError, RuntimeError):
    """No negative eigenvalue was found where one is required."""


class SingularSystemError(NlslabError, RuntimeError):
    """A resolvent solve hit (or came too close to) the spectrum."""


class ValidityError(NlslabError, RuntimeError):
    """A request lies outside the validity window of an expansion."""


class RecursionDriftError(NlslabError, RuntimeError):
    """A recursion coefficient that must vanish exceeded its tolerance."""


class InstabilityError(NlslabError, RuntimeError):
    """Conserved quantities drifted beyond the configured guard."""


class OutOfWindowError(NlslabError, RuntimeError):
    """Modulation was requested for a state too far from the standing wave."""


class NewtonFailureError(NonConvergenceError):
    """Newton iteration failed to converge."""


class ConfigError(NlslabError, ValueError):
    """A configuration file could not be parsed or validated."""


class UsageError(NlslabError, ValueError):
    """Command line arguments were malformed."""
