"""Exception types shared across the package.

Every failure the command layer has to report carries a short machine
code (the ``code`` class attribute) which the CLI maps to a documented
exit status and prints on stderr as ``error: <code>: <message>``.
"""


class GlauberLabError(Exception):
    """Base class for package-specific errors."""

    code = "error"


class InvalidArgumentError(GlauberLabError, ValueError):
    """A precondition on an operation argument was violated."""

    code = "invalid-argument"


class GridMismatchError(InvalidArgumentError):
    """Two objects that must share a grid do not."""

    code = "grid-mismatch"


class MemoryGuardError(GlauberLabError):
    """A tensor or matrix would exceed the configured entry budget."""

    code = "memory-guard"


class RadiusExceededError(GlauberLabError):
    """Requested time lies outside the guaranteed solver interval."""

    code = "radius-exceeded"


class ConvergenceError(GlauberLabError):
    """Series iteration hit its term budget before meeting tolerance."""

    code = "no-convergence"


class RuelleViolationError(GlauberLabError):
    """Activity-envelope margin drifted beyond tolerance during a run.

    Signals a truncation artifact rather than a failure of the underlying
    estimates; carries the offending margin and the time it was observed.
    """

    code = "ruelle-violated"

    def __init__(self, margin, time):
        super().__init__(
            "activity-envelope margin %.9g exceeded tolerance at t=%.9g"
            % (margin, time)
        )
        self.margin = margin
        self.time = time


class NonfiniteStateError(GlauberLabError):
    """An evolved state picked up a NaN or infinity."""

    code = "nonfinite-state"


class ConfigError(GlauberLabError):
    """Configuration text could not be parsed or validated."""

    code = "parse-error"
