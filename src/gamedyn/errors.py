"""Exception types shared across the package."""


class GameDynError(Exception):
    """Base class for all gamedyn errors."""


class DomainError(GameDynError):
    """Invalid numeric input: wrong shape, out-of-range index, non-finite value."""


class UsageError(GameDynError):
    """Bad user-facing request: unknown preset, missing or unknown parameter."""


class ConfigurationError(GameDynError):
    """Structurally invalid component, e.g. a feedback block violating its contract."""


class NumericsError(GameDynError):
    """A numerical failure: a failed cross-check, no solution, a divergence."""


class IntegrationDivergedError(NumericsError):
    """Integration produced a non-finite state."""

    def __init__(self, message: str, last_good_time: float):
        super().__init__(message)
        self.last_good_time = last_good_time
