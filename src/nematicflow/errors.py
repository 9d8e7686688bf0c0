"""Exception types shared across the package."""

from __future__ import annotations


class ParameterError(ValueError):
    """Invalid argument value (bad shape, non-finite input, out-of-range knob)."""


class RegimeError(ValueError):
    """Coefficient set violates the constraints required by the requested operation."""


class ConfigError(ValueError):
    """Malformed run configuration file; message carries section/key context."""


class BlowUpError(RuntimeError):
    """Time integration produced non-finite fields or tripped a monitor threshold.

    Carries the state whose check failed (the tripping state), or the last
    finite state when a step produced non-finite fields, and its time.
    """

    def __init__(self, message, state=None, time=None):
        super().__init__(message)
        self.state = state
        self.time = time
