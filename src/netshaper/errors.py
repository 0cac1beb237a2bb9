"""Exception types shared across the package."""


class NetshaperError(Exception):
    """Base class for all package-specific errors."""


class TraceParseError(NetshaperError, ValueError):
    """A trace file row could not be parsed."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class ConfigError(NetshaperError, ValueError):
    """Invalid configuration or parameter combination."""


class SchedulingError(NetshaperError, RuntimeError):
    """The shaping step was driven off its interval schedule."""


class SessionError(NetshaperError, RuntimeError):
    """Tunnel session could not be established or broke down."""


class WireClosed(SessionError):
    """The peer closed the tunnel connection."""


class AuthError(SessionError):
    """Peer failed pre-shared-key authentication."""


class ParameterMismatch(SessionError):
    """Tunnel endpoints presented different shaping parameters."""
