"""Exception hierarchy shared by all reptrace modules."""


class ReptraceError(Exception):
    """Base class for all errors raised by this package."""


class OutOfRangeError(ReptraceError, ValueError):
    """A trust value lies outside its range."""


class BadBinError(ReptraceError, ValueError):
    """An opinion bin index is outside 1..bins."""


class NumericalFailureError(ReptraceError):
    """A numeric routine produced a non-finite or out-of-bounds result."""


class MissingDiagnosticsError(ReptraceError):
    """A model-specific argument needs diagnostics absent from the context."""


class NotPreferredError(ReptraceError):
    """The allegedly preferred provider does not strictly outrank the other,
    or the evidence both share gives no reason why it does."""


class AmbiguousOrderError(NotPreferredError):
    """The two overall scores are equal within tolerance."""


class UnknownAgentError(ReptraceError, KeyError):
    """An agent id names no known agent: rendering found no display name
    for it, or a world has no such assessor (``World.require_agent``) or
    provider (``World.require_provider``)."""


class ConfigError(ReptraceError):
    """A scenario or stores document, or a record built in code, is malformed.

    ``path``, when the check knows it, names the offending field relative
    to the record that raised the error; ``problem`` is the message.
    """

    def __init__(self, problem: str, path: str = ""):
        super().__init__(f"{path}: {problem}" if path else problem)
        self.problem = problem
        self.path = path

    def in_document(self, kind: str, prefix: str = "") -> "ConfigError":
        """This error as one of a ``kind`` document, under ``prefix`` in it."""
        return ConfigError(f"{kind} document invalid at {prefix}{self.path}: {self.problem}")
