"""Exception hierarchy shared by all reptrace modules. The command line
exits 4 on ``NotPreferredError`` and 2 on ``ConfigError``,
``UnknownAgentError`` and ``ValueError``, which out-of-range values, bad
bins, failed numeric routines and missing diagnostics raise."""


class ReptraceError(Exception):
    """Base class for all errors raised by this package."""


class NotPreferredError(ReptraceError):
    """The allegedly preferred provider does not strictly outrank the other:
    the two overall scores are tied within tolerance (the message says
    "are tied"), or the other one ranks higher, or the evidence both
    share gives no reason why it does."""


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
