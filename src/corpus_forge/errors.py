"""Exception hierarchy shared across the toolkit."""


class CorpusForgeError(Exception):
    """Base class for all toolkit errors; the CLI exits with exit_code."""

    exit_code = 1
    label = "error"


class InsufficientData(CorpusForgeError):
    """A corpus cannot satisfy a requested token threshold."""

    exit_code = 5
    label = "insufficient data"


class CorpusFormatError(CorpusForgeError):
    """A corpus file is malformed (line mismatch, missing fields, bad JSON)."""


class ConfigError(CorpusForgeError):
    """The run configuration is invalid or incomplete."""

    exit_code = 3
    label = "config error"


class TransportError(CorpusForgeError):
    """Network-level failure talking to the chat backend."""

    exit_code = 4
    label = "transport error"


class ProtocolError(CorpusForgeError):
    """The backend answered, but the response body was malformed."""


class RateLimited(TransportError):
    """Backend signalled rate limiting; carries an optional advised delay."""

    def __init__(self, message, retry_after=None):
        super().__init__(message)
        self.retry_after = retry_after


class AuthError(CorpusForgeError):
    """Authentication rejected; never retried."""


class UnclassifiableRequest(CorpusForgeError):
    """The mock backend could not match a request to a generation stage."""


class EmptyResponse(CorpusForgeError):
    """A generation response parsed to zero usable items."""


class AllSeedsFailed(CorpusForgeError):
    """Every per-seed sentence request failed; nothing was produced."""


class AllTranslationsFailed(CorpusForgeError):
    """Every translation request failed; no parallel pairs were produced."""


class EmptyCorpus(CorpusForgeError):
    """An operation requiring a non-empty corpus received an empty one."""


class EmptyInput(CorpusForgeError):
    """An analysis operation received input with no tokens."""


class LengthMismatch(CorpusForgeError):
    """Hypothesis and reference sequences differ in length."""
