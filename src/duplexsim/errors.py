"""Exception hierarchy shared across the package.

ConfigError subclasses mark problems detectable by validating inputs up
front (the CLI maps them to exit code 2); everything else is a runtime
failure (exit code 3).
"""


class DuplexError(Exception):
    """Base class for all package errors."""


class ConfigError(DuplexError):
    """Invalid input or configuration, detectable before any work starts."""


class LengthMismatch(ConfigError):
    pass


class BadChunkSize(ConfigError):
    pass


class BadDuration(ConfigError):
    pass


class EmptyCorpus(ConfigError):
    pass


class EmptySequence(ConfigError):
    pass


class EmptySet(ConfigError):
    pass


class DegenerateInput(ConfigError):
    pass


class NoPairs(ConfigError):
    pass


class ModelFormatError(ConfigError):
    pass


class MalformedSequence(DuplexError):
    """A token sequence or a ``DedupDialogue`` breaks the grammar of the
    tagged chunk wire format."""


class SourceExhausted(ConfigError):
    """Scripted interaction input is shorter than the requested run."""


class EmptyCarryOverWarning(UserWarning):
    """A channel's very first chunk had no novel tokens; reconstruction
    falls back to the first silence token."""
