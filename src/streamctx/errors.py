"""Exception types shared across the package."""

from __future__ import annotations


class StreamContextError(Exception):
    """Base class for every error raised by this package."""


class EmbeddingFormatError(StreamContextError):
    """A frame-embedding file violates the binary format."""


class BadMagicError(EmbeddingFormatError):
    """File does not start with the expected magic bytes."""


class VersionMismatchError(EmbeddingFormatError):
    """File declares a format version this reader does not support."""


class TruncatedPayloadError(EmbeddingFormatError):
    """File ends before the declared header/timestamp/feature payload."""


class NonFiniteValueError(EmbeddingFormatError):
    """A timestamp or feature value is NaN or infinite."""


class TimestampOrderError(EmbeddingFormatError):
    """Frame timestamps decrease somewhere in the stream."""


class ManifestError(StreamContextError):
    """A session manifest is malformed or internally inconsistent."""


class DimensionMismatchError(StreamContextError):
    """Two arrays that must share a shape or dimension do not."""


class InvalidConfigError(StreamContextError):
    """A configuration value is outside its documented range."""


class RetrievalParseError(StreamContextError):
    """Provider reply does not match the constrained retrieval grammar.

    The offending reply is kept on ``raw_reply`` so callers can log or
    surface exactly what the provider produced.
    """

    def __init__(self, message: str, raw_reply: str | None = None):
        super().__init__(message)
        self.raw_reply = raw_reply


class ProviderError(StreamContextError):
    """A remote or injected provider failed or returned a malformed body."""
