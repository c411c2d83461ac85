"""Exception hierarchy shared across the package.

Every error the package raises deliberately derives from ``T2TBioError`` so
callers (and the CLI) can distinguish structured failures from genuine bugs.
"""


class T2TBioError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(T2TBioError):
    """Invalid or inconsistent configuration."""


class VocabError(T2TBioError):
    """Vocabulary training, lookup, or file-format failure."""


class CorruptionError(T2TBioError):
    """Span-corruption pair construction or validation failure."""


class CodecError(T2TBioError):
    """Task serialization/deserialization failure."""


class ModelError(T2TBioError):
    """Model execution failure (bad batch, numeric overflow, empty loss)."""


class CheckpointError(T2TBioError):
    """Checkpoint write/read or manifest validation failure."""


class DataFormatError(T2TBioError):
    """Malformed input data. Carries the offending path/line when known."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix = f"{path}:"
            if line is not None:
                prefix += f"{line}:"
            prefix += " "
        elif line is not None:
            prefix = f"line {line}: "
        super().__init__(prefix + message)
