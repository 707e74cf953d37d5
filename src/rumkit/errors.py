"""Exception types shared across the package."""

_SHOWN_CHARS = 40


def shown(value: object) -> str:
    """repr(value) for an error message, cut short so it never echoes a huge input."""
    text = repr(value)
    return text if len(text) <= _SHOWN_CHARS else f"{text[:_SHOWN_CHARS]}... ({len(text)} chars)"


class RumkitError(Exception):
    """Base class for all rumkit errors."""


class LabelError(RumkitError):
    """Unknown, duplicate, or otherwise malformed alternative labels."""


class UniverseMismatchError(RumkitError):
    """Two values that must share a universe do not."""


class CapExceededError(RumkitError):
    """The number of alternatives exceeds the configured cap."""


class DocumentError(RumkitError):
    """A model/choice-data/distribution document is malformed.

    The message names the offending field or value.
    """


class NotEdgeDecomposableError(RumkitError):
    """An operation requiring an edge decomposable model got one that is not."""


class NotCarumError(RumkitError):
    """Choice data is inconsistent with every Latin-square model."""


class WitnessError(RumkitError):
    """A decomposition witness does not cover the model bijectively, or names a
    pair off the lattice."""
