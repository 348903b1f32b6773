"""Exception types shared across the package."""

from __future__ import annotations


class NeTranslitError(Exception):
    """Base class for every error this package raises deliberately."""


class ScriptError(NeTranslitError):
    """Input contains characters outside the expected script."""


class MalformedWordError(NeTranslitError):
    """A Devanagari dependent sign occurred with no base consonant."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class CorpusError(NeTranslitError):
    """A parallel corpus, or one of its entries, cannot be used for training."""


class ModelError(NeTranslitError):
    """Base class for model construction and serialization errors."""


class ModelFormatError(ModelError):
    """A model file could not be parsed."""


class ModelVersionError(ModelError):
    """A model file declares a format version this code does not read."""


class ModelValidationError(ModelError):
    """A model violates its probability-table invariants."""


class UnseenPhonemeError(NeTranslitError):
    """No emission candidates exist for an English phoneme."""

    def __init__(self, phoneme: str, position: int):
        super().__init__(f"no candidates for phoneme {phoneme!r} at position {position}")
        self.phoneme = phoneme
        self.position = position


class ZeroProbabilityError(NeTranslitError):
    """Every Hindi sequence for a word has probability 0 under the model."""

    def __init__(self, word: str):
        super().__init__(f"every transliteration of {word!r} has probability 0 under this model")
        self.word = word


class KnowledgeBaseError(NeTranslitError):
    """A knowledge-base file is malformed or contains duplicates."""


class AnnotationError(NeTranslitError):
    """An annotated sentence could not be parsed."""


class ConfigError(NeTranslitError):
    """A configuration file contains unknown keys or bad values."""


class EvaluationError(NeTranslitError):
    """Gold and system outputs cannot be scored against each other."""


class NotFittedError(NeTranslitError):
    """An estimator was used before calling fit()."""
