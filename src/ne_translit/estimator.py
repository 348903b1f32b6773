"""Estimator-style front door following the scikit-learn conventions.

HmmTransliterator wraps the whole training path (phonify, EM-align,
estimate) behind fit() and decoding behind predict(); fitted state lives
in trailing-underscore attributes.  get_params/set_params mirror the
scikit-learn protocol so the classes drop into tooling that clones and
grid-searches estimators, without this package depending on scikit-learn.

Parameters take the values their CLI flag or config key takes, parsed by
the same settings.check.  As in scikit-learn, __init__ only stores them;
they are checked where they are used, in fit, predict and transform, and
a bad value raises a ConfigError that names the parameter.
"""

from __future__ import annotations

import inspect

from .alignment import ParallelEntry, align_corpus
from .decoder import Fallback, decode_name
from .errors import CorpusError, NotFittedError
from .kb import KnowledgeBase, normalize
from .model import TransliterationModel, estimate
from .pipeline import ANNOTATION_FORMATS, parse_annotations, process_sentence
from .settings import bad_value, check


class ParamsMixin:
    """get_params/set_params over the keyword arguments of __init__."""

    @classmethod
    def _param_names(cls) -> list[str]:
        signature = inspect.signature(cls.__init__)
        return sorted(name for name in signature.parameters if name != "self")

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(f"invalid parameter {name!r} for {type(self).__name__}")
            setattr(self, name, value)
        return self


def _coerce_entry(index, item) -> ParallelEntry:
    """Item `index` of fit's X: a ParallelEntry or an (english, hindi) pair."""
    if isinstance(item, ParallelEntry):
        return item
    if isinstance(item, (tuple, list)) and len(item) == 2 and all(isinstance(s, str) and s for s in item):
        return ParallelEntry(*item)
    raise CorpusError(f"item {index}: expected an (english, hindi) pair of non-empty strings: {item!r}")


class HmmTransliterator(ParamsMixin):
    """Learn phoneme probability tables from parallel names, then decode.

    Parameters
    ----------
    smoothing_k : additive smoothing constant; 0 keeps raw count ratios.
    em_iterations : EM passes for the phoneme aligner.
    top_k : candidate Hindi phonemes kept per position while decoding.
    fallback : policy for words with phonemes the model has never seen.
    """

    def __init__(self, smoothing_k=0.1, em_iterations=10, top_k=10, fallback=Fallback.ERROR):
        self.smoothing_k = smoothing_k
        self.em_iterations = em_iterations
        self.top_k = top_k
        self.fallback = fallback

    def fit(self, X, y=None):
        """X: parallel entries, as ParallelEntry or (english, hindi) pairs.
        Raises CorpusError for an item that is neither, or if no entry is
        usable."""
        iterations = check("em_iterations", self.em_iterations)
        k = check("smoothing_k", self.smoothing_k)
        entries = [_coerce_entry(index, item) for index, item in enumerate(X)]
        self.alignment_, usable, skipped = align_corpus(entries, iterations)
        self.model_: TransliterationModel = estimate(usable, k)
        self.skipped_ = tuple(skipped)
        self.n_entries_ = len(usable)
        return self

    def _check_fitted(self):
        if not hasattr(self, "model_"):
            raise NotFittedError(f"{type(self).__name__} must be fitted before use")

    def predict(self, X) -> list[str]:
        """Hindi string for each English name in X (decoder.decode_name)."""
        self._check_fitted()
        policy, top_k = check("fallback", self.fallback), check("top_k", self.top_k)
        return [decode_name(self.model_, word, policy, top_k)[0] for word in X]

    def score(self, X, y) -> float:
        """Normalized exact-match accuracy of predict(X) against y."""
        y = list(y)
        predictions = self.predict(X)
        if len(predictions) != len(y):
            raise ValueError("X and y have different lengths")
        if not y:
            raise ValueError("cannot score an empty set")
        hits = sum(normalize(p) == normalize(g) for p, g in zip(predictions, y))
        return hits / len(y)


class NamedEntityTranslator(ParamsMixin):
    """Stateless transformer: annotated sentences in, substituted text out.

    `model` may be a TransliterationModel or a fitted HmmTransliterator;
    `kb` is consulted first for organizations and locations (and for
    persons too when it holds a PER row).
    """

    def __init__(
        self,
        model=None,
        kb: KnowledgeBase | None = None,
        annotation_format: str = "inline",
        fallback=Fallback.ERROR,
        top_k: int = 10,
    ):
        self.model = model
        self.kb = kb
        self.annotation_format = annotation_format
        self.fallback = fallback
        self.top_k = top_k

    def fit(self, X=None, y=None):
        return self

    def _resolved_model(self) -> TransliterationModel:
        model = self.model
        if isinstance(model, HmmTransliterator):
            model._check_fitted()
            return model.model_
        if model is None:
            raise NotFittedError("NamedEntityTranslator needs a model")
        return model

    def _process(self, lines) -> list:
        """ProcessedSentence per line, with the settings checked and the
        model resolved once for all the lines."""
        fmt = self.annotation_format
        if not (isinstance(fmt, str) and fmt in ANNOTATION_FORMATS):
            raise bad_value("annotation_format", fmt)
        policy, top_k = check("fallback", self.fallback), check("top_k", self.top_k)
        model = self._resolved_model()
        return [
            process_sentence(*parse_annotations(line, fmt), self.kb, model, policy, top_k) for line in lines
        ]

    def process_line(self, line: str):
        """The ProcessedSentence, decisions included, for one annotated line."""
        return self._process([line])[0]

    def transform(self, X) -> list[str]:
        """Substituted sentence for each annotated line in X."""
        return [processed.substituted for processed in self._process(X)]
