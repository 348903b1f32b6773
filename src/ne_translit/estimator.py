"""Estimator-style front door following the scikit-learn conventions.

HmmTransliterator wraps the whole training path (phonify, EM-align,
estimate) behind fit() and decoding behind predict(); fitted state lives
in trailing-underscore attributes.  get_params/set_params mirror the
scikit-learn protocol so the classes drop into tooling that clones and
grid-searches estimators, without this package depending on scikit-learn.
"""

from __future__ import annotations

import inspect

from .alignment import ParallelEntry, align_corpus
from .decoder import Fallback, transliterate
from .errors import NotFittedError
from .kb import KnowledgeBase, normalize
from .model import TransliterationModel, estimate
from .pipeline import PipelineConfig, parse_annotations, process_sentence


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


def _coerce_fallback(value) -> Fallback:
    return value if isinstance(value, Fallback) else Fallback(str(value))


def _coerce_entries(X) -> list[ParallelEntry]:
    entries = []
    for item in X:
        if isinstance(item, ParallelEntry):
            entries.append(item)
        else:
            entries.append(ParallelEntry(*item))
    return entries


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
        """X: parallel entries, as ParallelEntry or (english, hindi) pairs."""
        entries = _coerce_entries(X)
        self.alignment_, usable, skipped = align_corpus(entries, int(self.em_iterations))
        self.model_: TransliterationModel = estimate(usable, float(self.smoothing_k))
        self.skipped_ = tuple(skipped)
        self.n_entries_ = len(usable)
        return self

    def _check_fitted(self):
        if not hasattr(self, "model_"):
            raise NotFittedError(f"{type(self).__name__} must be fitted before use")

    def predict(self, X) -> list[str]:
        """Hindi string for each English word in X."""
        self._check_fitted()
        policy = _coerce_fallback(self.fallback)
        return [transliterate(self.model_, word, policy, int(self.top_k)) for word in X]

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
    persons too when kb_persons is set).
    """

    def __init__(
        self,
        model=None,
        kb: KnowledgeBase | None = None,
        annotation_format: str = "inline",
        fallback=Fallback.ERROR,
        top_k: int = 10,
        kb_persons: bool = False,
    ):
        self.model = model
        self.kb = kb
        self.annotation_format = annotation_format
        self.fallback = fallback
        self.top_k = top_k
        self.kb_persons = kb_persons

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

    def _config(self) -> PipelineConfig:
        return PipelineConfig(
            fallback=_coerce_fallback(self.fallback),
            top_k=int(self.top_k),
            kb_persons=bool(self.kb_persons),
        )

    def process_line(self, line: str):
        sentence, spans = parse_annotations(line, self.annotation_format)
        return process_sentence(sentence, spans, self.kb, self._resolved_model(), self._config())

    def transform(self, X) -> list[str]:
        """Substituted sentence for each annotated line in X."""
        return [self.process_line(line).substituted for line in X]
