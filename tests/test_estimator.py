import re

import pytest

from ne_translit.decoder import Fallback
from ne_translit.errors import NeTranslitError, NotFittedError, ScriptError, ZeroProbabilityError
from ne_translit import estimator
from ne_translit.estimator import HmmTransliterator, NamedEntityTranslator
from ne_translit.kb import EntityCategory, KBEntry, KnowledgeBase, load_seed_kb
from ne_translit.model import TransliterationModel
from ne_translit.pipeline import PipelineConfig


def test_get_params_returns_init_arguments():
    est = HmmTransliterator()
    assert est.get_params() == {
        "smoothing_k": 0.1,
        "em_iterations": 10,
        "top_k": 10,
        "fallback": Fallback.ERROR,
    }


def test_set_params_round_trip():
    est = HmmTransliterator()
    est.set_params(smoothing_k=0.0, top_k=3)
    assert est.smoothing_k == 0.0
    assert est.top_k == 3
    with pytest.raises(ValueError):
        est.set_params(made_up=1)


def test_clone_by_params_gives_an_equivalent_estimator():
    est = HmmTransliterator(smoothing_k=0.0, em_iterations=4)
    clone = HmmTransliterator(**est.get_params())
    assert clone.get_params() == est.get_params()


def test_predict_before_fit_raises():
    with pytest.raises(NotFittedError):
        HmmTransliterator().predict(["Amar"])


def test_fit_predict_memorizes(memorization_corpus):
    est = HmmTransliterator(smoothing_k=0.0)
    fitted = est.fit([(e.english, e.hindi) for e in memorization_corpus])
    assert fitted is est
    assert isinstance(est.model_, TransliterationModel)
    assert est.n_entries_ == 50
    words = [e.english for e in memorization_corpus]
    expected = [e.hindi for e in memorization_corpus]
    assert est.predict(words) == expected
    assert est.score(words, expected) == 1.0


def test_predict_zero_probability_word_falls_back(memorization_corpus):
    # unsmoothed, the model never saw the transitions of Rama
    pairs = [(e.english, e.hindi) for e in memorization_corpus]
    assert HmmTransliterator(smoothing_k=0.0, fallback="copy").fit(pairs).predict(["Radhika", "Rama"]) == [
        "राधिका",
        "Rama",
    ]
    with pytest.raises(ZeroProbabilityError, match="'Rama'"):
        HmmTransliterator(smoothing_k=0.0).fit(pairs).predict(["Rama"])


def test_fit_accepts_string_fallback(memorization_corpus):
    est = HmmTransliterator(smoothing_k=0.0, fallback="copy")
    est.fit(memorization_corpus)
    assert est.predict(["Zebra"]) == ["Zebra"]


def test_predict_falls_back_on_non_latin_letters(memorization_corpus):
    est = HmmTransliterator(smoothing_k=0.0, fallback="copy").fit(memorization_corpus)
    assert est.predict(["Radhika", "José"]) == ["राधिका", "José"]
    est.set_params(fallback="unk")
    assert est.predict(["José"]) == ["<unk>"]
    est.set_params(fallback="error")
    with pytest.raises(ScriptError):
        est.predict(["José"])


def test_transformer_substitutes_sentences(memorization_corpus):
    est = HmmTransliterator(smoothing_k=0.0).fit(memorization_corpus)
    translator = NamedEntityTranslator(model=est, kb=load_seed_kb())
    out = translator.fit().transform(
        ["[[India|LOC]] is a great country.", "[[Radhika|PER]] sang."]
    )
    assert out == ["भारत is a great country.", "राधिका sang."]


def test_transformer_needs_a_model():
    translator = NamedEntityTranslator()
    with pytest.raises(NotFittedError):
        translator.transform(["plain text"])


def test_transformer_params_protocol():
    translator = NamedEntityTranslator(top_k=4)
    params = translator.get_params()
    assert params["top_k"] == 4
    assert set(params) == {
        "model",
        "kb",
        "annotation_format",
        "fallback",
        "top_k",
        "kb_persons",
    }


def bad_value(param, value):
    return re.escape(f"bad value for {param!r}: {value!r}")


@pytest.mark.parametrize("param, value", [("em_iterations", 3.7), ("em_iterations", 0), ("smoothing_k", "abc")])
def test_fit_names_a_bad_parameter(param, value, memorization_corpus):
    est = HmmTransliterator(**{param: value})  # stored unchecked, as scikit-learn does
    with pytest.raises(NeTranslitError, match=bad_value(param, value)):
        est.fit(memorization_corpus)
    assert not hasattr(est, "model_")


@pytest.mark.parametrize("param, value", [("top_k", 2.9), ("top_k", True), ("fallback", "bogus")])
def test_predict_names_a_bad_parameter(param, value, memorization_corpus):
    est = HmmTransliterator(smoothing_k=0.0).fit(memorization_corpus)
    est.set_params(**{param: value})
    with pytest.raises(NeTranslitError, match=bad_value(param, value)):
        est.predict(["Radhika"])


@pytest.mark.parametrize(
    "param, value",
    [("annotation_format", "bogus"), ("top_k", 2.9), ("fallback", "bogus"), ("kb_persons", "maybe")],
)
def test_translator_names_a_bad_parameter_at_first_use(param, value, memorization_model):
    translator = NamedEntityTranslator(model=memorization_model, **{param: value})
    with pytest.raises(NeTranslitError, match=bad_value(param, value)):
        translator.transform(["[[Radhika|PER]] sang."])


@pytest.mark.parametrize(
    "kb_persons, expected",
    [("false", "राधिका sang."), ("Off", "राधिका sang."), (False, "राधिका sang."),
     ("true", "राधा sang."), (True, "राधा sang.")],
)
def test_translator_reads_kb_persons_as_the_cli_does(kb_persons, expected, memorization_model):
    kb = KnowledgeBase([KBEntry("radhika", "राधा", EntityCategory.PERSON)])
    translator = NamedEntityTranslator(model=memorization_model, kb=kb, kb_persons=kb_persons)
    assert translator.transform(["[[Radhika|PER]] sang."]) == [expected]


def test_transform_builds_one_config_per_call(memorization_model, monkeypatch):
    built = []
    monkeypatch.setattr(estimator, "PipelineConfig", lambda **kw: built.append(kw) or PipelineConfig(**kw))
    translator = NamedEntityTranslator(model=memorization_model)
    assert translator.transform(["[[Radhika|PER]] sang."] * 3) == ["राधिका sang."] * 3
    assert len(built) == 1
