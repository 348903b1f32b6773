import pytest

from ne_translit.decoder import Fallback
from ne_translit.errors import NotFittedError, ScriptError, ZeroProbabilityError
from ne_translit.estimator import HmmTransliterator, NamedEntityTranslator
from ne_translit.kb import load_seed_kb
from ne_translit.model import TransliterationModel


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
