import dataclasses
import re

import pytest

from ne_translit.decoder import Fallback
from ne_translit.errors import (
    ConfigError,
    CorpusError,
    NeTranslitError,
    NotFittedError,
    ScriptError,
    ZeroProbabilityError,
)
from ne_translit import estimator
from ne_translit.estimator import HmmTransliterator, NamedEntityTranslator
from ne_translit.kb import EntityCategory, KnowledgeBase, load_seed_kb
from ne_translit.model import TransliterationModel
from ne_translit.pipeline import Route, parse_annotations, process_sentence


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


@pytest.mark.parametrize(
    "cls, names",
    [
        (HmmTransliterator, ["smoothing_k", "em_iterations", "top_k", "fallback"]),
        (NamedEntityTranslator, ["model", "kb", "annotation_format", "fallback", "top_k"]),
    ],
)
def test_an_estimator_declares_its_parameters_as_dataclass_fields(cls, names):
    assert [f.name for f in dataclasses.fields(cls)] == names


def test_an_estimator_shows_its_parameters_and_compares_by_identity():
    assert HmmTransliterator() != HmmTransliterator()
    assert "top_k=3" in repr(HmmTransliterator(top_k=3))


def test_a_translator_repr_does_not_print_its_model(memorization_model):
    # a model's repr names the object, not its tables
    text = repr(NamedEntityTranslator(model=memorization_model, kb=load_seed_kb()))
    assert len(text) < 300
    assert "top_k=10" in text


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


def test_fit_on_an_unusable_corpus_raises_corpus_error():
    est = HmmTransliterator()
    with pytest.raises(CorpusError, match="^no usable entries in the corpus$"):
        est.fit([("X9y", "रा")])
    assert not hasattr(est, "model_")


def test_fit_lists_a_too_long_entry_in_skipped():
    long_pair = ("ka" * 10_000, "का" * 10_000)  # 20,000 letters a side
    est = HmmTransliterator(em_iterations=3).fit([("Rama", "रामा"), long_pair, ("Mara", "मारा")])
    assert est.skipped_ == (
        f"{long_pair[0]}\t{long_pair[1]}: too long: 10000 English and 10000 Hindi phonemes, limit 160",
    )
    assert est.n_entries_ == 2


def test_fit_takes_english_hindi_pairs_only():
    # a corpus category is not part of a training entry, and an item that
    # is no pair of non-empty strings is named before EM runs
    for item in [("Rama", "रामा", "PER"), ("Rama",), ("", "x"), (None, "x"), "ab"]:
        est = HmmTransliterator()
        message = f"item 1: expected an (english, hindi) pair of non-empty strings: {item!r}"
        with pytest.raises(CorpusError) as excinfo:
            est.fit([("Sita", "सीता"), item])
        assert str(excinfo.value) == message
        assert not hasattr(est, "model_")


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


@pytest.mark.parametrize(
    "method, args, message",
    [
        ("fit", ("Radhika\tराधिका",), "X must be an iterable of parallel entries, not a str"),
        ("predict", ("Radhika",), "X must be an iterable of names, not a str"),
        ("score", ("Ra", ["रा"]), "X must be an iterable of names, not a str"),
        ("score", (["Ra"], "रा"), "y must be an iterable of Hindi names, not a str"),
        ("score", ("Ra", "रा"), "y must be an iterable of Hindi names, not a str"),
        ("transform", ("[[Amar|PER]] x",), "X must be an iterable of annotated lines, not a str"),
    ],
    ids=["fit", "predict", "score-X", "score-y", "score-both", "transform"],
)
def test_an_estimator_rejects_a_bare_str(method, args, message, memorization_corpus):
    # iterated, a str is one item per character: predict("Radhika") would
    # decode seven one-letter names, and transform a line would give one
    # "sentence" per character (process_line takes one line by design)
    est = HmmTransliterator(smoothing_k=0.0).fit(memorization_corpus)
    target = NamedEntityTranslator(model=est) if method == "transform" else est
    with pytest.raises(TypeError) as excinfo:
        getattr(target, method)(*args)
    assert str(excinfo.value) == message


def test_transformer_substitutes_sentences(memorization_corpus):
    est = HmmTransliterator(smoothing_k=0.0).fit(memorization_corpus)
    translator = NamedEntityTranslator(model=est, kb=load_seed_kb())
    out = translator.fit().transform(
        ["[[India|LOC]] is a great country.", "[[Radhika|PER]] sang."]
    )
    assert out == ["भारत is a great country.", "राधिका sang."]


@pytest.mark.parametrize(
    "annotation_format, line",
    [
        ("inline", "[[India|LOC]] and [[Radhika|PER]] met [[Zebra|PER]]."),
        ("columnar", "India and Radhika met Zebra.\t0,5,LOC\t10,17,PER\t22,27,PER"),
    ],
)
def test_process_line_decides_as_process_sentence(annotation_format, line, memorization_model):
    kb = load_seed_kb()
    translator = NamedEntityTranslator(
        model=memorization_model, kb=kb, annotation_format=annotation_format, fallback="copy"
    )
    processed = translator.process_line(line)
    expected = process_sentence(
        *parse_annotations(line, annotation_format), kb, memorization_model, Fallback.COPY_SOURCE
    )
    decisions = [(d.route, d.output, d.score) for d in processed.decisions]
    assert decisions == [(d.route, d.output, d.score) for d in expected.decisions]
    assert [route for route, _, _ in decisions] == [Route.KB_HIT, Route.TRANSLITERATED, Route.FALLBACK]
    assert processed == expected
    assert processed.substituted == "भारत and राधिका met Zebra."


def test_process_line_names_a_bad_annotation_format(memorization_model):
    translator = NamedEntityTranslator(model=memorization_model, annotation_format="xml")
    with pytest.raises(ConfigError) as excinfo:
        translator.process_line("[[Radhika|PER]] sang.")
    assert str(excinfo.value) == "bad value for 'annotation_format': 'xml'"


def test_score_rejects_mismatched_lengths_and_an_empty_set(memorization_corpus):
    est = HmmTransliterator(smoothing_k=0.0).fit(memorization_corpus)
    first, second = memorization_corpus[:2]
    with pytest.raises(ValueError) as excinfo:
        est.score([first.english, second.english], [first.hindi])
    assert str(excinfo.value) == "X and y have different lengths"
    with pytest.raises(ValueError) as excinfo:
        est.score([], [])
    assert str(excinfo.value) == "cannot score an empty set"


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
    }


def bad_value(param, value):
    return re.escape(f"bad value for {param!r}: {value!r}")


@pytest.mark.parametrize("param, value", [("em_iterations", 3.7), ("em_iterations", 0), ("smoothing_k", "abc")])
def test_fit_names_a_bad_parameter(param, value, memorization_corpus):
    est = HmmTransliterator(**{param: value})  # stored unchecked, as scikit-learn does
    with pytest.raises(NeTranslitError, match=bad_value(param, value)):
        est.fit(memorization_corpus)
    assert not hasattr(est, "model_")


@pytest.mark.parametrize("k", [float("nan"), float("inf"), -1, True, False])
def test_fit_rejects_a_bad_smoothing_constant_before_em(k, memorization_corpus, monkeypatch):
    def no_em(*args):
        raise AssertionError("EM ran")

    monkeypatch.setattr(estimator, "align_corpus", no_em)
    est = HmmTransliterator(smoothing_k=k)
    with pytest.raises(ConfigError) as excinfo:
        est.fit(memorization_corpus)
    assert str(excinfo.value) == f"bad value for 'smoothing_k': {k!r}"
    assert not hasattr(est, "model_")


@pytest.mark.parametrize("param, value", [("top_k", 2.9), ("top_k", True), ("fallback", "bogus")])
def test_predict_names_a_bad_parameter(param, value, memorization_corpus):
    est = HmmTransliterator(smoothing_k=0.0).fit(memorization_corpus)
    est.set_params(**{param: value})
    with pytest.raises(NeTranslitError, match=bad_value(param, value)):
        est.predict(["Radhika"])


@pytest.mark.parametrize(
    "param, value",
    [("annotation_format", "bogus"), ("top_k", 2.9), ("fallback", "bogus")],
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
    # the parameter is gone, as --kb-persons is from the CLI.  What each of
    # its values did, the KB's rows do: radhika as a PER row gives what the
    # true values gave, and radhika as a LOC row only what the false ones gave
    with pytest.raises(TypeError, match="kb_persons"):
        NamedEntityTranslator(model=memorization_model, kb_persons=kb_persons)
    with pytest.raises(ValueError, match="invalid parameter 'kb_persons'"):
        NamedEntityTranslator().set_params(kb_persons=kb_persons)
    on = str(kb_persons).lower() == "true"
    kb = KnowledgeBase([("radhika", "राधा", EntityCategory.PERSON if on else EntityCategory.LOCATION)])
    translator = NamedEntityTranslator(model=memorization_model, kb=kb)
    assert translator.transform(["[[Radhika|PER]] sang."]) == [expected]
    route = translator.process_line("[[Radhika|PER]] sang.").decisions[0].route
    assert route is (Route.KB_HIT if on else Route.TRANSLITERATED)


def test_transform_checks_its_settings_once_per_call(memorization_model, monkeypatch):
    checked = []
    real = estimator.check
    monkeypatch.setattr(estimator, "check", lambda key, value: checked.append(key) or real(key, value))
    translator = NamedEntityTranslator(model=memorization_model)
    assert translator.transform(["[[Radhika|PER]] sang."] * 3) == ["राधिका sang."] * 3
    assert checked == ["fallback", "top_k"]
