import re

import pytest

from ne_translit.decoder import Fallback, decode_or_fallback, transliterate
from ne_translit.errors import ConfigError
from ne_translit.pipeline import parse_annotations, process_sentence
from ne_translit.settings import SETTINGS, check


@pytest.mark.parametrize(
    "key, value, parsed",
    [
        ("top_k", "3", 3),
        ("top_k", 3, 3),
        ("em_iterations", " 12 ", 12),
        ("fallback", "copy", Fallback.COPY_SOURCE),
        ("fallback", Fallback.UNK_MARKER, Fallback.UNK_MARKER),
        ("smoothing_k", "0.5", 0.5),
        ("smoothing_k", 0, 0.0),
    ],
)
def test_check_takes_the_text_or_a_typed_value(key, value, parsed):
    result = check(key, value)
    assert (result, type(result)) == (parsed, type(parsed))


@pytest.mark.parametrize(
    "key, value",
    [
        ("top_k", 2.9),
        ("top_k", True),
        ("top_k", "0"),
        ("top_k", None),
        ("em_iterations", 3.7),
        ("kb_persons", 1),
        ("kb_persons", "maybe"),
        ("kb_persons", None),
        ("fallback", "bogus"),
        ("smoothing_k", "abc"),
        ("smoothing_k", None),
    ],
)
def test_check_names_the_key_of_a_bad_value(key, value):
    # kb_persons is no longer a setting, so check names it as an unknown
    # key, as a config file's line would (the KB's rows decide person lookup)
    with pytest.raises(ConfigError) as excinfo:
        check(key, value)
    expected = f"bad value for {key!r}: {value!r}" if key in SETTINGS else f"unknown key {key!r}"
    assert str(excinfo.value) == expected


def test_settings_has_four_keys():
    assert list(SETTINGS) == ["smoothing_k", "em_iterations", "top_k", "fallback"]


@pytest.mark.parametrize("policy", ["copy", "COPY_SOURCE", None])
def test_a_policy_that_is_not_a_fallback_is_a_type_error(policy, memorization_model):
    # check parses a policy's text at the CLI and in the estimators; the
    # library functions take a Fallback member, so the text is not read as
    # some policy other than the one it names
    message = f"^not a Fallback: {re.escape(repr(policy))}$"
    # a word that decodes, one with an unseen phoneme and one outside the
    # Latin script; the second round finds each in the memo
    for word, decodes in (("Radhika", True), ("Zzyx", False), ("José", False)):
        for _ in range(2):
            with pytest.raises(TypeError, match=message):
                decode_or_fallback(memorization_model, word, policy)
            with pytest.raises(TypeError, match=message):
                transliterate(memorization_model, word, policy)
            decoding = decode_or_fallback(memorization_model, word, Fallback.COPY_SOURCE)[1]
            assert (decoding is not None) == decodes
        sentence, spans = parse_annotations(f"[[{word}|PER]] sang.", "inline")
        with pytest.raises(TypeError, match=message):
            process_sentence(sentence, spans, None, memorization_model, policy)
