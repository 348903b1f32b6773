import re

import pytest

from ne_translit.decoder import Fallback, decode_name, decode_or_fallback, transliterate
from ne_translit.errors import ConfigError
from ne_translit.kb import load_seed_kb
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


def test_a_bad_policy_is_an_error_whatever_the_text(memorization_model):
    # a KB hit, a sentence without spans and a name without letters reach
    # no letter run, and still check the policy
    for line in ("[[India|LOC]] is great.", "Nothing here."):
        with pytest.raises(TypeError, match="^not a Fallback: 'copy'$"):
            process_sentence(*parse_annotations(line), load_seed_kb(), memorization_model, "copy")
    with pytest.raises(TypeError, match="^not a Fallback: 'copy'$"):
        decode_name(memorization_model, "123", "copy")


@pytest.mark.parametrize(
    "top_k, error, message",
    [
        (True, TypeError, "^top_k must be an int, not bool$"),
        (False, TypeError, "^top_k must be an int, not bool$"),
        (1.0, TypeError, "^top_k must be an int, not float$"),
        ("1", TypeError, "^top_k must be an int, not str$"),
        (0, ValueError, "^top_k must be >= 1$"),
    ],
    ids=["True", "False", "1.0", "'1'", "0"],
)
def test_top_k_is_an_int_of_at_least_one(top_k, error, message, memorization_model):
    memo = dict(memorization_model.decode_memo)
    for word in ("Radhika", "Radhika"):  # the second from the memo, were it kept
        with pytest.raises(error, match=message):
            decode_or_fallback(memorization_model, word, Fallback.COPY_SOURCE, top_k)
    for text in ("Radhika", "123"):
        with pytest.raises(error, match=message):
            transliterate(memorization_model, text, Fallback.COPY_SOURCE, top_k)
    for line in ("[[India|LOC]] is great.", "[[Radhika|PER]] sang."):
        with pytest.raises(error, match=message):
            process_sentence(*parse_annotations(line), load_seed_kb(), memorization_model, Fallback.COPY_SOURCE, top_k)
    assert memorization_model.decode_memo == memo


def test_top_k_parses_to_a_plain_int(memorization_model):
    # the library takes only a plain int, so an int subclass that the CLI
    # and the estimators accept reaches it as one
    class Count(int):
        pass

    assert type(check("top_k", Count(3))) is int
    with pytest.raises(TypeError, match="^top_k must be an int, not Count$"):
        decode_or_fallback(memorization_model, "Radhika", Fallback.COPY_SOURCE, Count(3))
