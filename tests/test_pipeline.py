import random
import re

import pytest

from ne_translit.decoder import Fallback, UNK_OUTPUT, decode_name
from ne_translit.errors import AnnotationError, ScriptError, UnseenPhonemeError, ZeroProbabilityError
from ne_translit.kb import EntityCategory, KnowledgeBase, load_seed_kb
from ne_translit.pipeline import (
    EntityDecision,
    EntitySpan,
    Route,
    parse_annotations,
    parse_inline,
    process_sentence,
)

from helpers import CV_UNITS, reference_parse_inline, reference_transliterate_token

INDIA_LINE = "[[India|LOC]] is a great country."


def test_parse_inline_india():
    sentence, spans = parse_annotations(INDIA_LINE, "inline")
    assert sentence == "India is a great country."
    assert spans == [EntitySpan(0, 5, "India", EntityCategory.LOCATION)]


def test_parse_inline_no_markers():
    sentence, spans = parse_annotations("Nothing to see here.", "inline")
    assert sentence == "Nothing to see here."
    assert spans == []


def test_parse_inline_two_spans_offsets():
    sentence, spans = parse_annotations("[[A|PER]] met [[B|PER]]", "inline")
    assert sentence == "A met B"
    assert spans == [
        EntitySpan(0, 1, "A", EntityCategory.PERSON),
        EntitySpan(6, 7, "B", EntityCategory.PERSON),
    ]


@pytest.mark.parametrize(
    "line",
    [
        "[[India|LOC is great",  # unclosed
        "stray ]] marker",
        "[[India]] unmarked",  # missing category
        "[[India|CITY]] bad category",
        "[[a [[b|PER]]|ORG]]",  # nested
    ],
)
def test_parse_inline_rejects_malformed(line):
    with pytest.raises(AnnotationError):
        parse_annotations(line, "inline")


FUZZ_PIECES = [
    "[", "]", "|", "[[", "]]", "||", "PER", "loc", " Org ", "Person", "XYZ",
    "a", "Ra", " ", "é", "—", "|PER]]", "[[Ra|", "]]]", "[[Ra|PER]]", "[[é, a|Org]]",
]


def test_parse_inline_matches_the_character_scanner_on_fuzz():
    rng = random.Random(22)
    parsed = rejected = 0
    for _ in range(20000):
        line = "".join(rng.choice(FUZZ_PIECES) for _ in range(rng.randint(0, 10)))
        try:
            expected = reference_parse_inline(line)
        except AnnotationError as exc:
            with pytest.raises(AnnotationError) as got:
                parse_inline(line)
            assert str(got.value) == str(exc), line
            rejected += 1
        else:
            assert parse_inline(line) == expected, line
            parsed += expected[1] != []
    assert parsed > 1000 and rejected > 1000  # both outcomes well exercised


def test_parse_columnar():
    line = "India is a great country.\t0,5,LOC"
    sentence, spans = parse_annotations(line, "columnar")
    assert sentence == "India is a great country."
    assert spans == [EntitySpan(0, 5, "India", EntityCategory.LOCATION)]


@pytest.mark.parametrize(
    "line",
    [
        "short\t0,99,LOC",  # out of bounds
        "some text\t0,4,LOC\t2,6,ORG",  # overlap
        "some text\t5,2,LOC",  # reversed offsets
        "some text\tx,2,LOC",
        "some text\t0,4",
    ],
)
def test_parse_columnar_rejects_malformed(line):
    with pytest.raises(AnnotationError):
        parse_annotations(line, "columnar")


def test_parse_columnar_names_a_record_with_a_bad_category():
    with pytest.raises(AnnotationError) as excinfo:
        parse_annotations("some text\t0,4,XYZ", "columnar")
    assert str(excinfo.value) == "bad span record '0,4,XYZ': unknown entity category 'XYZ'"


def test_parse_annotations_names_an_unknown_format():
    with pytest.raises(ValueError) as excinfo:
        parse_annotations("[[India|LOC]]", "xml")
    assert str(excinfo.value) == "unknown annotation format 'xml'"


def test_kb_hit_route(india_model):
    kb = load_seed_kb()
    sentence, spans = parse_annotations(INDIA_LINE, "inline")
    processed = process_sentence(sentence, spans, kb, india_model)
    assert processed.substituted == "भारत is a great country."
    decision = processed.decisions[0]
    assert decision.route is Route.KB_HIT
    assert decision.output == "भारत"
    assert decision.score is None


def test_kb_miss_transliterates(india_model):
    sentence, spans = parse_annotations(INDIA_LINE, "inline")
    processed = process_sentence(sentence, spans, KnowledgeBase(), india_model)
    assert processed.substituted == "इंडिया is a great country."
    decision = processed.decisions[0]
    assert decision.route is Route.TRANSLITERATED
    assert decision.score is not None


def test_zero_spans_leaves_sentence_unchanged(india_model):
    processed = process_sentence("No entities at all.", [], load_seed_kb(), india_model)
    assert processed.substituted == "No entities at all."
    assert processed.decisions == ()


def counted_lookups(monkeypatch):
    """The (entity, category) of every KnowledgeBase.lookup call, as made."""
    calls = []
    lookup = KnowledgeBase.lookup

    def counting(self, entity, category):
        calls.append((entity, category))
        return lookup(self, entity, category)

    monkeypatch.setattr(KnowledgeBase, "lookup", counting)
    return calls


def test_person_skips_the_kb_by_default(memorization_model, monkeypatch):
    # a KB with no PER row, as the packaged seed is: a person name never
    # consults it, even where it holds the same name in another category
    kb = KnowledgeBase([("radhika", "गलत", EntityCategory.LOCATION)])
    calls = counted_lookups(monkeypatch)
    sentence, spans = parse_annotations("[[Radhika|PER]] sang in [[Radhika|LOC]].", "inline")
    processed = process_sentence(sentence, spans, kb, memorization_model)
    assert [d.route for d in processed.decisions] == [Route.TRANSLITERATED, Route.KB_HIT]
    assert processed.substituted == "राधिका sang in गलत."
    assert calls == [("Radhika", EntityCategory.LOCATION)]


def test_person_consults_a_kb_that_holds_a_person_row(memorization_model, monkeypatch):
    kb = KnowledgeBase([("radhika", "राधा", EntityCategory.PERSON)])
    calls = counted_lookups(monkeypatch)
    sentence, spans = parse_annotations("[[Radhika|PER]] met [[Kami|PER]].", "inline")
    processed = process_sentence(sentence, spans, kb, memorization_model)
    assert [d.route for d in processed.decisions] == [Route.KB_HIT, Route.TRANSLITERATED]
    assert processed.substituted.startswith("राधा met ")
    assert calls == [("Radhika", EntityCategory.PERSON), ("Kami", EntityCategory.PERSON)]


def test_multi_token_entity_joined_with_single_spaces(memorization_model):
    line = "[[Radhika   Kami|PER]] arrived."
    sentence, spans = parse_annotations(line, "inline")
    processed = process_sentence(sentence, spans, KnowledgeBase(), memorization_model)
    assert processed.substituted == "राधिका कामी arrived."


@pytest.mark.parametrize(
    "line, expected",
    [
        ("Hello[[ Radhika|PER]] sang", "Hello राधिका sang"),  # transliterated
        ("We saw [[ India |LOC]]!", "We saw  भारत !"),  # a KB hit
        ("[[\u2003Radhika   Kami\u3000|PER]] arrived.", "\u2003राधिका कामी\u3000 arrived."),
    ],
)
def test_whitespace_at_the_edges_of_a_span_is_kept(line, expected, memorization_model):
    kb = KnowledgeBase([("India", "भारत", EntityCategory.LOCATION)])
    sentence, spans = parse_annotations(line, "inline")
    processed = process_sentence(sentence, spans, kb, memorization_model)
    assert processed.substituted == expected
    # columnar spans take the same route
    columnar = sentence + "".join(f"\t{s.start},{s.end},{s.category.value}" for s in spans)
    assert process_sentence(*parse_annotations(columnar, "columnar"), kb, memorization_model) == processed


def test_a_blank_span_is_rejected(memorization_model):
    with pytest.raises(AnnotationError, match="^blank entity at offset 0$"):
        process_sentence(*parse_annotations("[[ |PER]] x", "inline"), None, memorization_model)
    with pytest.raises(AnnotationError, match="^blank entity at offset 2$"):
        parse_annotations("ab \u3000 c\t2,5,LOC", "columnar")


@pytest.mark.parametrize(
    "line, offset",
    [("[[Radhika\tRadhika|PER]] sang.", 0), ("We met [[\tRadhika|PER]].", 7), ("[[Radhika\t|LOC]]", 0)],
)
def test_a_tab_inside_a_span_is_rejected(line, offset, memorization_model):
    # a --decisions record is tab-separated, so a tab in its surface or
    # output column would shift every column after it
    with pytest.raises(AnnotationError, match=f"^tab inside the entity at offset {offset}$"):
        process_sentence(*parse_annotations(line, "inline"), KnowledgeBase(), memorization_model)


def test_fallback_route_on_unseen_phoneme(india_model):
    sentence, spans = parse_annotations("[[Zanzibar|LOC]] calls.", "inline")
    with pytest.raises(UnseenPhonemeError):
        process_sentence(sentence, spans, KnowledgeBase(), india_model)

    copied = process_sentence(sentence, spans, KnowledgeBase(), india_model, Fallback.COPY_SOURCE)
    assert copied.substituted == "Zanzibar calls."
    assert copied.decisions[0].route is Route.FALLBACK
    assert copied.decisions[0].score is None

    marked = process_sentence(sentence, spans, KnowledgeBase(), india_model, Fallback.UNK_MARKER)
    assert marked.substituted == f"{UNK_OUTPUT} calls."


def test_fallback_route_on_non_latin_letters(memorization_model):
    sentence, spans = parse_annotations("[[José|PER]] and [[Radhika|PER]] sang.", "inline")
    with pytest.raises(ScriptError):
        process_sentence(sentence, spans, KnowledgeBase(), memorization_model)

    copied = process_sentence(sentence, spans, KnowledgeBase(), memorization_model, Fallback.COPY_SOURCE)
    assert copied.substituted == "José and राधिका sang."
    assert [d.route for d in copied.decisions] == [Route.FALLBACK, Route.TRANSLITERATED]


def test_punctuation_inside_entities_is_preserved(memorization_model):
    sentence, spans = parse_annotations("[[Radhika's|PER]] book.", "inline")
    processed = process_sentence(sentence, spans, KnowledgeBase(), memorization_model, Fallback.COPY_SOURCE)
    # the Radhika run decodes; the apostrophe is copied; the bare s run is
    # unseen by the toy model and falls back to the source
    assert processed.substituted == "राधिका's book."
    assert processed.decisions[0].route is Route.FALLBACK


def test_non_entity_text_is_byte_identical(memorization_model, memorization_corpus):
    rng = random.Random(17)
    words = [e.english for e in memorization_corpus]
    for _ in range(25):
        left = "".join(rng.choice("abcdef .,!") for _ in range(rng.randint(0, 10)))
        right = "".join(rng.choice("xyz .,?") for _ in range(rng.randint(0, 10)))
        entity = rng.choice(words)
        sentence = f"{left}{entity}{right}"
        spans = [EntitySpan(len(left), len(left) + len(entity), entity, EntityCategory.PERSON)]
        processed = process_sentence(sentence, spans, None, memorization_model)
        assert processed.substituted.startswith(left)
        assert processed.substituted.endswith(right)
        assert len(processed.decisions) == len(spans)


def test_route_is_kb_hit_iff_lookup_succeeds(memorization_model, memorization_corpus):
    kb = KnowledgeBase(
        [
            (entry.english.casefold(), "ज्ञात", EntityCategory.ORGANIZATION)
            for entry in memorization_corpus[:10]
        ]
    )
    for entry in memorization_corpus[:20]:
        sentence = f"{entry.english} works."
        spans = [EntitySpan(0, len(entry.english), entry.english, EntityCategory.ORGANIZATION)]
        processed = process_sentence(sentence, spans, kb, memorization_model)
        decision = processed.decisions[0]
        expected_hit = kb.lookup(entry.english, EntityCategory.ORGANIZATION) is not None
        assert (decision.route is Route.KB_HIT) == expected_hit


def test_decisions_come_back_in_span_order(memorization_model):
    line = "[[Radhika|PER]] met [[Rama|PER]] and [[Kama|PER]]."
    sentence, spans = parse_annotations(line, "inline")
    processed = process_sentence(sentence, spans, None, memorization_model, Fallback.COPY_SOURCE)
    assert [d.span for d in processed.decisions] == spans
    # the unsmoothed model gives Rama and Kama probability 0: they fall back
    assert [d.route for d in processed.decisions] == [Route.TRANSLITERATED, Route.FALLBACK, Route.FALLBACK]
    assert processed.substituted == "राधिका met Rama and Kama."
    with pytest.raises(ZeroProbabilityError, match="'Rama'"):
        process_sentence(sentence, spans, None, memorization_model)


def test_span_validation_rejects_bad_spans(india_model):
    with pytest.raises(AnnotationError):
        process_sentence(
            "abc", [EntitySpan(0, 9, "abc", EntityCategory.PERSON)], None, india_model
        )
    with pytest.raises(AnnotationError):
        process_sentence(
            "abcdef",
            [
                EntitySpan(0, 4, "abcd", EntityCategory.PERSON),
                EntitySpan(2, 6, "cdef", EntityCategory.PERSON),
            ],
            None,
            india_model,
        )
    with pytest.raises(AnnotationError):
        process_sentence(
            "abcdef", [EntitySpan(0, 3, "xxx", EntityCategory.PERSON)], None, india_model
        )


def test_decision_score_invariants():
    span = EntitySpan(0, 1, "a", EntityCategory.PERSON)
    with pytest.raises(ValueError):
        EntityDecision(span, Route.KB_HIT, "x", score=1.0)
    with pytest.raises(ValueError):
        EntityDecision(span, Route.TRANSLITERATED, "x", score=None)


@pytest.mark.parametrize("fallback", list(Fallback))
def test_letter_runs_match_the_character_scanner(fallback, memorization_model):
    # CV units decode; "zu" is an unseen phoneme; é is a letter outside the
    # Latin script; digits, apostrophes, hyphens and dashes are not letters.
    pieces = [english for english, _ in CV_UNITS] + ["zu", "é", "7", "'", "-", "—"]
    rng = random.Random(31)
    outcomes = set()
    for _ in range(400):
        token = "".join(rng.choice(pieces) for _ in range(rng.randint(1, 6)))
        try:
            expected = reference_transliterate_token(token, memorization_model, fallback, 10)
        except (UnseenPhonemeError, ScriptError, ZeroProbabilityError) as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                decode_name(memorization_model, token, fallback, 10)
            outcomes.add(type(exc))
            continue
        output, score, fell_back = expected
        assert decode_name(memorization_model, token, fallback, 10)[:2] == (output, None if fell_back else score)
        outcomes.add(fell_back)
    if fallback is Fallback.ERROR:
        assert outcomes == {False, UnseenPhonemeError, ScriptError, ZeroProbabilityError}
    else:
        assert outcomes == {False, True}
