"""Acceptance suite: every release-gating criterion, one test each.

Each criterion runs at its stated tolerance and time budget; the conftest
hook prints one pass/fail line per criterion.  The headline end-to-end
accuracy figure of the original study is deliberately NOT among them:
the 29,283-entity evaluation set and its trained tables were never
distributed, so only the report arithmetic over the published counts is
checkable (criterion 8); the rest of the suite substitutes oracle- and
property-based checks for every component.
"""

import math
import random
import time
from pathlib import Path

from ne_translit.decoder import decode_name, viterbi
from ne_translit.estimator import HmmTransliterator
from ne_translit.evaluation import CategoryScore, GoldRecord, evaluate
from ne_translit.kb import EntityCategory, KnowledgeBase, load_seed_kb
from ne_translit.model import BOS, EOS, estimate, load_model, save_model
from ne_translit.phonology import phonify_devanagari, phonify_latin
from ne_translit.pipeline import Route, parse_annotations, process_sentence

from conftest import train_model
from helpers import count_tables, exhaustive_decode, build_random_model, random_aligned_corpus

TABLE_GOLDENS = [
    ("Amar", ["A", "ma", "r"], "अमर", ["अ", "म", "र"]),
    ("Radhika", ["Ra", "dhi", "ka"], "राधिका", ["रा", "धि", "का"]),
    ("Anshika", ["An", "shi", "ka"], "अंशीका", ["अं", "शी", "का"]),
    ("Odisha", ["O", "di", "sha"], "ओडीशा", ["ओ", "डी", "शा"]),
    ("Cherapunji", ["Che", "ra", "pun", "ji"], "चेरापुंजी", ["चे", "रा", "पुं", "जी"]),
]


def test_criterion_1_segmentation_goldens_byte_exact():
    start = time.perf_counter()
    for english, e_parts, hindi, h_parts in TABLE_GOLDENS:
        assert phonify_latin(english).surfaces() == e_parts
        assert phonify_devanagari(hindi).surfaces() == h_parts
    assert time.perf_counter() - start < 1.0


def test_criterion_2_unsmoothed_estimation_matches_counting_oracle():
    start = time.perf_counter()
    rng = random.Random(801)
    for _ in range(20):
        corpus = random_aligned_corpus(rng, max_pairs=100)
        model = estimate(corpus, smoothing_k=0.0)
        emission, transition = count_tables(corpus)
        assert set(model.emission) == set(emission)
        for h, row in emission.items():
            assert model.emission[h] == row
        assert set(model.transition) == set(transition)
        for prev, row in transition.items():
            assert model.transition[prev] == row
    assert time.perf_counter() - start < 5.0


def _assert_rows_normalized(model):
    e_width = len(model.e_vocab)
    t_width = len(model.h_vocab) + 1
    for h, row in model.emission.items():
        total = sum(row.values()) + (e_width - len(row)) * model.emission_floor[h]
        assert abs(total - 1.0) <= 1e-9
    for prev, row in model.transition.items():
        total = sum(row.values()) + (t_width - len(row)) * model.transition_floor[prev]
        assert abs(total - 1.0) <= 1e-9


def test_criterion_3_row_normalization_and_roundtrip_identity(tmp_path, memorization_corpus):
    start = time.perf_counter()
    for k in (0.0, 0.25):
        model = train_model(memorization_corpus[:20], smoothing_k=k)
        _assert_rows_normalized(model)
        path = tmp_path / f"model_{k}.txt"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded == model
        _assert_rows_normalized(loaded)
    assert time.perf_counter() - start < 1.0


def test_criterion_4_viterbi_matches_exhaustive_search():
    start = time.perf_counter()
    rng = random.Random(802)
    for trial in range(200):
        model = build_random_model(rng, discrete=trial % 2 == 1)
        keys = [rng.choice(sorted(model.e_vocab)) for _ in range(rng.randint(1, 6))]
        decoding = viterbi(model, keys, top_k=5)
        oracle_seq, oracle_score = exhaustive_decode(model, keys, top_k=5)
        assert decoding.hindi_sequence == oracle_seq
        assert decoding.score == oracle_score
        assert decoding.english == tuple(keys)
    assert time.perf_counter() - start < 10.0


def test_criterion_5_position_score_equals_factor_product():
    start = time.perf_counter()
    rng = random.Random(803)
    while True:  # draw until the random corpus covers exactly 5 Hindi phonemes
        corpus = random_aligned_corpus(rng, max_pairs=60)
        model = estimate(corpus, smoothing_k=0.5)
        if len(model.h_vocab) == 5:
            break
    sweep_h = sorted(model.h_vocab)
    sweep_e = sorted(model.e_vocab) + ["never-seen"]
    for h_prev in sweep_h + [BOS]:
        for h in sweep_h:
            for h_next in sweep_h + [EOS]:
                for e in sweep_e:
                    product = (
                        model.emission_prob(h, e)
                        * model.transition_prob(h_prev, h)
                        * model.transition_prob(h, h_next)
                    )
                    got = model.position_score(h_prev, h, h_next, e)
                    assert math.isclose(got, product, rel_tol=1e-15)
    assert time.perf_counter() - start < 1.0


def test_criterion_6_kb_routing_and_transliterated_fallthrough(india_model):
    start = time.perf_counter()
    kb = load_seed_kb()
    cases = [
        ("[[Indian Institute of Technology|ORG]] opened.", "भारतीय प्रौद्योगिकी संस्थान opened."),
        ("[[Finance Ministry|ORG]] said so.", "वित्त मंत्रालय said so."),
        ("[[India|LOC]] is a great country.", "भारत is a great country."),
    ]
    for line, expected in cases:
        sentence, spans = parse_annotations(line, "inline")
        processed = process_sentence(sentence, spans, kb, india_model)
        assert processed.substituted == expected
        assert processed.decisions[0].route is Route.KB_HIT

    sentence, spans = parse_annotations("[[India|LOC]] is a great country.", "inline")
    processed = process_sentence(sentence, spans, KnowledgeBase(), india_model)
    assert processed.substituted == "इंडिया is a great country."
    assert processed.decisions[0].route is Route.TRANSLITERATED
    assert time.perf_counter() - start < 1.0


def test_criterion_7_memorization_end_to_end(memorization_corpus):
    start = time.perf_counter()
    est = HmmTransliterator(smoothing_k=0.0).fit(memorization_corpus)
    hits = sum(
        decode_name(est.model_, entry.english)[0] == entry.hindi for entry in memorization_corpus
    )
    assert hits == 50
    assert time.perf_counter() - start < 5.0


def test_criterion_8_accuracy_report_matches_reference_counts():
    reference = [
        (EntityCategory.PERSON, 11713, 11697, "0.99863"),
        (EntityCategory.LOCATION, 7320, 7293, "0.99631"),
        (EntityCategory.ORGANIZATION, 10250, 10153, "0.99053"),
    ]
    gold, system = [], []
    for category, total, correct, _ in reference:
        for i in range(total):
            gold.append(GoldRecord(f"{category.value}{i}", category, "सही"))
            system.append("सही" if i < correct else "गलत")
    report = evaluate(gold, system)
    for category, total, correct, accuracy in reference:
        score = report.score_for(category)
        assert (score.total, score.correct) == (total, correct)
        assert score.accuracy_text == accuracy
    assert (report.overall.total, report.overall.correct) == (29283, 29143)
    assert report.overall.accuracy_text == "0.99521"
    # the same arithmetic straight from the counts
    assert CategoryScore(29283, 29143).accuracy_text == "0.99521"


def test_criterion_9_headline_accuracy_declared_not_reproducible():
    """The 99.52% overall accuracy over 29,283 real entities depends on a
    private evaluation set and trained tables that were never distributed;
    it is not reproduced here.  Criteria 1-8 substitute oracle- and
    property-based checks, and criterion 8 verifies only the report
    arithmetic over the published counts.  The README must say so."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    assert "29,283" in text
    assert "not reproducible" in text
