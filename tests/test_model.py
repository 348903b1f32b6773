import dataclasses
import itertools
import math
import random

import pytest

from ne_translit.alignment import AlignedPair
from ne_translit.errors import ModelFormatError, ModelValidationError, ModelVersionError
from ne_translit.model import (
    BOS,
    EOS,
    ROW_SUM_TOLERANCE,
    UNK,
    TransliterationModel,
    estimate,
    load_model,
    save_model,
)

from helpers import build_random_model, count_tables, random_aligned_corpus


def test_single_entry_unsmoothed(single_entry_model):
    m = single_entry_model
    assert m.emission_prob("अ", "a") == 1.0
    assert m.transition_prob("अ", "म") == 1.0
    assert m.transition_prob(BOS, "अ") == 1.0
    assert m.transition_prob("र", EOS) == 1.0


def test_unseen_pair_unsmoothed_is_zero(single_entry_model):
    assert single_entry_model.emission_prob("अ", "zz") == 0.0
    assert single_entry_model.transition_prob("अ", "र") == 0.0


@pytest.mark.parametrize("source", ["घ", EOS])
def test_an_unknown_source_is_a_key_error(single_entry_model, source):
    with pytest.raises(KeyError):
        single_entry_model.emission_prob(source, "a")
    with pytest.raises(KeyError):
        single_entry_model.transition_prob(source, "अ")


def test_emission_ratio_from_mixed_counts():
    corpus = [[AlignedPair("ra", "रा"), AlignedPair("ta", "रा")]]
    m = estimate(corpus, smoothing_k=0.0)
    assert m.emission_prob("रा", "ra") == 0.5
    assert m.emission_prob("रा", "ta") == 0.5


def test_smoothed_values_match_the_additive_formula():
    pairs = [AlignedPair("a", "अ"), AlignedPair("ma", "म"), AlignedPair("r", "र")]
    m = estimate([pairs], smoothing_k=1.0)
    # |E| = 3: seen (1+1)/(1+3), unseen (0+1)/(1+3)
    assert m.emission_prob("अ", "a") == pytest.approx(0.5)
    assert m.emission_prob("अ", "zz") == pytest.approx(0.25)
    # |H|+1 = 4: seen (1+1)/(1+4), unseen (0+1)/(1+4)
    assert m.transition_prob("अ", "म") == pytest.approx(0.4)
    assert m.transition_prob("अ", "र") == pytest.approx(0.2)
    assert m.transition_prob("र", EOS) == pytest.approx(0.4)


def test_unsmoothed_estimation_matches_direct_counting():
    rng = random.Random(21)
    for _ in range(20):
        corpus = random_aligned_corpus(rng, max_pairs=100)
        m = estimate(corpus, smoothing_k=0.0)
        emission, transition = count_tables(corpus)
        assert set(m.emission) == set(emission)
        for h, row in emission.items():
            assert set(m.emission[h]) == set(row)
            for e, p in row.items():
                assert m.emission_prob(h, e) == p
        assert set(m.transition) == set(transition)
        for prev, row in transition.items():
            for nxt, p in row.items():
                assert m.transition_prob(prev, nxt) == p


def test_rows_normalize_after_estimation():
    rng = random.Random(22)
    for k in (0.0, 0.1, 1.0):
        corpus = random_aligned_corpus(rng, max_pairs=60)
        m = estimate(corpus, smoothing_k=k)
        for h in m.h_vocab:
            assert abs(sum(m.emission_prob(h, e) for e in m.e_vocab) - 1.0) <= ROW_SUM_TOLERANCE
        for prev in m.transition:
            assert abs(sum(m.transition_prob(prev, h) for h in m.h_vocab | {EOS}) - 1.0) <= ROW_SUM_TOLERANCE


def test_boundary_symbols_never_reversed():
    rng = random.Random(23)
    corpus = random_aligned_corpus(rng, max_pairs=50)
    m = estimate(corpus, smoothing_k=0.3)
    assert EOS not in m.transition
    for row in m.transition.values():
        assert BOS not in row


def test_position_score_is_the_product_of_its_factors(single_entry_model):
    m = single_entry_model
    assert m.position_score(BOS, "अ", "म", "a") == 1.0
    for h_prev in list(m.h_vocab) + [BOS]:
        for h in m.h_vocab:
            for h_next in list(m.h_vocab) + [EOS]:
                for e in list(m.e_vocab) + ["zz"]:
                    expected = (
                        m.emission_prob(h, e)
                        * m.transition_prob(h_prev, h)
                        * m.transition_prob(h, h_next)
                    )
                    assert m.position_score(h_prev, h, h_next, e) == expected


def test_estimate_rejects_bad_input():
    with pytest.raises(ValueError):
        estimate([], smoothing_k=0.0)
    with pytest.raises(ValueError):
        estimate([[AlignedPair("a", "अ")]], smoothing_k=-0.5)


@pytest.mark.parametrize("k", [math.nan, math.inf])
def test_estimate_rejects_a_smoothing_constant_that_is_not_finite(k):
    with pytest.raises(ValueError) as excinfo:
        estimate([[AlignedPair("a", "अ")]], smoothing_k=k)
    assert str(excinfo.value) == "smoothing constant must be a finite number >= 0"


@pytest.mark.parametrize("k", ["nan", "inf"])
def test_load_rejects_a_smoothing_constant_that_is_not_finite(k, single_entry_model, tmp_path):
    path = tmp_path / "model.txt"
    save_model(single_entry_model, path)
    text = path.read_text(encoding="utf-8").replace("smoothing_k\t0\n", f"smoothing_k\t{k}\n")
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ModelValidationError) as excinfo:
        load_model(path)
    assert str(excinfo.value) == f"{path}: smoothing constant must be a finite number >= 0"


def test_save_load_round_trip_unsmoothed(single_entry_model, tmp_path):
    path = tmp_path / "model.txt"
    save_model(single_entry_model, path)
    assert load_model(path) == single_entry_model


def test_save_load_round_trip_random_models(tmp_path):
    rng = random.Random(27)
    path = tmp_path / "model.txt"
    for _ in range(10):
        m = build_random_model(rng, n_h=rng.randint(1, 8), n_e=rng.randint(1, 8))
        save_model(m, path)
        assert load_model(path) == m


def test_save_load_round_trip_smoothed(tmp_path):
    rng = random.Random(24)
    m = estimate(random_aligned_corpus(rng, max_pairs=40), smoothing_k=0.357)
    path = tmp_path / "model.txt"
    save_model(m, path)
    loaded = load_model(path)
    assert loaded == m


@pytest.mark.parametrize("smoothing_k", [0.0, 0.25])
def test_log_transition_rows_are_the_logs_of_transition_prob(smoothing_k, tmp_path):
    rng = random.Random(26)
    m = estimate(random_aligned_corpus(rng, max_pairs=60), smoothing_k=smoothing_k)
    path = tmp_path / "model.txt"
    save_model(m, path)
    loaded = load_model(path)
    for name in ("decode_table", "decode_memo"):
        assert name not in vars(loaded)  # built on first use, not by the loader
    rows = loaded.decode_table.rows
    sources = sorted(m.h_vocab) + [BOS]
    targets = sorted(m.h_vocab) + [EOS]
    assert len(rows) == len(sources)
    assert all(len(row) == len(targets) for row in rows)
    zeros = 0
    for i, source in enumerate(sources):
        for j, h in enumerate(targets):
            p = m.transition_prob(source, h)
            assert rows[i][j] == (math.log(p) if p > 0.0 else float("-inf"))
            zeros += p == 0.0
    assert (zeros > 0) == (smoothing_k == 0.0)


def test_a_model_without_a_transition_row_cannot_be_built():
    # so decode_table needs no row for a source without one
    with pytest.raises(ModelValidationError) as excinfo:
        TransliterationModel(
            emission={"अ": {"a": 1.0}},
            transition={},
            emission_floor={"अ": 0.0},
            transition_floor={},
            smoothing_k=0.0,
        )
    assert str(excinfo.value) == "transition rows must cover the Hindi vocabulary plus BOS"


def test_a_model_without_a_hindi_phoneme_cannot_be_built():
    # its one transition row is valid, but the model can decode nothing
    with pytest.raises(ModelValidationError) as excinfo:
        TransliterationModel(
            emission={},
            transition={BOS: {EOS: 1.0}},
            emission_floor={},
            transition_floor={BOS: 0.0},
            smoothing_k=0.0,
        )
    assert str(excinfo.value) == "a model needs at least one Hindi phoneme"


# the reserved symbols, then what a model file cannot carry: whitespace
# anywhere (U+3000 too) and '#'
@pytest.mark.parametrize("symbol", ["", BOS, EOS, UNK, "#a", "a\tb", "a\nb", " a", "a b", "a\u3000"])
@pytest.mark.parametrize("side", ["hindi", "english"])
def test_no_phoneme_is_empty_or_a_reserved_symbol(side, symbol):
    # rows, floors and sums are all consistent: only the symbol is wrong
    h, e = (symbol, "a") if side == "hindi" else ("अ", symbol)
    with pytest.raises(ModelValidationError) as excinfo:
        TransliterationModel(
            emission={h: {e: 1.0}},
            transition={BOS: {h: 1.0}, h: {EOS: 1.0}},
            emission_floor={h: 0.0},
            transition_floor={BOS: 0.0, h: 0.0},
            smoothing_k=0.0,
        )
    assert str(excinfo.value) == f"{symbol!r} cannot be a phoneme"


def test_estimate_rejects_an_empty_phoneme():
    with pytest.raises(ModelValidationError) as excinfo:
        estimate([[AlignedPair("", "अ")]])
    assert str(excinfo.value) == "'' cannot be a phoneme"


def test_a_model_stores_its_tables_and_derives_its_vocabularies(single_entry_model):
    m = single_entry_model
    fields = [f.name for f in dataclasses.fields(m)]
    assert fields == ["emission", "transition", "emission_floor", "transition_floor", "smoothing_k"]
    assert (m.h_vocab, m.e_vocab) == ({"अ", "म", "र"}, {"a", "ma", "r"})
    with pytest.raises(AttributeError):
        m.h_vocab = frozenset()
    with pytest.raises(ModelValidationError) as excinfo:
        dataclasses.replace(m, emission_floor={})
    assert str(excinfo.value) == "emission floors must mirror emission rows"


def test_symbol_ids_follow_code_point_order():
    pairs = [AlignedPair("a", h) for h in ("क्ष", "आ", "b", "अं", "ज़", "अ", "क")]
    m = estimate([pairs], smoothing_k=0.1)
    symbols = m.decode_table.symbols
    assert symbols == tuple(sorted(m.h_vocab))
    for (i, a), (j, b) in itertools.product(enumerate(symbols), repeat=2):
        assert (i < j) == (a < b)
    # EOS takes the next id: the last entry of every row
    assert all(len(row) == len(symbols) + 1 for row in m.decode_table.rows)
    assert m.decode_table.rows[-1][-1] == math.log(m.transition_prob(BOS, EOS))


def test_save_is_deterministic(tmp_path):
    rng = random.Random(25)
    m = estimate(random_aligned_corpus(rng, max_pairs=40), smoothing_k=0.1)
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    save_model(m, a)
    save_model(m, b)
    assert a.read_bytes() == b.read_bytes()


def test_load_rejects_truncated_file(single_entry_model, tmp_path):
    path = tmp_path / "model.txt"
    save_model(single_entry_model, path)
    text = path.read_text(encoding="utf-8")
    cut = text.index("[transition]")
    path.write_text(text[:cut], encoding="utf-8")
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_load_rejects_garbage_with_line_number(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text("[meta]\nversion\t1\nsmoothing_k\t0\nnot a row\n", encoding="utf-8")
    with pytest.raises(ModelFormatError) as excinfo:
        load_model(path)
    assert "line 4" in str(excinfo.value)


def test_load_rejects_unknown_version(single_entry_model, tmp_path):
    path = tmp_path / "model.txt"
    save_model(single_entry_model, path)
    text = path.read_text(encoding="utf-8").replace("version\t1", "version\t99")
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ModelVersionError):
        load_model(path)


def test_load_rejects_row_that_does_not_sum_to_one(single_entry_model, tmp_path):
    path = tmp_path / "model.txt"
    save_model(single_entry_model, path)
    text = path.read_text(encoding="utf-8").replace("अ\ta\t1\n", "अ\ta\t0.5\n")
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ModelValidationError):
        load_model(path)


# One case per load_model rejection: the model of (a,अ) (ma,म) (r,र) saved
# with smoothing_k, then line `lineno` (which must read `old`) replaced by
# `new`.  "{path}" in the message stands for the model file.
LOAD_REJECTIONS = [
    (0.0, 1, "[meta]", "meta", ModelFormatError, "{path}: line 1: content before any section header"),
    (0.0, 2, "version\t1", "version 1", ModelFormatError, "{path}: line 2: expected key<TAB>value"),
    (0.0, 3, "smoothing_k\t0", "smoothing_k\t0\nsmoothing_k\t0.5", ModelFormatError,
     "{path}: line 4: duplicate meta key 'smoothing_k'"),
    (0.0, 8, "म\tma\t1", "म\tma", ModelFormatError,
     "{path}: line 8: expected source<TAB>target<TAB>probability"),
    (0.0, 8, "म\tma\t1", "म\tma\tabc", ModelFormatError, "{path}: line 8: bad probability 'abc'"),
    (0.5, 9, "म\t<unk>\t0.20000000000000001", "अ\t<unk>\t0.20000000000000001", ModelFormatError,
     "{path}: line 9: duplicate floor for 'अ'"),
    (0.0, 8, "म\tma\t1", "अ\ta\t1", ModelFormatError, "{path}: line 8: duplicate row ('अ', 'a')"),
    (0.0, 9, "र\tr\t1", "<s>\tr\t1", ModelValidationError, "{path}: '<s>' cannot be a phoneme"),
    (0.0, 5, "h_vocab_size\t3", "", ModelFormatError, "{path}: missing meta key 'h_vocab_size'"),
    (0.0, 4, "e_vocab_size\t3", "e_vocab_size\tthree", ModelFormatError, "{path}: malformed meta values"),
    (0.0, 6, "[emission]", "[transition]", ModelValidationError, "{path}: a model needs at least one Hindi phoneme"),
    (0.0, 2, "version\t1", "version\t99", ModelVersionError, "{path}: unsupported model version '99'"),
    (0.0, 3, "smoothing_k\t0", "smoothing_k\t-1", ModelValidationError,
     "{path}: smoothing constant must be a finite number >= 0"),
    (0.0, 4, "e_vocab_size\t3", "e_vocab_size\t4", ModelValidationError,
     "{path}: vocabulary sizes in [meta] do not match the table rows"),
    (0.0, 5, "h_vocab_size\t3", "h_vocab_size\t2", ModelValidationError,
     "{path}: vocabulary sizes in [meta] do not match the table rows"),
    (0.5, 11, "र\t<unk>\t0.20000000000000001", "घ\t<unk>\t0.20000000000000001", ModelValidationError,
     "{path}: emission floors must mirror emission rows"),
    (0.0, 14, "र\t</s>\t1", "घ\t</s>\t1", ModelValidationError,
     "{path}: transition rows must cover the Hindi vocabulary plus BOS"),
    (0.0, 12, "अ\tम\t1", "अ\t<s>\t1", ModelValidationError,
     "{path}: transition row 'अ' targets outside the vocabulary"),
    (0.0, 12, "अ\tम\t1", "अ\tघ\t1", ModelValidationError,
     "{path}: transition row 'अ' targets outside the vocabulary"),
    (0.0, 7, "अ\ta\t1", "अ\ta\t1.5", ModelValidationError, "{path}: emission ('अ', 'a') out of (0,1]: 1.5"),
    (0.0, 12, "अ\tम\t1", "अ\tम\t0", ModelValidationError, "{path}: transition ('अ', 'म') out of (0,1]: 0.0"),
    (0.0, 7, "अ\ta\t1", "अ\ta\t0.5", ModelValidationError, "{path}: emission row 'अ' sums to 0.5"),
    (0.5, 7, "अ\t<unk>\t0.20000000000000001", "", ModelValidationError,
     "{path}: emission row 'अ' lacks a positive floor"),
    (0.5, 3, "smoothing_k\t0.5", "smoothing_k\t0", ModelValidationError,
     "{path}: unsmoothed emission row 'अ' has a nonzero floor"),
]


@pytest.mark.parametrize("smoothing_k, lineno, old, new, error, message", LOAD_REJECTIONS)
def test_load_rejects_each_broken_line(smoothing_k, lineno, old, new, error, message, tmp_path):
    pairs = [AlignedPair("a", "अ"), AlignedPair("ma", "म"), AlignedPair("r", "र")]
    path = tmp_path / "model.txt"
    save_model(estimate([pairs], smoothing_k=smoothing_k), path)
    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines[lineno - 1] == old
    lines[lineno - 1] = new
    path.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(error) as excinfo:
        load_model(path)
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message.format(path=path)


def test_load_rejects_bad_probability_value(single_entry_model, tmp_path):
    path = tmp_path / "model.txt"
    save_model(single_entry_model, path)
    text = path.read_text(encoding="utf-8").replace("अ\ta\t1\n", "अ\ta\tabc\n")
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ModelFormatError):
        load_model(path)
