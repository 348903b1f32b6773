import dataclasses
import itertools
import math
import random

import pytest

from ne_translit.alignment import AlignedPair
from ne_translit.errors import ModelFormatError, ModelValidationError, ModelVersionError
from ne_translit.model import BOS, EOS, estimate, load_model, save_model

from helpers import count_tables, random_aligned_corpus


def test_single_entry_unsmoothed(single_entry_model):
    m = single_entry_model
    assert m.emission_prob("अ", "a") == 1.0
    assert m.transition_prob("अ", "म") == 1.0
    assert m.transition_prob(BOS, "अ") == 1.0
    assert m.transition_prob("र", EOS) == 1.0


def test_unseen_pair_unsmoothed_is_zero(single_entry_model):
    assert single_entry_model.emission_prob("अ", "zz") == 0.0
    assert single_entry_model.transition_prob("अ", "र") == 0.0


def test_unknown_source_is_uniform(single_entry_model):
    assert single_entry_model.emission_prob("घ", "a") == pytest.approx(1 / 3)
    assert single_entry_model.transition_prob("घ", "अ") == pytest.approx(1 / 4)


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
        m.validate()  # includes the row-sum check at 1e-9


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


def test_save_load_round_trip_smoothed(tmp_path):
    rng = random.Random(24)
    m = estimate(random_aligned_corpus(rng, max_pairs=40), smoothing_k=0.357)
    path = tmp_path / "model.txt"
    save_model(m, path)
    loaded = load_model(path)
    assert loaded == m
    loaded.validate()


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


def test_log_transition_covers_sources_without_a_row():
    m = estimate([[AlignedPair("a", "अ")]], smoothing_k=0.0)
    bare = dataclasses.replace(m, transition={}, transition_floor={})  # not validated
    uniform = math.log(bare.transition_prob("अ", EOS))
    assert bare.decode_table.symbols == ("अ",)
    assert bare.decode_table.rows == [[uniform, uniform], [uniform, uniform]]


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


def test_load_rejects_bad_probability_value(single_entry_model, tmp_path):
    path = tmp_path / "model.txt"
    save_model(single_entry_model, path)
    text = path.read_text(encoding="utf-8").replace("अ\ta\t1\n", "अ\ta\tabc\n")
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ModelFormatError):
        load_model(path)
