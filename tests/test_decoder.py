import dataclasses
import io
import itertools
import math
import random
import sys
import unicodedata
import weakref
from concurrent.futures import ThreadPoolExecutor

import pytest

from ne_translit import cli, decoder, model as model_mod
from ne_translit.decoder import (
    Fallback,
    UNK_OUTPUT,
    candidates,
    decode_name,
    viterbi,
)
from ne_translit.errors import ModelValidationError, ScriptError, UnseenPhonemeError, ZeroProbabilityError
from ne_translit.model import BOS, EOS, TransliterationModel, estimate
from ne_translit.alignment import AlignedPair
from ne_translit.phonology import phonify_latin

from helpers import NEG_INF, build_random_model, exhaustive_decode, trace_items


def test_candidates_single_entry(single_entry_model):
    # अ, म, र in code-point order: अ is id 0, and log(1.0) is 0.0
    assert candidates(single_entry_model, "a", top_k=5) == ((0, 0.0),)


def test_candidates_unseen_is_empty(single_entry_model):
    assert candidates(single_entry_model, "zz", top_k=5) == ()


def test_candidates_sorted_by_emission_then_codepoint():
    corpus = [
        [AlignedPair("ka", "का")] * 3 + [AlignedPair("ta", "का")] * 2,
        [AlignedPair("ka", "कौ")] * 3 + [AlignedPair("ta", "कौ")] * 2,
        [AlignedPair("ka", "क")] * 1 + [AlignedPair("ta", "क")] * 2,
    ]
    m = estimate(corpus, smoothing_k=0.0)
    got = candidates(m, "ka", top_k=5)
    # hand-sorted: का and कौ tie at 3/5; का is the smaller code point; क at 1/3
    assert [m.decode_table.symbols[h] for h, _ in got] == ["का", "कौ", "क"]
    assert got[0][1] == pytest.approx(math.log(3 / 5))
    assert got[2][1] == pytest.approx(math.log(1 / 3))


def test_candidates_truncates_to_top_k():
    corpus = [[AlignedPair("ka", h)] for h in ("का", "क", "खा", "कौ")]
    m = estimate(corpus, smoothing_k=0.0)
    assert len(candidates(m, "ka", top_k=2)) == 2
    with pytest.raises(ValueError):
        candidates(m, "ka", top_k=0)


def cli_trace(monkeypatch, capsys, model, word, top_k=10):
    """The --trace items CLI transliterate prints for word at top_k, with
    model standing in for the loaded model file; None if the word fell back."""
    monkeypatch.setattr(model_mod, "load_model", lambda path: model)
    stdin = io.TextIOWrapper(io.BytesIO(f"{word}\n".encode("utf-8")), encoding="utf-8", newline="\n")
    monkeypatch.setattr(sys, "stdin", stdin)
    argv = ["transliterate", "--model", "in-memory", "--trace", "--fallback", "copy", "--top-k", str(top_k)]
    assert cli.main(argv) == 0
    cols = capsys.readouterr().out.rstrip("\n").split("\t")
    return None if cols[2] == "-" else cols[3].split(" ")


def expected_trace(model, seq, score, keys):
    """trace_items of the best path, or None for a path of probability 0,
    which the CLI routes to the fallback."""
    return None if score == NEG_INF else trace_items(model, seq, keys)


def test_viterbi_single_path(single_entry_model, monkeypatch, capsys):
    decoding = viterbi(single_entry_model, phonify_latin("Amar").keys())
    assert decoding.hindi_sequence == ("अ", "म", "र")
    assert cli_trace(monkeypatch, capsys, single_entry_model, "Amar") == ["अ:1", "म:1", "र:1"]


def test_viterbi_length_one_is_plain_argmax():
    rng = random.Random(31)
    for _ in range(30):
        m = build_random_model(rng)
        e = rng.choice(sorted(m.e_vocab))
        decoding = viterbi(m, [e], top_k=5)
        seq, score = exhaustive_decode(m, [e], top_k=5)
        assert decoding.hindi_sequence == seq
        assert decoding.score == score


def test_viterbi_matches_exhaustive_search(monkeypatch, capsys):
    rng = random.Random(32)
    for trial in range(200):
        m = latin_random_model(rng, discrete=trial % 2 == 1)
        length = rng.randint(1, 6)
        keys = [rng.choice(sorted(m.e_vocab)) for _ in range(length)]
        decoding = viterbi(m, keys, top_k=5)
        seq, score = exhaustive_decode(m, keys, top_k=5)
        assert decoding.hindi_sequence == seq
        assert decoding.score == score
        assert cli_trace(monkeypatch, capsys, m, "".join(keys)) == expected_trace(m, seq, score, keys)


def test_a_model_missing_transition_rows_cannot_be_built():
    # every source the decoder can reach has a row, so viterbi needs no
    # fallback for a source without one
    rng = random.Random(34)
    for _ in range(40):
        m = latin_random_model(rng, discrete=True)
        dropped = rng.sample(sorted(m.transition), rng.randint(1, len(m.transition)))
        with pytest.raises(ModelValidationError) as excinfo:
            dataclasses.replace(
                m,
                transition={s: row for s, row in m.transition.items() if s not in dropped},
                transition_floor={s: f for s, f in m.transition_floor.items() if s not in dropped},
            )
        assert str(excinfo.value) == "transition rows must cover the Hindi vocabulary plus BOS"


def test_viterbi_score_is_the_path_log_product(single_entry_model):
    decoding = viterbi(single_entry_model, phonify_latin("Amar").keys())
    m = single_entry_model
    seq = decoding.hindi_sequence
    expected = math.log(m.transition_prob(BOS, seq[0]))
    for i, h in enumerate(seq):
        expected += math.log(m.emission_prob(h, ["a", "ma", "r"][i]))
        if i:
            expected += math.log(m.transition_prob(seq[i - 1], h))
    expected += math.log(m.transition_prob(seq[-1], EOS))
    assert decoding.score == pytest.approx(expected, abs=1e-12)


def test_viterbi_unseen_phoneme_reports_position(single_entry_model):
    with pytest.raises(UnseenPhonemeError) as excinfo:
        viterbi(single_entry_model, ["a", "zz", "r"])
    assert excinfo.value.phoneme == "zz"
    assert excinfo.value.position == 1


def test_viterbi_rejects_empty_input(single_entry_model):
    with pytest.raises(ValueError):
        viterbi(single_entry_model, [])


def test_viterbi_takes_only_a_list_or_tuple_of_keys(single_entry_model):
    keys = phonify_latin("Amar").keys()
    assert viterbi(single_entry_model, tuple(keys)) == viterbi(single_entry_model, keys)
    # a sequence or an iterator, even an empty one, is never decoded
    for not_keys in (phonify_latin("Amar"), phonify_latin(""), iter(keys), iter([])):
        with pytest.raises(TypeError):
            viterbi(single_entry_model, not_keys)


def test_output_length_equals_input_length(memorization_model, memorization_corpus):
    for entry in memorization_corpus[:10]:
        keys = phonify_latin(entry.english).keys()
        decoding = viterbi(memorization_model, keys)
        assert len(decoding.hindi_sequence) == len(keys)


def test_transliterate_memorizes_single_training_word(single_entry_model):
    assert decode_name(single_entry_model, "Amar")[0] == "अमर"


def test_transliterate_memorizes_toy_corpus_word(memorization_model):
    assert decode_name(memorization_model, "Radhika")[0] == "राधिका"


def test_transliterate_fallback_policies(single_entry_model):
    with pytest.raises(UnseenPhonemeError):
        decode_name(single_entry_model, "Bombay", Fallback.ERROR)
    assert decode_name(single_entry_model, "Bombay", Fallback.COPY_SOURCE) == ("Bombay", None, [("Bombay", None)])
    assert decode_name(single_entry_model, "Bombay", Fallback.UNK_MARKER) == (UNK_OUTPUT, None, [("Bombay", None)])


def test_transliterate_empty_word(single_entry_model):
    assert decode_name(single_entry_model, "") == ("", 0.0, [])
    assert not single_entry_model.decode_memo


def test_decode_word_is_deterministic(memorization_model):
    first = viterbi(memorization_model, phonify_latin("Radhika").keys())
    second = viterbi(memorization_model, phonify_latin("Radhika").keys())
    assert first == second


def test_memorization_round_trip(memorization_model, memorization_corpus):
    hits = 0
    for entry in memorization_corpus:
        if decode_name(memorization_model, entry.english)[0] == entry.hindi:
            hits += 1
    assert hits == len(memorization_corpus) == 50


# --- candidate index and decode memo ---------------------------------------

def scan_candidates(model, e, top_k):
    """Every observed (h, P(e|h)) straight from the emission rows, as
    (h id, log emission) with the ids numbered in code-point order."""
    ids = {h: i for i, h in enumerate(sorted(model.h_vocab))}
    found = sorted((-row[e], h) for h, row in model.emission.items() if e in row)
    return tuple((ids[h], math.log(-neg)) for neg, h in found[:top_k])


def test_candidate_index_matches_a_full_emission_scan():
    rng = random.Random(41)
    for trial in range(100):
        m = build_random_model(rng, n_h=rng.randint(1, 8), n_e=rng.randint(1, 6), discrete=trial % 2 == 0)
        for e in sorted(m.e_vocab) + ["unseen"]:
            for top_k in range(1, len(m.h_vocab) + 2):
                assert candidates(m, e, top_k) == scan_candidates(m, e, top_k)


def build_uniform_model(rng, n_h, n_e, full):
    """Unsmoothed model whose rows are uniform over their support, so many
    paths score exactly the same; full=True makes every path tie."""
    h_syms = [f"h{i}" for i in range(n_h)]
    e_syms = [f"e{i}" for i in range(n_e)]

    def uniform(targets):
        return {t: 1.0 / len(targets) for t in targets}

    def support(pool):
        return pool if full else sorted(rng.sample(pool, rng.randint(1, len(pool))))

    emission = {h: uniform(support(e_syms)) for h in h_syms}
    for e in e_syms:  # every English phoneme needs a candidate
        if not any(e in row for row in emission.values()):
            h = rng.choice(h_syms)
            emission[h] = uniform(sorted(set(emission[h]) | {e}))
    transition = {BOS: uniform(support(h_syms))}
    for h in h_syms:
        transition[h] = uniform(support(h_syms + [EOS]))
    return TransliterationModel(
        emission=emission,
        transition=transition,
        emission_floor={h: 0.0 for h in emission},
        transition_floor={p: 0.0 for p in transition},
        smoothing_k=0.0,
    )


def test_viterbi_matches_exhaustive_search_on_all_tie_models():
    rng = random.Random(42)
    for trial in range(120):
        m = build_uniform_model(rng, n_h=rng.randint(1, 3), n_e=rng.randint(1, 3), full=trial % 2 == 0)
        for length in range(1, 8):
            keys = [rng.choice(sorted(m.e_vocab)) for _ in range(length)]
            top_k = rng.randint(1, 3)
            decoding = viterbi(m, keys, top_k=top_k)
            seq, score = exhaustive_decode(m, keys, top_k=top_k)
            assert decoding.hindi_sequence == seq
            assert decoding.score == score


# Syllables that build_random_model's English symbols e0, e1, ... are renamed
# to, in the same sorted order, so that words made of them segment back
# into exactly those symbols.
SYLLABLES = ["ba", "di", "ku", "mo", "pe", "sa"]


def latin_random_model(rng, discrete=False):
    m = build_random_model(rng, n_e=len(SYLLABLES), discrete=discrete)
    names = dict(zip(sorted(m.e_vocab), SYLLABLES))
    return dataclasses.replace(
        m,
        emission={h: {names[e]: p for e, p in row.items()} for h, row in m.emission.items()},
    )


def test_viterbi_at_top_k_1_matches_exhaustive_search(monkeypatch, capsys):
    # one candidate per position: the lattice holds one state throughout
    rng = random.Random(35)
    for trial in range(200):
        m = latin_random_model(rng, discrete=trial % 2 == 1)
        keys = [rng.choice(SYLLABLES) for _ in range(rng.randint(1, 6))]
        decoding = viterbi(m, keys, top_k=1)
        seq, score = exhaustive_decode(m, keys, top_k=1)
        assert decoding.hindi_sequence == seq
        assert decoding.score == score
        assert cli_trace(monkeypatch, capsys, m, "".join(keys), top_k=1) == expected_trace(m, seq, score, keys)


# "ba" has one candidate (A), "di" three (Q, P, R) and "ku" two (R, P), so
# a word's columns alternate between one state and several.  After "di",
# the best way into A is from R, the last state of that column, so a
# one-candidate column after several states must keep its back-pointer.
MIXED_EMISSION = {
    "A": {"ba": 1.0},
    "P": {"di": 0.55, "ku": 0.45},
    "Q": {"di": 1.0},
    "R": {"di": 0.3, "ku": 0.7},
}
# Uneven values, so that no two paths tie in exact arithmetic: a tie would
# rest on rounding, where the search and the oracle need not agree.
MIXED_TRANSITION = {
    BOS: {"A": 0.41, "P": 0.27, "Q": 0.19, "R": 0.13},
    "A": {"A": 0.17, "P": 0.29, "Q": 0.11, "R": 0.31, EOS: 0.12},
    "P": {"A": 0.07, "P": 0.23, "Q": 0.33, "R": 0.09, EOS: 0.28},
    "Q": {"A": 0.06, "P": 0.37, "Q": 0.14, "R": 0.18, EOS: 0.25},
    "R": {"A": 0.81, "P": 0.04, "Q": 0.03, "R": 0.05, EOS: 0.07},
}
# the same model with no way to end a word, so every path scores -inf
NO_END_TRANSITION = {
    source: {h: p / (1.0 - row.get(EOS, 0.0)) for h, p in row.items() if h != EOS}
    for source, row in MIXED_TRANSITION.items()
}
MIXED_WORDS = [list(keys) for n in range(1, 6) for keys in itertools.product(("ba", "di", "ku"), repeat=n)]


def mixed_model(transition=MIXED_TRANSITION, emission=MIXED_EMISSION):
    return TransliterationModel(
        emission=emission,
        transition=transition,
        emission_floor={h: 0.0 for h in emission},
        transition_floor={source: 0.0 for source in transition},
        smoothing_k=0.0,
    )


@pytest.mark.parametrize("top_k", [1, 2, 3])
@pytest.mark.parametrize("transition", [MIXED_TRANSITION, NO_END_TRANSITION], ids=["scored", "no-end"])
def test_viterbi_mixing_one_state_and_several_state_columns_matches_exhaustive_search(
    transition, top_k, monkeypatch, capsys
):
    m = mixed_model(transition)
    for keys in MIXED_WORDS:
        decoding = viterbi(m, keys, top_k=top_k)
        seq, score = exhaustive_decode(m, keys, top_k=top_k)
        assert decoding.hindi_sequence == seq, keys
        assert decoding.score == score, keys
        assert (score == NEG_INF) == (transition is NO_END_TRANSITION)
        if len(keys) <= 3:
            assert cli_trace(monkeypatch, capsys, m, "".join(keys), top_k) == expected_trace(m, seq, score, keys)


def test_a_one_candidate_column_after_several_states_keeps_its_back_pointer():
    # the best predecessor of A is the last of the states before it
    m = mixed_model()
    assert viterbi(m, ["di", "ba"], top_k=3).hindi_sequence == ("R", "A")  # of P, Q, R
    assert viterbi(m, ["di", "ba"], top_k=2).hindi_sequence == ("Q", "A")  # of P, Q


def test_a_tie_that_rounding_splits_at_a_prefix_is_not_broken_by_code_point():
    # With even probabilities, the prefixes P Q Q and P P Q of "ku di di" tie
    # in exact arithmetic (0.0045), but P Q Q's float sum is the larger by
    # one ulp, so Viterbi keeps it alone for state Q.  After the common
    # suffix the two totals round to the same float, and only the oracle,
    # which compares whole sequences, then picks the code-point-smaller
    # P P Q P.  A tie is broken by code point where it arises, not across
    # paths that rounding has set apart.
    m = mixed_model(
        {
            BOS: {"A": 0.4, "P": 0.3, "Q": 0.2, "R": 0.1},
            "A": {"A": 0.2, "P": 0.3, "Q": 0.1, "R": 0.3, EOS: 0.1},
            "P": {"A": 0.1, "P": 0.2, "Q": 0.3, "R": 0.1, EOS: 0.3},
            "Q": {"A": 0.05, "P": 0.35, "Q": 0.1, "R": 0.2, EOS: 0.3},
            "R": {"A": 0.8, "P": 0.05, "Q": 0.05, "R": 0.05, EOS: 0.05},
        },
        {"A": {"ba": 1.0}, "P": {"di": 0.5, "ku": 0.5}, "Q": {"di": 1.0}, "R": {"di": 0.25, "ku": 0.75}},
    )
    keys = ["ku", "di", "di", "ku"]
    decoding = viterbi(m, keys, top_k=2)
    assert (decoding.hindi_sequence, decoding.score) == (("P", "Q", "Q", "P"), -8.350619991590422)
    assert exhaustive_decode(m, keys, top_k=2) == (("P", "P", "Q", "P"), -8.350619991590422)


def test_viterbi_looks_up_candidates_once_per_position(monkeypatch):
    looked_up = []
    real = decoder.candidates

    def counting(model, e, top_k=10):
        looked_up.append(e)
        return real(model, e, top_k)

    monkeypatch.setattr(decoder, "candidates", counting)
    m = mixed_model()
    for keys in MIXED_WORDS:
        for top_k in (1, 2, 3):
            looked_up.clear()
            viterbi(m, keys, top_k=top_k)
            assert looked_up == keys


def test_memo_returns_equal_decodings(memorization_model, memorization_corpus):
    shared = dataclasses.replace(memorization_model)
    words = [entry.english for entry in memorization_corpus[:10]]
    first = [decode_name(shared, word) for word in words]
    assert len(shared.decode_memo) == len(words)
    again = [decode_name(shared, word) for word in words]
    fresh = [decode_name(dataclasses.replace(memorization_model), word) for word in words]
    assert again == first == fresh
    for word, (output, score, runs), (_, _, first_runs) in zip(words, again, first):
        ((run, decoding),) = runs
        assert decoding is first_runs[0][1]  # repeats come from the memo
        assert shared.decode_memo[word, 10] == (output, decoding)
        assert (run, score) == (word, decoding.score)


def test_memo_keeps_top_k_apart():
    # "x" is emitted best by A, but the start transition favours B
    m = TransliterationModel(
        emission={"A": {"x": 0.9, "y": 0.1}, "B": {"x": 0.5, "y": 0.5}},
        transition={BOS: {"A": 0.1, "B": 0.9}, "A": {EOS: 1.0}, "B": {EOS: 1.0}},
        emission_floor={"A": 0.0, "B": 0.0},
        transition_floor={BOS: 0.0, "A": 0.0, "B": 0.0},
        smoothing_k=0.0,
    )
    for _ in range(2):
        assert decode_name(m, "x", top_k=2)[2][0][1].hindi_sequence == ("B",)
        assert decode_name(m, "x", top_k=1)[2][0][1].hindi_sequence == ("A",)
    assert set(m.decode_memo) == {("x", 2), ("x", 1)}


def test_memo_never_exceeds_its_bound(monkeypatch):
    monkeypatch.setattr(decoder, "MEMO_SIZE", 5)
    rng = random.Random(43)
    m = latin_random_model(rng)
    for _ in range(200):
        keys = [rng.choice(SYLLABLES) for _ in range(rng.randint(1, 4))]
        expected = exhaustive_decode(m, keys, top_k=3)
        if expected[1] == NEG_INF:
            with pytest.raises(ZeroProbabilityError):
                decode_name(m, "".join(keys), top_k=3)
        else:
            output, score, ((_, decoding),) = decode_name(m, "".join(keys), top_k=3)
            assert (decoding.hindi_sequence, decoding.score) == expected
            assert score == decoding.score
            assert output == "".join(expected[0])
            assert 1 <= len(m.decode_memo)
        assert len(m.decode_memo) <= 5


# an unseen phoneme, the é of José in NFC and NFD (read as NFC, so both
# share one memo entry), and a word whose only path has probability 0 (the
# model never starts a word with र)
UNDECODABLE = [
    ("Amarzz", UnseenPhonemeError),
    ("José", ScriptError),
    (unicodedata.normalize("NFD", "José"), ScriptError),
    ("R", ZeroProbabilityError),
]


def test_memo_caches_each_outcome_and_applies_the_policy_per_call(single_entry_model):
    memo = single_entry_model.decode_memo
    for word, error in UNDECODABLE:
        run = unicodedata.normalize("NFC", word)
        # only NFD José finds an entry: the one NFC José left
        assert ((run, 10) in memo) == (run != word)
        with pytest.raises(error) as first:
            decode_name(single_entry_model, word)
        assert ((run, 10) in memo) == (run != word)
        for _ in range(2):
            assert decode_name(single_entry_model, word, Fallback.COPY_SOURCE) == (run, None, [(run, None)])
            assert decode_name(single_entry_model, word, Fallback.UNK_MARKER) == (UNK_OUTPUT, None, [(run, None)])
        assert memo[run, 10] == ()
        with pytest.raises(error) as again:
            decode_name(single_entry_model, word)
        assert str(again.value) == str(first.value)
        assert memo[run, 10] == ()
    assert decode_name(single_entry_model, "") == ("", 0.0, [])
    assert set(memo) == {(unicodedata.normalize("NFC", word), 10) for word, _ in UNDECODABLE}
    assert len(memo) == len(UNDECODABLE) - 1
    output, score, runs = decode_name(single_entry_model, "Amar")
    ((_, decoding),) = runs
    assert (output, score) == ("अमर", decoding.score)
    assert memo["Amar", 10] == (output, decoding)
    assert decode_name(single_entry_model, "Amar", Fallback.UNK_MARKER) == (output, score, runs)


def test_a_repeated_word_that_falls_back_is_segmented_and_decoded_once(monkeypatch, single_entry_model):
    calls = {"phonify_latin": 0, "viterbi": 0}

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(decoder.phonology, "phonify_latin")
    counted(decoder, "viterbi")
    words = ["José", "Amarzz", "R"]  # José fails in phonify_latin, before viterbi
    for _ in range(3):
        for word in words:
            assert decode_name(single_entry_model, word, Fallback.COPY_SOURCE) == (word, None, [(word, None)])
            assert decode_name(single_entry_model, word, Fallback.UNK_MARKER) == (UNK_OUTPUT, None, [(word, None)])
    assert calls == {"phonify_latin": 3, "viterbi": 2}
    # under error a remembered fallback is decoded again, to raise afresh
    with pytest.raises(UnseenPhonemeError):
        decode_name(single_entry_model, "Amarzz")
    assert calls == {"phonify_latin": 4, "viterbi": 3}


def test_decode_state_does_not_keep_the_model_alive(memorization_model):
    m = dataclasses.replace(memorization_model)
    decode_name(m, "Radhika")
    assert m.decode_table and m.decode_memo
    fields = {f.name for f in dataclasses.fields(m)}
    assert set(vars(m)) - fields == {"decode_table", "decode_memo"}
    assert m == memorization_model  # derived state is not part of equality
    ref = weakref.ref(m)
    del m
    assert ref() is None  # freed by reference counting, no cycle for the collector


def test_threads_sharing_a_model_match_serial_decoding(monkeypatch, memorization_model, memorization_corpus):
    monkeypatch.setattr(decoder, "MEMO_SIZE", 7)  # force clears while other threads read
    # two words that fall back, so the memo also holds fallback outcomes
    words = [entry.english for entry in memorization_corpus] + ["José", "Xyzzy"]
    copy = Fallback.COPY_SOURCE
    serial = [decode_name(dataclasses.replace(memorization_model), word, copy) for word in words]
    assert serial[-2:] == [("José", None, [("José", None)]), ("Xyzzy", None, [("Xyzzy", None)])]
    shared = dataclasses.replace(memorization_model)

    def work(seed):
        order = list(range(len(words)))
        random.Random(seed).shuffle(order)
        got = [None] * len(words)
        for _ in range(5):
            for i in order:
                got[i] = decode_name(shared, words[i], copy)
        return got

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(work, range(4), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 4
    assert all(got == serial for got in results)
