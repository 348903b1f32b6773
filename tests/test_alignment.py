import math
import random
from collections import defaultdict

import pytest

from ne_translit.alignment import (
    SKIP_PENALTY,
    AlignedPair,
    AlignmentCostTable,
    ParallelEntry,
    _forward_backward,
    align_corpus,
    align_monotone,
    aligned_pair_counts,
    build_aligned_corpus,
    corpus_log_likelihood,
    em_train_alignment,
    entry_keys,
    load_corpus,
)

from helpers import (
    best_monotone_score,
    reference_align_monotone,
    brute_force_posteriors,
    log_total_probability,
    reference_em,
    score_alignment,
)


def test_equal_length_uniform_is_positional():
    costs = AlignmentCostTable.uniform()
    pairs = align_monotone(["ra", "dhi", "ka"], ["रा", "धि", "का"], costs)
    assert pairs == [AlignedPair("ra", "रा"), AlignedPair("dhi", "धि"), AlignedPair("ka", "का")]
    pairs = align_monotone(["a", "ma", "r"], ["अ", "म", "र"], costs)
    assert pairs == [AlignedPair("a", "अ"), AlignedPair("ma", "म"), AlignedPair("r", "र")]


def test_length_mismatch_matches_bruteforce_optimum():
    rng = random.Random(11)
    e = [f"e{i}" for i in range(4)]
    h = [f"h{i}" for i in range(3)]
    probs = {ek: {} for ek in e}
    for ek in e:
        weights = {hk: rng.uniform(0.1, 1.0) for hk in h}
        total = sum(weights.values())
        probs[ek] = {hk: w / total for hk, w in weights.items()}
    costs = AlignmentCostTable(probs)
    pairs = align_monotone(e, h, costs)
    achieved = score_alignment(e, h, [(p.e, p.h) for p in pairs], costs)
    assert achieved == pytest.approx(best_monotone_score(e, h, costs), abs=1e-9)


def test_dp_matches_bruteforce_on_random_instances():
    rng = random.Random(12)
    for _ in range(60):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        e = [f"e{i}" for i in range(m)]
        h = [f"h{i}" for i in range(n)]
        probs = {}
        for ek in e:
            weights = {hk: rng.uniform(0.05, 1.0) for hk in h}
            total = sum(weights.values())
            probs[ek] = {hk: w / total for hk, w in weights.items()}
        costs = AlignmentCostTable(probs)
        pairs = align_monotone(e, h, costs)
        achieved = score_alignment(e, h, [(p.e, p.h) for p in pairs], costs)
        assert achieved == pytest.approx(best_monotone_score(e, h, costs), abs=1e-9)


def test_dp_matches_the_cell_by_cell_reference_including_ties():
    rng = random.Random(14)
    for trial in range(400):
        e_syms = [f"e{i}" for i in range(rng.randint(1, 3))]
        h_syms = [f"h{i}" for i in range(rng.randint(1, 3))]
        e = [rng.choice(e_syms) for _ in range(rng.randint(0, 6))]
        h = [rng.choice(h_syms) for _ in range(rng.randint(0, 6))]
        probs = {}
        for ek in rng.sample(e_syms, rng.randint(0, len(e_syms))):  # rows may be missing
            weights = {hk: rng.choice((1, 1, 2)) for hk in rng.sample(h_syms, rng.randint(1, len(h_syms)))}
            probs[ek] = {hk: w / sum(weights.values()) for hk, w in weights.items()}
        # a default of 0 gives -inf cells; SKIP_PENALTY**2 ties one match with two skips
        default = rng.choice((1e-9, 0.0, 1.0, SKIP_PENALTY, SKIP_PENALTY**2))
        costs = AlignmentCostTable(probs, default=default)
        assert align_monotone(e, h, costs) == reference_align_monotone(e, h, costs), (e, h, costs)


def test_alignment_is_monotone():
    rng = random.Random(13)
    for _ in range(40):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        # unique symbols per position make index recovery exact
        e = [f"e{i}" for i in range(m)]
        h = [f"h{j}" for j in range(n)]
        probs = {}
        for ek in e:
            weights = {hk: rng.uniform(0.05, 1.0) for hk in h}
            total = sum(weights.values())
            probs[ek] = {hk: w / total for hk, w in weights.items()}
        pairs = align_monotone(e, h, AlignmentCostTable(probs))
        e_indices = [int(p.e[1:]) for p in pairs]
        h_indices = [int(p.h[1:]) for p in pairs]
        assert all(a < b for a, b in zip(e_indices, e_indices[1:]))
        assert all(a < b for a, b in zip(h_indices, h_indices[1:]))


def test_forward_backward_matches_bruteforce_on_random_instances():
    rng = random.Random(14)
    for _ in range(50):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        # small symbol pools, so keys repeat within an entry
        e = [rng.choice(["e0", "e1", "e2"]) for _ in range(m)]
        h = [rng.choice(["h0", "h1", "h2"]) for _ in range(n)]
        probs = {}
        for ek in sorted(set(e)):
            if rng.random() < 0.2:
                continue  # no row: every match of ek gets the default
            targets = rng.sample(["h0", "h1", "h2"], rng.randint(1, 3))
            weights = {hk: rng.uniform(0.05, 1.0) for hk in targets}
            total = sum(weights.values())
            probs[ek] = {hk: w / total for hk, w in weights.items()}
        costs = AlignmentCostTable(probs, default=rng.choice([1e-9, 0.01]))

        z, expected = brute_force_posteriors(e, h, costs)
        log_z, posteriors = _forward_backward(e, h, costs)
        assert log_z == pytest.approx(math.log(z), rel=1e-9)
        got = defaultdict(float)
        for ek, hk, w in posteriors:
            got[ek, hk] += w
        assert set(got) == set(expected)
        for pair, w in expected.items():
            assert got[pair] == pytest.approx(w, rel=1e-9)


def test_long_entry_does_not_underflow():
    consonants = ["क", "ख", "ग", "घ", "च", "छ", "ज", "झ", "त", "थ", "द", "ध",
                  "न", "प", "फ", "ब", "भ", "म", "य", "र", "ल", "व", "श", "स"]
    latin = ["k", "kh", "g", "gh", "ch", "chh", "j", "jh", "t", "th", "d", "dh",
             "n", "p", "ph", "b", "bh", "m", "y", "r", "l", "v", "sh", "s"]
    matras = [("", "a"), ("ा", "aa"), ("ि", "i"), ("ी", "ee"), ("ु", "u"),
              ("ू", "oo"), ("े", "e"), ("ै", "ai"), ("ो", "o"), ("ौ", "au")]
    aksharas = [(c + mh, cl + ml) for c, cl in zip(consonants, latin) for mh, ml in matras]
    names = [
        ParallelEntry("".join(lat for _, lat in group), "".join(dev for dev, _ in group))
        for group in (aksharas[i:i + 3] for i in range(0, len(aksharas), 3))
    ]
    # 100 aksharas alternating a long vowel (two Latin phonemes: "kaa" is
    # [ka][a]) and a short one
    long_units = [(consonants[t % 24] + ("ा" if t % 2 == 0 else "ि"),
                   latin[t % 24] + ("aa" if t % 2 == 0 else "i")) for t in range(100)]
    long_entry = ParallelEntry("".join(lat for _, lat in long_units), "".join(dev for dev, _ in long_units))
    e_keys, h_keys = entry_keys(long_entry)
    assert (len(e_keys), len(h_keys)) == (150, 100)

    keyed = [entry_keys(entry) for entry in names + [long_entry]]
    h_vocab = {hk for _, hs in keyed for hk in hs}
    e_vocab = {ek for es, _ in keyed for ek in es}
    assert len(h_vocab) == 240
    # the table EM starts from
    costs = AlignmentCostTable({ek: {hk: 1 / 240 for hk in h_vocab} for ek in e_vocab})

    log_z, posteriors = _forward_backward(e_keys, h_keys, costs)
    assert posteriors
    assert math.isfinite(log_z)
    assert log_z < math.log(5e-324)  # the total itself is below the smallest float
    assert log_z == pytest.approx(log_total_probability(e_keys, h_keys, costs), rel=1e-9)
    # 100 Hindi phonemes, nearly every one matched
    assert 99.0 < sum(w for _, _, w in posteriors) <= 100.0 + 1e-9
    assert corpus_log_likelihood([long_entry], costs) == pytest.approx(log_z, rel=1e-12)


def test_em_matches_reference_on_corpus_with_duplicates():
    corpus = (
        [ParallelEntry("Rama", "रामा")] * 3
        + [ParallelEntry("Mara", "मारा")] * 2
        + [
            ParallelEntry("x9y", "रा"),  # digits cannot be phonified
            ParallelEntry("Rama Kama", "रामा कामा"),
            ParallelEntry("Amar", "अमर"),
            ParallelEntry("Radhika", "राधिका"),
            ParallelEntry("Kamal", "कमल"),
        ]
    )
    random.Random(15).shuffle(corpus)
    for iterations in (1, 5):
        table = em_train_alignment(corpus, iterations)
        expected = reference_em(corpus, iterations)
        assert set(table.probs) == set(expected.probs)
        for e, row in expected.probs.items():
            assert set(table.probs[e]) == set(row)
            for h, p in row.items():
                assert table.probs[e][h] == pytest.approx(p, abs=1e-12)


def test_em_single_entry_gives_certainty():
    table = em_train_alignment([ParallelEntry("ra", "रा")], iterations=3)
    assert table.prob("ra", "रा") == pytest.approx(1.0)


def test_em_counts_match_hand_tally():
    corpus = [
        ParallelEntry("ra", "रा"),
        ParallelEntry("ra", "रा"),
        ParallelEntry("ra", "र"),
    ]
    table = em_train_alignment(corpus, iterations=1)
    assert table.prob("ra", "रा") == pytest.approx(2 / 3, abs=1e-12)
    assert table.prob("ra", "र") == pytest.approx(1 / 3, abs=1e-12)
    # the fixed point barely moves under more iterations
    table10 = em_train_alignment(corpus, iterations=10)
    assert table10.prob("ra", "रा") == pytest.approx(2 / 3, abs=1e-6)


def test_em_rows_are_normalized():
    corpus = [
        ParallelEntry("Radhika", "राधिका"),
        ParallelEntry("Amar", "अमर"),
        ParallelEntry("Odisha", "ओडीशा"),
    ]
    table = em_train_alignment(corpus, iterations=5)
    table.validate(tolerance=1e-9)


def test_em_log_likelihood_never_decreases():
    corpus = [
        ParallelEntry("Radhika", "राधिका"),
        ParallelEntry("Amar", "अमर"),
        ParallelEntry("Anshika", "अंशीका"),
        ParallelEntry("Odisha", "ओडीशा"),
        ParallelEntry("Cherapunji", "चेरापुंजी"),
        ParallelEntry("Rama", "रामा"),
    ]
    previous = None
    for iterations in range(1, 7):
        table = em_train_alignment(corpus, iterations=iterations)
        ll = corpus_log_likelihood(corpus, table)
        if previous is not None:
            assert ll >= previous - 1e-12
        previous = ll


def test_em_recovers_a_known_table():
    # seed picked so the 20-entry sample is representative of the table
    rng = random.Random(11)
    e_syms = ["ka", "ra", "ta"]
    truth = {
        "ka": {"का": 0.9, "खा": 0.1},
        "ra": {"रा": 0.8, "र": 0.2},
        "ta": {"ता": 1.0},
    }
    corpus = []
    for _ in range(20):
        length = rng.randint(2, 6)
        es, hs = [], []
        for _ in range(length):
            e = rng.choice(e_syms)
            r, acc = rng.random(), 0.0
            for h, p in truth[e].items():
                acc += p
                if r <= acc:
                    es.append(e)
                    hs.append(h)
                    break
        corpus.append((es, hs))

    entries = [ParallelEntry("".join(es), "".join(hs)) for es, hs in corpus]
    table = em_train_alignment(entries, iterations=10)
    for e, row in truth.items():
        for h, p in row.items():
            assert table.prob(e, h) == pytest.approx(p, abs=0.05)


def test_unphonifiable_entry_is_skipped_not_fatal():
    corpus = [
        ParallelEntry("Radhika", "राधिका"),
        ParallelEntry("x9y", "रा"),  # digits cannot be phonified
    ]
    table = em_train_alignment(corpus, iterations=2)
    assert table.prob("ra", "रा") > 0
    aligned, skipped = build_aligned_corpus(corpus, table)
    assert len(aligned) == 1
    assert len(skipped) == 1 and "x9y" in skipped[0]


def test_aligned_corpus_keeps_one_result_per_occurrence():
    rama, mara, bad = ParallelEntry("Rama", "रामा"), ParallelEntry("Mara", "मारा"), ParallelEntry("x9y", "रा")
    corpus = [rama, bad, mara, rama, bad, rama]
    table = em_train_alignment(corpus, iterations=5)
    aligned, skipped = build_aligned_corpus(corpus, table)
    assert [[p.e for p in pairs] for pairs in aligned] == [["ra", "ma"], ["ma", "ra"], ["ra", "ma"], ["ra", "ma"]]
    assert aligned[0] == aligned[2] and aligned[0] is not aligned[2]
    assert len(skipped) == 2 and skipped[0] == skipped[1] and "x9y" in skipped[0]


def test_multi_token_entries_align():
    corpus = [ParallelEntry("Rama Kama", "रामा कामा")]
    table = em_train_alignment(corpus, iterations=5)
    aligned, skipped = build_aligned_corpus(corpus, table)
    assert not skipped
    assert [p.e for p in aligned[0]] == ["ra", "ma", "ka", "ma"]


def test_aligned_pair_counts_dump_shape():
    corpus = [ParallelEntry("Rama", "रामा"), ParallelEntry("Mara", "मारा")]
    table = em_train_alignment(corpus, iterations=5)
    aligned, _ = build_aligned_corpus(corpus, table)
    counts = aligned_pair_counts(aligned)
    assert counts[("ra", "रा")] == 2
    assert counts[("ma", "मा")] == 2


def test_em_rejects_empty_and_bad_iterations():
    with pytest.raises(ValueError):
        em_train_alignment([], iterations=3)
    with pytest.raises(ValueError):
        em_train_alignment([ParallelEntry("ra", "रा")], iterations=0)


def test_parallel_entry_requires_both_sides():
    with pytest.raises(ValueError):
        ParallelEntry("", "रा")


def test_load_corpus_tolerates_bad_lines(tmp_path):
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text(
        "# a comment\n"
        "Radhika\tराधिका\n"
        "only-one-column\n"
        "Amar\tअमर\tPER\n"
        "Bad\tकोई\tWHAT\n"
        "\n",
        encoding="utf-8",
    )
    entries, warnings = load_corpus(corpus)
    assert [e.english for e in entries] == ["Radhika", "Amar"]
    assert entries[1].category is not None
    assert len(warnings) == 2
    assert any("line 3" in w for w in warnings)
    assert any("line 5" in w for w in warnings)


def test_load_corpus_splits_lines_at_newlines_only(tmp_path):
    # str.splitlines would also split at the form feed, train on Kumar/राम
    # and report the bad line as line 3
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text("Ram\fKumar\tराम\nbad line\nSita\tसीता\n", encoding="utf-8")
    entries, warnings = load_corpus(corpus)
    assert entries == [ParallelEntry("Ram\fKumar", "राम"), ParallelEntry("Sita", "सीता")]
    assert warnings == ["line 2: expected english<TAB>hindi[<TAB>category]"]


def test_align_corpus_is_em_then_hard_alignment_without_empty_entries():
    corpus = [ParallelEntry("Rama", "रामा"), ParallelEntry("x9y", "रा"), ParallelEntry("Mara", "मारा")]
    costs, usable, skipped = align_corpus(corpus, 5)
    assert costs == em_train_alignment(corpus, 5)
    aligned, expected_skipped = build_aligned_corpus(corpus, costs)
    assert usable == [pairs for pairs in aligned if pairs] and len(usable) == 2
    assert skipped == expected_skipped and len(skipped) == 1


def test_cost_table_validate_catches_bad_rows():
    with pytest.raises(ValueError):
        AlignmentCostTable({"ra": {"रा": 0.5}}).validate()
    AlignmentCostTable({"ra": {"रा": 0.5, "र": 0.5}}).validate()
