import dataclasses
import math
import random
from collections import defaultdict

import pytest

from ne_translit import alignment
from ne_translit.alignment import (
    MAX_ENTRY_KEYS,
    SKIP_PENALTY,
    AlignedPair,
    AlignmentCostTable,
    ParallelEntry,
    _batched_passes,
    _forward_backward,
    align_corpus,
    align_monotone,
    build_aligned_corpus,
    corpus_log_likelihood,
    em_train_alignment,
    load_corpus,
)
from ne_translit.errors import CorpusError

from helpers import (
    cost_prob,
    make_memorization_corpus,
    best_monotone_score,
    reference_align_monotone,
    brute_force_posteriors,
    log_total_probability,
    reference_em,
    reference_scaled_em,
    reference_scaled_forward_backward,
    score_alignment,
)


def test_equal_length_uniform_is_positional():
    costs = AlignmentCostTable({}, default=1.0)
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


def test_forward_backward_is_bit_identical_to_the_whole_table_passes():
    rng = random.Random(16)
    for _ in range(300):
        e = [rng.choice(["e0", "e1", "e2"]) for _ in range(rng.randint(0, 6))]
        h = [rng.choice(["h0", "h1", "h2"]) for _ in range(rng.randint(0, 6))]
        probs = {}
        for ek in sorted(set(e)):
            if rng.random() < 0.2:
                continue
            weights = {hk: rng.uniform(0.05, 1.0) for hk in rng.sample(["h0", "h1", "h2"], rng.randint(1, 3))}
            probs[ek] = {hk: w / sum(weights.values()) for hk, w in weights.items()}
        # a default of 0 leaves some cells, and some whole grids, at probability 0
        costs = AlignmentCostTable(probs, default=rng.choice([1e-9, 0.01, 0.0]))
        assert _forward_backward(e, h, costs) == reference_scaled_forward_backward(e, h, costs), (e, h, costs)


@pytest.mark.parametrize("corpus", [
    [ParallelEntry(*line.split("\t")) for line in (
        "Seema\tसीमा", "Pooja\tपूजा", "Raam\tराम", "Seema\tसीमा", "Raam Kumar\tराम कुमार",
        "X9y\tरा", "Kamla\tकमला", "Geeta\tगीता", "Amar\tअमर", "Kamala\tकमला",
    )],
    make_memorization_corpus(n=40, seed=5) * 2,
], ids=["skips", "memorization"])
def test_em_is_bit_identical_to_the_string_keyed_em(corpus):
    for iterations in (1, 4):
        got = em_train_alignment(corpus, iterations).probs
        expected = reference_scaled_em(corpus, iterations).probs
        assert [(e, list(row.items())) for e, row in got.items()] == \
            [(e, list(row.items())) for e, row in expected.items()]


def _akshara_names_and_long_entry():
    """80 three-akshara names (each of 240 aksharas once) and one entry of
    150 English and 100 Hindi phonemes."""
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
    return names, long_entry


def test_long_entry_does_not_underflow():
    names, long_entry = _akshara_names_and_long_entry()
    e_keys, h_keys = long_entry.keys
    assert (len(e_keys), len(h_keys)) == (150, 100)

    keyed = [entry.keys for entry in names + [long_entry]]
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


def test_em_is_bit_identical_to_the_string_keyed_em_over_interleaved_shapes():
    names, long_entry = _akshara_names_and_long_entry()
    # the long entry framed by a first and a last akshara seen nowhere else:
    # a path through their one shared cell skips over a hundred phonemes on
    # each side, so its posterior is 0 and their pair gets no soft count
    framed = ParallelEntry("yo" + long_entry.english + "sau", "यो" + long_entry.hindi + "सौ")
    corpus = (names[:12] + [ParallelEntry("X9y", "रा"), long_entry] + names[6:24]
              + [ParallelEntry("Rama", "रामा"), framed, long_entry] + names[:3])
    shapes = [(len(e_keys), len(h_keys)) for e_keys, h_keys in alignment._distinct_pairs(corpus)]
    # shapes interleave in first-seen order, so the batches do not follow it
    assert shapes != sorted(shapes, key=shapes.index)
    assert (150, 100) in shapes and (153, 102) in shapes and len(shapes) < len(corpus) - 1
    for iterations in (1, 3):
        got = em_train_alignment(corpus, iterations).probs
        expected = reference_scaled_em(corpus, iterations).probs
        assert [(e, list(row.items())) for e, row in got.items()] == \
            [(e, list(row.items())) for e, row in expected.items()]
        assert "सौ" not in got["yo"]
    # the third E-step also reads cells of the long entry whose posterior is 0
    assert len(_forward_backward(*long_entry.keys, em_train_alignment(corpus, 2))[1]) < 150 * 100


def test_em_normalizes_each_row_in_the_order_its_cells_were_first_touched():
    names, long_entry = _akshara_names_and_long_entry()
    framed = ParallelEntry("yo" + long_entry.english + "sau", "यो" + long_entry.hindi + "सौ")
    # the cell (yo, सौ) comes first in `framed`, whose posterior there is 0,
    # so it is first touched later, by Yosau; a row summed in the order of
    # all cells would add its counts in another order
    corpus = (names[:12] + [framed, long_entry]
              + [ParallelEntry(*pair) for pair in (("Yoje", "योजे"), ("Yobu", "योबु"),
                                                   ("Yosau", "योसौ"), ("Sauyo", "सौयो"))]
              + names[6:20])
    for iterations in (1, 2, 3):
        got = em_train_alignment(corpus, iterations).probs
        expected = reference_scaled_em(corpus, iterations).probs
        assert [(e, list(row.items())) for e, row in got.items()] == \
            [(e, list(row.items())) for e, row in expected.items()]
        assert "सौ" in got["yo"]


def test_em_is_bit_identical_to_the_string_keyed_em_where_an_entry_underflows():
    names, long_entry = _akshara_names_and_long_entry()
    # one English phoneme against 100 Hindi ones: every path skips at least
    # 99 of them, so the scaled last forward cell underflows to 0, every
    # posterior of the entry reads -1.0, and `yo`, seen nowhere else, is
    # left a row with no touched cell
    entry = ParallelEntry("Yo", long_entry.hindi)
    assert tuple(map(len, entry.keys)) == (1, 100)
    corpus = names[:20] + [entry] + names[20:30]
    got = em_train_alignment(corpus, 3)
    expected = reference_scaled_em(corpus, 3).probs
    assert [(e, list(row.items())) for e, row in got.probs.items()] == \
        [(e, list(row.items())) for e, row in expected.items()]
    assert "yo" not in got.probs
    assert _forward_backward(*entry.keys, got) == (-math.inf, [])
    assert corpus_log_likelihood([entry], got) == -math.inf


def test_batched_passes_give_each_pair_what_a_batch_of_one_gives():
    rng = random.Random(18)
    m = n = 100
    grids = [[[0.0 if rng.random() < 0.1 else rng.uniform(0.05, 1.0) for _ in range(n)] for _ in range(m)]
             for _ in range(4)]
    grids.insert(2, [[0.0] * n for _ in range(m)])  # skips only: its last cell underflows to 0
    size = len(grids)
    edge = [SKIP_PENALTY**j for j in range(n + 1)]
    sums, lasts, post = _batched_passes([[list(cells) for cells in zip(*rows)] for rows in zip(*grids)], edge, size)
    assert lasts[2] == 0.0 and all(last > 0.0 for b, last in enumerate(lasts) if b != 2)
    for b, grid in enumerate(grids):
        one_sums, (one_last,), one_post = _batched_passes([[[p] for p in row] for row in grid], edge, 1)
        assert [row[b] for row in sums] == [row[0] for row in one_sums]
        assert lasts[b] == one_last
        assert post[b - size::-size] == one_post[::-1]
        assert len(one_post) == m * n
    assert set(post[2 - size::-size]) == {-1.0}
    # a live pair has cells without a posterior (match probability 0) too
    assert -1.0 in post[-size::-size] and max(post[-size::-size]) > 0.0


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
    assert cost_prob(table, "ra", "रा") == pytest.approx(1.0)


def test_em_counts_match_hand_tally():
    corpus = [
        ParallelEntry("ra", "रा"),
        ParallelEntry("ra", "रा"),
        ParallelEntry("ra", "र"),
    ]
    table = em_train_alignment(corpus, iterations=1)
    assert cost_prob(table, "ra", "रा") == pytest.approx(2 / 3, abs=1e-12)
    assert cost_prob(table, "ra", "र") == pytest.approx(1 / 3, abs=1e-12)
    # the fixed point barely moves under more iterations
    table10 = em_train_alignment(corpus, iterations=10)
    assert cost_prob(table10, "ra", "रा") == pytest.approx(2 / 3, abs=1e-6)


def test_em_rows_are_normalized():
    corpus = [
        ParallelEntry("Radhika", "राधिका"),
        ParallelEntry("Amar", "अमर"),
        ParallelEntry("Odisha", "ओडीशा"),
    ]
    table = em_train_alignment(corpus, iterations=5)
    assert table.probs
    for row in table.probs.values():
        assert abs(sum(row.values()) - 1.0) <= 1e-9
        assert all(0.0 < p <= 1.0 for p in row.values())


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
            assert cost_prob(table, e, h) == pytest.approx(p, abs=0.05)


def test_unphonifiable_entry_is_skipped_not_fatal():
    corpus = [
        ParallelEntry("Radhika", "राधिका"),
        ParallelEntry("x9y", "रा"),  # digits cannot be phonified
    ]
    table = em_train_alignment(corpus, iterations=2)
    assert cost_prob(table, "ra", "रा") > 0
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


def test_em_rejects_empty_and_bad_iterations():
    with pytest.raises(CorpusError, match="^no usable entries in the corpus$"):
        em_train_alignment([], iterations=3)
    with pytest.raises(ValueError):
        em_train_alignment([ParallelEntry("ra", "रा")], iterations=0)


def test_an_entry_left_without_a_match_pair_gets_a_record():
    aligned, skipped = build_aligned_corpus([ParallelEntry("Ra", "रा")], AlignmentCostTable({"ra": {"x": 1.0}}))
    assert (aligned, skipped) == ([], ["Ra\tरा: no match pair after alignment"])


def test_align_corpus_raises_when_no_entry_keeps_a_match_pair(monkeypatch):
    # EM finds usable entries, but the hard alignment keeps no match pair
    costs = AlignmentCostTable({"ra": {"x": 1.0}})
    monkeypatch.setattr(alignment, "em_train_alignment", lambda corpus, iterations: costs)
    with pytest.raises(CorpusError, match="^no usable entries in the corpus$"):
        align_corpus([ParallelEntry("Ra", "रा")], 5)


def test_every_entry_is_aligned_or_recorded_in_input_order():
    rama, bad, empty = ParallelEntry("Rama", "रामा"), ParallelEntry("x9y", "रा"), ParallelEntry(" ", "रा")
    mara = ParallelEntry("Mara", "मारा")
    corpus = [bad, rama, empty, mara, bad, rama, empty]
    aligned, skipped = build_aligned_corpus(corpus, em_train_alignment(corpus, 5))
    assert len(aligned) + len(skipped) == len(corpus)
    assert [[p.e for p in pairs] for pairs in aligned] == [["ra", "ma"], ["ma", "ra"], ["ra", "ma"]]
    assert [record.split(":")[0] for record in skipped] == ["x9y\tरा", " \tरा", "x9y\tरा", " \tरा"]
    assert skipped[1] == " \tरा: no phonemes on one side"


def _entry_of_max_keys():
    """An entry of MAX_ENTRY_KEYS keys a side, one akshara a key."""
    consonants = ["क", "ख", "ग", "घ", "च", "ज", "त", "द", "न", "प", "ब", "म", "र", "ल", "व", "स"]
    latin = ["k", "kh", "g", "gh", "ch", "j", "t", "d", "n", "p", "b", "m", "r", "l", "v", "s"]
    units = [(consonants[t % 16] + ("ि" if t % 3 else ""), latin[t % 16] + ("i" if t % 3 else "a"))
             for t in range(MAX_ENTRY_KEYS)]
    return ParallelEntry("".join(lat for _, lat in units), "".join(dev for dev, _ in units))


def test_an_entry_of_max_entry_keys_a_side_still_trains():
    # the EM bit-identity tests above train entries of 153 x 102 keys
    assert MAX_ENTRY_KEYS >= 153
    entry = _entry_of_max_keys()
    assert tuple(map(len, entry.keys)) == (MAX_ENTRY_KEYS, MAX_ENTRY_KEYS)
    _, usable, skipped = align_corpus([entry, ParallelEntry("Rama", "रामा")], 1)
    assert skipped == [] and len(usable) == 2
    assert len(usable[0]) == MAX_ENTRY_KEYS


@pytest.mark.parametrize("english, hindi, e_count, h_count", [
    ("ka" * (MAX_ENTRY_KEYS + 1), "क", MAX_ENTRY_KEYS + 1, 1),
    ("Ka", "क" * (MAX_ENTRY_KEYS + 1), 1, MAX_ENTRY_KEYS + 1),
    ("ka" * 10_000, "का" * 10_000, 10_000, 10_000),  # 20,000 letters a side
])
def test_an_entry_with_more_than_max_entry_keys_a_side_is_too_long(english, hindi, e_count, h_count):
    with pytest.raises(CorpusError) as excinfo:
        ParallelEntry(english, hindi).keys
    assert str(excinfo.value) == (
        f"too long: {e_count} English and {h_count} Hindi phonemes, limit {MAX_ENTRY_KEYS}"
    )


def test_a_too_long_entry_is_left_out_of_em_and_the_hard_alignment(monkeypatch):
    shapes = []

    def counted(grid, edge, size, _passes=alignment._batched_passes):
        shapes.append((len(grid), len(edge) - 1))
        return _passes(grid, edge, size)

    monkeypatch.setattr(alignment, "_batched_passes", counted)
    rama, mara = ParallelEntry("Rama", "रामा"), ParallelEntry("Mara", "मारा")
    long_entry = ParallelEntry("ka" * 10_000, "का" * 10_000)
    costs, usable, skipped = align_corpus([rama, long_entry, mara, long_entry], 3)
    record = f"{'ka' * 10_000}\t{'का' * 10_000}: too long: 10000 English and 10000 Hindi phonemes, limit 160"
    assert skipped == [record, record]
    # only the one (2, 2) batch of Rama and Mara ran, once per iteration
    assert shapes == [(2, 2)] * 3
    assert (costs, usable, []) == align_corpus([rama, mara], 3)


def test_entry_keys_are_phonified_once_and_kept():
    entry = ParallelEntry("Raam Kumar", "राम कुमार")
    assert entry.keys == (("ra", "a", "m", "ku", "ma", "r"), ("रा", "म", "कु", "मा", "र"))
    assert entry.keys is entry.keys
    # the kept keys are not part of equality or hashing
    twin = ParallelEntry("Raam Kumar", "राम कुमार")
    assert entry == twin and hash(entry) == hash(twin) and len({entry, twin}) == 1
    with pytest.raises(CorpusError, match="^no phonemes on one side$"):
        ParallelEntry("Ra", " ").keys


def test_training_phonifies_each_distinct_usable_entry_once(monkeypatch):
    calls = {"latin": [], "devanagari": []}
    for side, name in (("latin", "phonify_latin"), ("devanagari", "phonify_devanagari")):
        def counted(token, _phonify=getattr(alignment, name), _calls=calls[side]):
            _calls.append(token)
            return _phonify(token)
        monkeypatch.setattr(alignment, name, counted)
    rama, mara, bad = ParallelEntry("Rama", "रामा"), ParallelEntry("Mara", "मारा"), ParallelEntry("x9y", "सीता")
    two = ParallelEntry("Rama Kama", "रामा कामा")
    align_corpus([rama, bad, mara, rama, two, bad, mara, rama], 5)
    assert sorted(calls["latin"]) == sorted(["Rama", "Mara", "Rama", "Kama"] + ["x9y"] * 2)
    assert sorted(calls["devanagari"]) == sorted(["रामा", "मारा", "रामा", "कामा"])


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
    # a known category is checked, then dropped: an entry is its two sides
    assert entries == [ParallelEntry("Radhika", "राधिका"), ParallelEntry("Amar", "अमर")]
    assert [f.name for f in dataclasses.fields(ParallelEntry)] == ["english", "hindi"]
    assert warnings == [
        "line 3: expected english<TAB>hindi[<TAB>category]",
        "line 5: unknown category 'WHAT'",
    ]


def test_load_corpus_splits_lines_at_newlines_only(tmp_path):
    # str.splitlines would also split at the form feed, and universal
    # newlines at the lone carriage return: both would train on Kumar/राम
    # and Hari/गीता and misnumber the bad line
    corpus = tmp_path / "corpus.tsv"
    corpus.write_bytes("Ram\fKumar\tराम\nbad line\nGita\rHari\tगीता\nSita\tसीता\r\n".encode("utf-8"))
    entries, warnings = load_corpus(corpus)
    assert entries == [
        ParallelEntry("Ram\fKumar", "राम"), ParallelEntry("Gita\rHari", "गीता"), ParallelEntry("Sita", "सीता")
    ]
    assert warnings == ["line 2: expected english<TAB>hindi[<TAB>category]"]


def test_align_corpus_is_em_then_hard_alignment_without_empty_entries():
    corpus = [ParallelEntry("Rama", "रामा"), ParallelEntry("x9y", "रा"), ParallelEntry("Mara", "मारा")]
    costs, usable, skipped = align_corpus(corpus, 5)
    assert costs == em_train_alignment(corpus, 5)
    aligned, expected_skipped = build_aligned_corpus(corpus, costs)
    assert usable == [pairs for pairs in aligned if pairs] and len(usable) == 2
    assert skipped == expected_skipped and len(skipped) == 1


def test_align_corpus_reads_a_one_shot_iterable_like_a_list():
    corpus = [ParallelEntry("Rama", "रामा"), ParallelEntry("Sita", "सीता")]
    assert align_corpus(iter(corpus), 2) == align_corpus(corpus, 2)
