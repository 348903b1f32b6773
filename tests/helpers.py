"""Independent oracles and corpus builders shared by the test modules.

The oracles deliberately re-derive expected results by brute force
(enumeration, direct counting) so the implementations they check cannot
leak into them.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter, defaultdict

from ne_translit.alignment import (
    SKIP_PENALTY,
    AlignedPair,
    AlignmentCostTable,
    ParallelEntry,
)
from ne_translit.errors import (
    AnnotationError,
    MalformedWordError,
    NeTranslitError,
    ScriptError,
    UnseenPhonemeError,
    ZeroProbabilityError,
)
from ne_translit.decoder import UNK_OUTPUT, Fallback, viterbi
from ne_translit.kb import EntityCategory
from ne_translit.model import BOS, EOS, TransliterationModel
from ne_translit.phonology import (
    DEV_CONSONANTS,
    DEV_HALANT,
    DEV_INDEPENDENT_VOWELS,
    DEV_MATRAS,
    DEV_NASALIZATION,
    DEV_NUKTA,
    LATIN_LETTERS,
    phonify_devanagari,
    phonify_latin,
)
from ne_translit.pipeline import EntitySpan

NEG_INF = float("-inf")


def _log(p: float) -> float:
    return math.log(p) if p > 0.0 else NEG_INF


def cost_prob(costs, e, h) -> float:
    """The match probability of (e, h), read from the cost table's rows."""
    return costs.probs.get(e, {}).get(h, costs.default)


# --- monotone alignment oracle -------------------------------------------

def enumerate_monotone(e, h, costs):
    """Yield (pairs, score) for every monotone alignment of e and h.

    Scores accumulate move by move, exactly like a left-to-right walk.
    """
    log_skip = math.log(SKIP_PENALTY)

    def walk(i, j, pairs, score):
        if i == len(e) and j == len(h):
            yield list(pairs), score
            return
        if i < len(e) and j < len(h):
            pairs.append((e[i], h[j]))
            yield from walk(i + 1, j + 1, pairs, score + _log(cost_prob(costs, e[i], h[j])))
            pairs.pop()
        if i < len(e):
            yield from walk(i + 1, j, pairs, score + log_skip)
        if j < len(h):
            yield from walk(i, j + 1, pairs, score + log_skip)

    yield from walk(0, 0, [], 0.0)


def brute_force_posteriors(e, h, costs):
    """Total probability of all monotone alignments and the expected count
    of each (e, h) match pair, summed over every alignment one by one."""
    total = 0.0
    weights: dict = defaultdict(float)
    for pairs, score in enumerate_monotone(e, h, costs):
        p = math.exp(score)
        total += p
        for pair in pairs:
            weights[pair] += p
    return total, {pair: w / total for pair, w in weights.items()}


def log_total_probability(e, h, costs) -> float:
    """Log of the total alignment probability by a forward pass in log
    space, for entries too long to enumerate."""
    log_skip = math.log(SKIP_PENALTY)
    prev = None
    for i in range(len(e) + 1):
        row = []
        for j in range(len(h) + 1):
            terms = [0.0] if i == j == 0 else []
            if i and j:
                terms.append(prev[j - 1] + _log(cost_prob(costs, e[i - 1], h[j - 1])))
            if i:
                terms.append(prev[j] + log_skip)
            if j:
                terms.append(row[j - 1] + log_skip)
            top = max(terms)
            row.append(top + math.log(sum(math.exp(t - top) for t in terms)))
        prev = row
    return prev[-1]


def reference_keys(entry):
    """(e_keys, h_keys) of an entry, phonified token by token here rather
    than read from `entry.keys`, or None if a side fails or is empty."""
    try:
        e_keys = [key for token in entry.english.split() for key in phonify_latin(token).keys()]
        h_keys = [key for token in entry.hindi.split() for key in phonify_devanagari(token).keys()]
    except NeTranslitError:
        return None
    return (e_keys, h_keys) if e_keys and h_keys else None


def reference_em(corpus, iterations):
    """EM by brute-force posteriors, one pass per corpus occurrence; only
    the phonifiers are shared with the package."""
    prepared = [keys for keys in map(reference_keys, corpus) if keys]
    h_vocab = {h for _, hk in prepared for h in hk}
    e_vocab = {e for ek, _ in prepared for e in ek}
    costs = AlignmentCostTable({e: {h: 1.0 / len(h_vocab) for h in h_vocab} for e in e_vocab})
    for _ in range(iterations):
        soft: dict = defaultdict(lambda: defaultdict(float))
        for e_keys, h_keys in prepared:
            for (e, h), w in brute_force_posteriors(e_keys, h_keys, costs)[1].items():
                soft[e][h] += w
        costs = AlignmentCostTable(
            {e: {h: c / sum(row.values()) for h, c in row.items()} for e, row in soft.items()}
        )
    return costs


def reference_scaled_forward_backward(e, h, costs):
    """Scaled forward-backward over string keys with whole forward and
    backward tables (Rabiner 1989, section V-A): log z and the match
    posteriors (e[i], h[j], w) in (i, j) order.  The fused passes must
    reproduce it bit for bit, so every float below is computed with the
    same operations in the same order."""
    m, n = len(e), len(h)
    eps = SKIP_PENALTY
    grid = costs.grid(e, h)
    edge = [eps**j for j in range(n + 1)]
    row = edge
    c = sum(row)
    scales, alpha = [c], [row]
    for probs in grid:
        prev, inv = row, 1.0 / c
        v = prev[0] * eps * inv
        row = [v]
        for j in range(1, n + 1):
            v = (prev[j - 1] * probs[j - 1] + prev[j] * eps) * inv + v * eps
            row.append(v)
        c = sum(row)
        scales.append(c)
        alpha.append(row)
    last = row[n] / c
    if last == 0.0:
        return NEG_INF, []
    beta = [None] * (m + 1)
    beta[m] = [x / c for x in reversed(edge)]
    for i in range(m - 1, -1, -1):
        nxt, inv = beta[i + 1], 1.0 / scales[i]
        row = [0.0] * (n + 1)
        row[n] = v = eps * nxt[n] * inv
        for j in range(n - 1, -1, -1):
            row[j] = v = (grid[i][j] * nxt[j + 1] + eps * nxt[j]) * inv + eps * v
        beta[i] = row
    posteriors = []
    for i in range(m):
        k = 1.0 / (scales[i] * last)
        for j in range(n):
            w = alpha[i][j] * grid[i][j] * beta[i + 1][j + 1]
            if w > 0.0:
                posteriors.append((e[i], h[j], w * k))
    return math.log(last) + sum(map(math.log, scales)), posteriors


def reference_scaled_em(corpus, iterations):
    """EM over distinct phonified pairs with string-keyed tables and
    reference_scaled_forward_backward; em_train_alignment must give the
    same costs bit for bit, rows in first-seen order."""
    pairs = Counter((tuple(ek), tuple(hk)) for ek, hk in filter(None, map(reference_keys, corpus)))
    h_vocab = sorted({h for _, hk in pairs for h in hk})
    costs = AlignmentCostTable({e: {h: 1.0 / len(h_vocab) for h in h_vocab} for ek, _ in pairs for e in ek})
    for _ in range(iterations):
        soft: dict = defaultdict(lambda: defaultdict(float))
        for (e_keys, h_keys), count in pairs.items():
            for e, h, w in reference_scaled_forward_backward(e_keys, h_keys, costs)[1]:
                soft[e][h] += w * count
        probs = {}
        for e, row in soft.items():
            total = sum(row.values())
            probs[e] = {h: c / total for h, c in sorted(row.items())}
        costs = AlignmentCostTable(probs)
    return costs


def reference_align_monotone(e, h, costs):
    """The hard aligner cell by cell, one cost_prob call per cell: the
    implementation align_monotone must reproduce, tie order included."""
    m, n = len(e), len(h)
    log_skip = math.log(SKIP_PENALTY)
    score = [[NEG_INF] * (n + 1) for _ in range(m + 1)]
    move = [[None] * (n + 1) for _ in range(m + 1)]
    score[0][0] = 0.0
    for i in range(m + 1):
        for j in range(n + 1):
            if i == 0 and j == 0:
                continue
            best, mv = NEG_INF, None
            if i > 0 and j > 0:
                s = score[i - 1][j - 1] + _log(cost_prob(costs, e[i - 1], h[j - 1]))
                if s > best:
                    best, mv = s, "match"
            if i > 0 and score[i - 1][j] + log_skip > best:
                best, mv = score[i - 1][j] + log_skip, "skip-e"
            if j > 0 and score[i][j - 1] + log_skip > best:
                best, mv = score[i][j - 1] + log_skip, "skip-h"
            score[i][j], move[i][j] = best, mv
    pairs = []
    i, j = m, n
    while i > 0 or j > 0:
        mv = move[i][j]
        if mv == "match":
            pairs.append(AlignedPair(e[i - 1], h[j - 1]))
            i, j = i - 1, j - 1
        elif mv == "skip-e":
            i -= 1
        else:
            j -= 1
    return pairs[::-1]


def best_monotone_score(e, h, costs) -> float:
    return max(score for _, score in enumerate_monotone(e, h, costs))


def score_alignment(e, h, pairs, costs) -> float:
    """Score of a specific alignment result: matches plus implied skips."""
    score = sum(_log(cost_prob(costs, pe, ph)) for pe, ph in pairs)
    skips = (len(e) - len(pairs)) + (len(h) - len(pairs))
    return score + skips * math.log(SKIP_PENALTY)


# --- frequency-counting oracle (unsmoothed estimation) --------------------

def count_tables(aligned_corpus):
    """Emission and transition ratios by direct counting, nothing shared
    with the estimator."""
    pair_counts = Counter()
    h_counts = Counter()
    bigram_counts = Counter()
    prev_counts = Counter()
    for pairs in aligned_corpus:
        if not pairs:
            continue
        hs = [p.h for p in pairs]
        for p in pairs:
            pair_counts[(p.h, p.e)] += 1
            h_counts[p.h] += 1
        for prev, nxt in zip([BOS] + hs, hs + [EOS]):
            bigram_counts[(prev, nxt)] += 1
            prev_counts[prev] += 1
    emission = defaultdict(dict)
    for (h, e), c in pair_counts.items():
        emission[h][e] = c / h_counts[h]
    transition = defaultdict(dict)
    for (prev, nxt), c in bigram_counts.items():
        transition[prev][nxt] = c / prev_counts[prev]
    return dict(emission), dict(transition)


def reference_estimate(aligned_corpus, smoothing_k) -> TransliterationModel:
    """The model estimate must build, counted one occurrence at a time with
    plain dicts: rows and targets in first-seen order, each seen target
    (c + k) / (row total + k * width) and each floor k over the same
    denominator (0.0 when k is 0)."""
    emission_counts: dict = {}
    transition_counts: dict = {}
    for pairs in aligned_corpus:
        if not pairs:
            continue
        hs = [p.h for p in pairs]
        for p in pairs:
            row = emission_counts.setdefault(p.h, {})
            row[p.e] = row.get(p.e, 0) + 1
        for prev, nxt in zip([BOS] + hs, hs + [EOS]):
            row = transition_counts.setdefault(prev, {})
            row[nxt] = row.get(nxt, 0) + 1
    k = float(smoothing_k)

    def frequencies(counts, width):
        rows, floors = {}, {}
        for source, row in counts.items():
            denom = sum(row.values()) + k * width
            rows[source] = {target: (c + k) / denom for target, c in row.items()}
            floors[source] = k / denom if k else 0.0
        return rows, floors

    emission, emission_floor = frequencies(
        emission_counts, len({e for row in emission_counts.values() for e in row}))
    transition, transition_floor = frequencies(transition_counts, len(emission_counts) + 1)
    return TransliterationModel(emission, transition, emission_floor, transition_floor, k)


# --- exhaustive decoding oracle -------------------------------------------

def exhaustive_decode(model, keys, top_k=10):
    """Argmax over every candidate sequence, same objective and tie-break
    as the decoder: larger score wins, equal scores pick the
    code-point-smallest sequence.  The lattice comes from the emission
    rows themselves, not from decoder.candidates: per position, the top_k
    Hindi phonemes with the highest observed P(e|h), ties by code point."""
    lattice = []
    for e in keys:
        column = sorted((-row[e], h) for h, row in model.emission.items() if e in row)[:top_k]
        lattice.append([(h, -neg) for neg, h in column])
    assert all(lattice), "oracle needs a candidate at every position"
    best_score, best_seq = NEG_INF, None
    for combo in itertools.product(*lattice):
        seq = tuple(h for h, _ in combo)
        score = 0.0
        prev = BOS
        for h, p in combo:
            score = score + _log(model.transition_prob(prev, h))
            score = score + _log(p)
            prev = h
        score = score + _log(model.transition_prob(prev, EOS))
        if best_seq is None or score > best_score or (score == best_score and seq < best_seq):
            best_score, best_seq = score, seq
    return best_seq, best_score


def reference_viterbi(model, keys, top_k=10):
    """(hindi_sequence, score, columns) from a frozen copy of an earlier
    decoder kernel: each candidate's predecessor scores built as a list and
    reduced by max() and index(), and a column's (score, row) predecessors
    rebuilt after every several-state column.  columns is the whole
    lattice: per position, (back-pointer, h id) for a one-state column or
    a sorted list of (back-pointer, h id, score), so every back-pointer can
    be compared, not only those on the best path.  The decoder must match
    it float for float, ties that rounding splits at a prefix included,
    which exhaustive_decode cannot judge."""
    table = model.decode_table
    rows = table.rows
    boundary = len(rows) - 1
    score, row = 0.0, rows[boundary]
    prevs = None
    columns = []
    for e in keys:
        cs = table.columns.get(e, ())[:top_k]
        assert cs, "the reference needs a candidate at every position"
        if len(cs) == 1:
            ((h, le),) = cs
            if prevs is None:
                back, score = 0, (score + row[h]) + le
            else:
                scores = [(psc + prow[h]) + le for psc, prow in prevs]
                score = max(scores)
                back = scores.index(score)
                prevs = None
            columns.append((back, h))
            row = rows[h]
            continue
        if prevs is None:
            ranked = [(0, h, (score + row[h]) + le) for h, le in cs]
        else:
            ranked = []
            for h, le in cs:
                scores = [(psc + prow[h]) + le for psc, prow in prevs]
                best = max(scores)
                ranked.append((scores.index(best), h, best))
        ranked.sort()
        columns.append(ranked)
        prevs = [(sc, rows[h]) for _, h, sc in ranked]

    if prevs is None:
        best_score, last = score + row[boundary], 0
    else:
        ends = [sc + prow[boundary] for sc, prow in prevs]
        best_score = max(ends)
        last = ends.index(best_score)
    symbols = table.symbols
    if best_score == NEG_INF:
        path = [
            symbols[column[1] if type(column) is tuple else min(h for _, h, _ in column)]
            for column in columns
        ]
    else:
        path = []
        for column in reversed(columns):
            if type(column) is tuple:
                last, h = column
            else:
                last, h, _ = column[last]
            path.append(symbols[h])
        path.reverse()
    return tuple(path), best_score, columns


def trace_items(model, seq, keys):
    """position_score over (BOS, *seq, EOS), each formatted as
    `transliterate --trace` prints it."""
    padded = (BOS, *seq, EOS)
    return [
        f"{h}:{model.position_score(padded[i], h, padded[i + 2], e):.6g}"
        for i, (h, e) in enumerate(zip(seq, keys))
    ]


# --- random model construction --------------------------------------------

def _normalized_row(rng, targets, discrete):
    if discrete:
        weights = [rng.choice((1, 1, 2, 4)) for _ in targets]
    else:
        weights = [rng.uniform(0.05, 1.0) for _ in targets]
    total = sum(weights)
    return {t: w / total for t, w in zip(targets, weights)}


def build_random_model(rng: random.Random, n_h=5, n_e=6, discrete=False) -> TransliterationModel:
    """A valid unsmoothed model with random tables.

    discrete=True draws row weights from a tiny set so score ties are
    frequent and the tie-break actually gets exercised.
    """
    h_syms = [f"h{i}" for i in range(n_h)]
    e_syms = [f"e{i}" for i in range(n_e)]

    support = {h: {rng.choice(e_syms)} for h in h_syms}
    for e in e_syms:
        for h in rng.sample(h_syms, rng.randint(1, n_h)):
            support[h].add(e)
    emission = {h: _normalized_row(rng, sorted(es), discrete) for h, es in support.items()}

    transition = {}
    for prev in [BOS] + h_syms:
        pool = h_syms + [EOS] if prev != BOS else list(h_syms)
        targets = sorted(rng.sample(pool, rng.randint(1, len(pool))))
        transition[prev] = _normalized_row(rng, targets, discrete)

    return TransliterationModel(
        emission=emission,
        transition=transition,
        emission_floor={h: 0.0 for h in emission},
        transition_floor={p: 0.0 for p in transition},
        smoothing_k=0.0,
    )


def random_aligned_corpus(rng: random.Random, max_pairs=100):
    """Random per-entry aligned pair lists over small synthetic vocabularies."""
    e_syms = [f"e{i}" for i in range(rng.randint(2, 8))]
    h_syms = [f"h{i}" for i in range(rng.randint(2, 8))]
    corpus = []
    budget = rng.randint(1, max_pairs)
    while budget > 0:
        length = rng.randint(1, min(6, budget))
        budget -= length
        corpus.append(
            [AlignedPair(rng.choice(e_syms), rng.choice(h_syms)) for _ in range(length)]
        )
    return corpus


# --- memorization corpus ---------------------------------------------------

# Consonant(+consonant)-vowel units; every English unit maps to exactly one
# Hindi akshara, so a model trained on names built from them is unambiguous.
CV_UNITS = [
    ("ra", "रा"), ("dhi", "धि"), ("ka", "का"), ("ma", "मा"), ("ta", "ता"),
    ("pa", "पा"), ("sa", "सा"), ("da", "दा"), ("ga", "गा"), ("ja", "जा"),
    ("la", "ला"), ("va", "वा"), ("sha", "शा"), ("cha", "चा"), ("ki", "की"),
    ("ti", "ती"), ("ni", "नी"), ("mi", "मी"), ("ri", "री"), ("si", "सी"),
    ("bu", "बू"), ("ku", "कू"), ("ru", "रू"), ("tu", "तू"), ("pu", "पू"),
]


def make_memorization_corpus(n=50, seed=7) -> list[ParallelEntry]:
    """n distinct (English, Hindi) names concatenated from CV_UNITS,
    always including Radhika."""
    rng = random.Random(seed)
    entries = {"radhika": ParallelEntry("Radhika", "राधिका")}
    while len(entries) < n:
        picks = [rng.choice(CV_UNITS) for _ in range(rng.randint(2, 4))]
        english = "".join(e for e, _ in picks)
        if english in entries:
            continue
        hindi = "".join(h for _, h in picks)
        entries[english] = ParallelEntry(english.capitalize(), hindi)
    return list(entries.values())


# --- segmentation references ----------------------------------------------

_LATIN_CONSONANTS = LATIN_LETTERS - frozenset("aeiouAEIOU")
_LATIN_NASALS_ANY_CASE = frozenset("nmNM")


def reference_phonify_latin(word: str) -> tuple[str, ...]:
    """Latin segmentation one character at a time: the units
    phonology.phonify_latin must reproduce, errors included.  `word` is
    taken as already NFC-normalized."""
    if not LATIN_LETTERS.issuperset(word):
        for idx, c in enumerate(word):
            if c not in LATIN_LETTERS:
                raise ScriptError(f"not a Latin letter: {c!r} at offset {idx} in {word!r}")

    consonants = _LATIN_CONSONANTS
    units = []
    i, n = 0, len(word)
    while i < n:
        j = i
        while j < n and word[j] in consonants:
            j += 1
        if j == n:  # trailing consonant run, no nucleus left
            k = n
        else:
            k = j + 1  # word[j] is the single vowel nucleus
            if k + 1 < n and word[k] in _LATIN_NASALS_ANY_CASE and word[k + 1] in consonants:
                k += 1
        units.append(word[i:k])
        i = k
    return tuple(units)


def reference_phonify_devanagari(word: str) -> tuple[str, ...]:
    """Akshara segmentation one character at a time: the units
    phonology.phonify_devanagari must reproduce, errors and offsets
    included.  `word` is taken as already NFC-normalized."""
    units = []
    i, n = 0, len(word)
    while i < n:
        c = word[i]
        start = i
        if c in DEV_INDEPENDENT_VOWELS:
            i += 1
            if i < n and word[i] in DEV_NASALIZATION:
                i += 1
        elif c in DEV_CONSONANTS:
            i += 1
            if i < n and word[i] == DEV_NUKTA:
                i += 1
            while i + 1 < n and word[i] == DEV_HALANT and word[i + 1] in DEV_CONSONANTS:
                i += 2
                if i < n and word[i] == DEV_NUKTA:
                    i += 1
            if i < n and word[i] == DEV_HALANT:
                i += 1  # dead consonant: trailing halant suppresses the vowel
            elif i < n and word[i] in DEV_MATRAS:
                i += 1
            if i < n and word[i] in DEV_NASALIZATION:
                i += 1
        elif c in DEV_MATRAS or c in DEV_NASALIZATION or c in (DEV_HALANT, DEV_NUKTA):
            raise MalformedWordError(f"dependent sign {c!r} with no base consonant", offset=i)
        else:
            raise ScriptError(f"not a Devanagari letter or sign: {c!r} at offset {i} in {word!r}")
        units.append(word[start:i])
    return tuple(units)


# --- annotation parsing reference -------------------------------------------

def reference_parse_inline(line: str):
    """`[[surface|CAT]]` parsing one character at a time: the parser
    pipeline.parse_inline must reproduce, error messages included."""
    out = []
    spans = []
    i, pos = 0, 0
    while i < len(line):
        if line.startswith("[[", i):
            close = line.find("]]", i + 2)
            if close == -1:
                raise AnnotationError(f"unclosed entity marker at offset {i}")
            body = line[i + 2 : close]
            if "[[" in body:
                raise AnnotationError(f"nested entity marker inside the one at offset {i}")
            sep = body.rfind("|")
            if sep <= 0:
                raise AnnotationError(f"entity marker at offset {i} lacks a |category")
            surface, cat_text = body[:sep], body[sep + 1 :]
            label = cat_text.strip().upper()
            matches = [cat for cat in EntityCategory if label in (cat.value, cat.name)]
            if not matches:
                raise AnnotationError(f"offset {i}: unknown entity category {cat_text!r}")
            spans.append(EntitySpan(pos, pos + len(surface), surface, matches[0]))
            out.append(surface)
            pos += len(surface)
            i = close + 2
        elif line.startswith("]]", i):
            raise AnnotationError(f"unbalanced ]] at offset {i}")
        else:
            out.append(line[i])
            pos += 1
            i += 1
    return "".join(out), spans


# --- letter-run scanning reference ------------------------------------------

def reference_transliterate_token(token, model, fallback, top_k):
    """Letter runs found one character at a time with str.isalpha(): the
    scanner decoder.decode_name must reproduce on an NFC word without
    whitespace (decode_name reads any text in NFC first), fallbacks and
    errors included.  Each run is segmented and decoded afresh, with no
    memo.  Returns (output, summed log score of the runs that decoded,
    whether any run fell back).  A run whose best path has probability 0
    falls back."""
    out = []
    score = 0.0
    fell_back = False
    i, n = 0, len(token)
    while i < n:
        if token[i].isalpha():
            j = i
            while j < n and token[j].isalpha():
                j += 1
            run = token[i:j]
            try:
                decoding = viterbi(model, phonify_latin(run).keys(), top_k)
                if decoding.score == NEG_INF:
                    raise ZeroProbabilityError(run)
                out.append("".join(decoding.hindi_sequence))
                score += decoding.score
            except (UnseenPhonemeError, ScriptError, ZeroProbabilityError):
                if fallback is Fallback.ERROR:
                    raise
                fell_back = True
                out.append(run if fallback is Fallback.COPY_SOURCE else UNK_OUTPUT)
            i = j
        else:
            out.append(token[i])
            i += 1
    return "".join(out), score, fell_back
