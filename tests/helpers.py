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
    entry_keys,
)
from ne_translit.errors import AnnotationError, NeTranslitError, ScriptError, UnseenPhonemeError
from ne_translit.decoder import UNK_OUTPUT, Fallback, candidates, viterbi
from ne_translit.kb import EntityCategory
from ne_translit.model import BOS, EOS, TransliterationModel
from ne_translit.phonology import phonify_latin
from ne_translit.pipeline import EntitySpan

NEG_INF = float("-inf")


def _log(p: float) -> float:
    return math.log(p) if p > 0.0 else NEG_INF


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
            yield from walk(i + 1, j + 1, pairs, score + _log(costs.prob(e[i], h[j])))
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
                terms.append(prev[j - 1] + _log(costs.prob(e[i - 1], h[j - 1])))
            if i:
                terms.append(prev[j] + log_skip)
            if j:
                terms.append(row[j - 1] + log_skip)
            top = max(terms)
            row.append(top + math.log(sum(math.exp(t - top) for t in terms)))
        prev = row
    return prev[-1]


def reference_em(corpus, iterations):
    """EM by brute-force posteriors, one pass per corpus occurrence; only
    the phonification (`entry_keys`) is shared with the package."""
    prepared = []
    for entry in corpus:
        try:
            e_keys, h_keys = entry_keys(entry)
        except NeTranslitError:
            continue
        if e_keys and h_keys:
            prepared.append((e_keys, h_keys))
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


def reference_align_monotone(e, h, costs):
    """The hard aligner cell by cell, one costs.prob call per cell: the
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
                s = score[i - 1][j - 1] + _log(costs.prob(e[i - 1], h[j - 1]))
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
    score = sum(_log(costs.prob(pe, ph)) for pe, ph in pairs)
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


# --- exhaustive decoding oracle -------------------------------------------

def exhaustive_decode(model, keys, top_k=10):
    """Argmax over every candidate sequence, same objective and tie-break
    as the decoder: larger score wins, equal scores pick the
    code-point-smallest sequence."""
    lattice = [candidates(model, e, top_k) for e in keys]
    assert all(lattice), "oracle needs a candidate at every position"
    best_score, best_seq = NEG_INF, None
    for combo in itertools.product(*lattice):
        seq = tuple(c.h for c in combo)
        score = 0.0
        prev = BOS
        for h, c in zip(seq, combo):
            score = score + _log(model.transition_prob(prev, h))
            score = score + _log(c.emission)
            prev = h
        score = score + _log(model.transition_prob(prev, EOS))
        if best_seq is None or score > best_score or (score == best_score and seq < best_seq):
            best_score, best_seq = score, seq
    return best_seq, best_score


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

    model = TransliterationModel(
        emission=emission,
        transition=transition,
        emission_floor={h: 0.0 for h in emission},
        transition_floor={p: 0.0 for p in transition},
        e_vocab=frozenset(e_syms),
        h_vocab=frozenset(h_syms),
        smoothing_k=0.0,
    )
    model.validate()
    return model


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

def reference_transliterate_token(token, model, config):
    """Letter runs found one character at a time with str.isalpha(): the
    scanner pipeline._transliterate_token must reproduce, fallbacks and
    errors included."""
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
                decoding = viterbi(model, phonify_latin(run), config.top_k)
                out.append("".join(decoding.hindi_sequence))
                score += decoding.score
            except (UnseenPhonemeError, ScriptError):
                if config.fallback is Fallback.ERROR:
                    raise
                fell_back = True
                out.append(run if config.fallback is Fallback.COPY_SOURCE else UNK_OUTPUT)
            i = j
        else:
            out.append(token[i])
            i += 1
    return "".join(out), score, fell_back
