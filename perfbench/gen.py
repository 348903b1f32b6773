"""Deterministic synthetic inputs for the three benchmark workloads.

Gold outputs come from the unit tables in this file, never from package
code.  The vocabulary (unit tables, name pools and their Zipf rank order)
is fixed; the workload seed draws the corpus, the word stream and the
sentences from it, so a new seed gives new inputs of the same shape.
"""

from __future__ import annotations

import itertools
import random

# Devanagari consonants with their romanisation.  Several letters share a
# romanisation (t -> त/ट, sh -> श/ष, ...), as in real mined corpora.
CONSONANTS = [
    ("क", "k"), ("ख", "kh"), ("ग", "g"), ("च", "ch"), ("ज", "j"), ("ट", "t"),
    ("ठ", "th"), ("ड", "d"), ("ढ", "dh"), ("ण", "n"), ("त", "t"), ("थ", "th"), ("द", "d"), ("ध", "dh"), ("न", "n"),
    ("प", "p"), ("फ", "ph"), ("ब", "b"), ("भ", "bh"), ("म", "m"), ("य", "y"),
    ("र", "r"), ("ल", "l"), ("व", "v"), ("श", "sh"), ("ष", "sh"), ("स", "s"),
    ("ह", "h"),
]
# Matra (empty for the inherent vowel) with its romanisation.  Long vowels
# and diphthongs are written with two Latin vowels, as names usually are.
MATRAS = [
    ("", "a"), ("ा", "aa"), ("ि", "i"), ("ी", "ee"), ("ु", "u"),
    ("ू", "oo"), ("े", "e"), ("ै", "ai"), ("ो", "o"), ("ौ", "au"),
]
AKSHARAS = [(cl + ml, c + m) for (c, cl), (m, ml) in itertools.product(CONSONANTS, MATRAS)]

# Consonant-vowel units that map one-to-one onto aksharas (the memorization
# units of the test suite): a model trained on them decodes exactly.
CV_UNITS = [
    ("ra", "रा"), ("dhi", "धि"), ("ka", "का"), ("ma", "मा"), ("ta", "ता"),
    ("pa", "पा"), ("sa", "सा"), ("da", "दा"), ("ga", "गा"), ("ja", "जा"),
    ("la", "ला"), ("va", "वा"), ("sha", "शा"), ("cha", "चा"), ("ki", "की"),
    ("ti", "ती"), ("ni", "नी"), ("mi", "मी"), ("ri", "री"), ("si", "सी"),
    ("bu", "बू"), ("ku", "कू"), ("ru", "रू"), ("tu", "तू"), ("pu", "पू"),
]

VOCAB_SEED = "ne-translit-bench-vocabulary"
ZIPF_EXPONENT = 1.0
WORD_POOL = 6000  # names the word stream draws from; the extra ones are unseen
EM_ITERATIONS = 10


def _join(picks) -> tuple[str, str]:
    """(English, Hindi) name spelled by a list of (Latin, Devanagari) units."""
    return "".join(e for e, _ in picks).capitalize(), "".join(h for _, h in picks)


def name_pool(size: int) -> list[tuple[str, str]]:
    """`size` distinct (English, Hindi) names of 2-4 aksharas, in Zipf rank
    order.  An English spelling is kept once, so its gold is unambiguous."""
    rng = random.Random(VOCAB_SEED)
    pool: dict[str, str] = {}
    while len(pool) < size:
        english, hindi = _join([rng.choice(AKSHARAS) for _ in range(rng.randint(2, 4))])
        pool.setdefault(english, hindi)
    return list(pool.items())


def zipf_draws(rng: random.Random, items: list, n: int) -> list:
    weights = [1.0 / (rank ** ZIPF_EXPONENT) for rank in range(1, len(items) + 1)]
    return rng.choices(items, weights=weights, k=n)


def train_corpus(seed: int, names: int, n: int) -> list[tuple[str, str]]:
    """A mined-style corpus of n >= names entries: each of the first `names`
    names of the word pool once, plus repeats drawn Zipfian, in shuffled
    order.  The distinct training words are the same for every seed, so
    accuracy on them varies with the seed only through the model."""
    rng = random.Random(f"{seed}:train")
    pool = name_pool(WORD_POOL)[:names]
    corpus = pool + zipf_draws(rng, pool, n - names)
    rng.shuffle(corpus)
    return corpus


def word_stream(seed: int, n: int) -> list[tuple[str, str]]:
    """(word, gold) drawn Zipfian over a pool larger than the training one."""
    rng = random.Random(f"{seed}:words")
    return zipf_draws(rng, name_pool(WORD_POOL), n)


def cv_training_corpus() -> list[tuple[str, str]]:
    """Names built from CV units, every unit at least once."""
    rng = random.Random(VOCAB_SEED)
    corpus: dict[str, str] = {}
    for i, unit in enumerate(CV_UNITS):
        english, hindi = _join([unit, CV_UNITS[(i + 7) % len(CV_UNITS)]])
        corpus[english] = hindi
    while len(corpus) < 300:
        english, hindi = _join([rng.choice(CV_UNITS) for _ in range(rng.randint(2, 4))])
        corpus.setdefault(english, hindi)
    return list(corpus.items())


class _TokenSource:
    """Fresh CV-unit tokens; no token is handed out twice."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def token(self) -> tuple[str, str]:
        while True:
            english, hindi = _join([self.rng.choice(CV_UNITS) for _ in range(self.rng.randint(2, 4))])
            if english not in self.used:
                self.used.add(english)
                return english, hindi

    def name(self, tokens: int) -> tuple[str, str]:
        parts = [self.token() for _ in range(tokens)]
        return " ".join(e for e, _ in parts), " ".join(h for _, h in parts)


# Text between the entities.  Non-ASCII punctuation and doubled spaces check
# that the pipeline leaves everything outside the spans byte-identical.
TEMPLATES = [
    ("", " met the head of ", " in ", " on Monday."),
    ("", " told reporters that ", " will open an office in ", " next year."),
    ("On Friday ", " visited ", "’s campus near ", "  — officials said."),
    ("", " (a founder of ", ") moved to ", " in 2019; ₹2 crore was raised."),
]
KB_SUFFIX = {"ORG": " संघ", "LOC": " नगर"}


def sentences(seed: int, n: int, kb_rows: int):
    """Annotated sentences, each with one PER, one ORG and one LOC mention.

    Returns (lines, gold, kb, kb_mentions): gold[i] is (the template's
    outside text pieces, gold entity outputs), kb is a list of (english,
    hindi, category) rows, and kb_mentions counts the ORG/LOC mentions that
    are KB rows.  About half of the ORG/LOC mentions are KB rows; the rest, and
    every person name, are fresh names that must be transliterated.
    """
    rng = random.Random(f"{seed}:sentences")
    tokens = _TokenSource(rng)
    kb = []
    for i in range(kb_rows):
        category = "ORG" if i % 2 == 0 else "LOC"
        english, hindi = tokens.name(rng.randint(2, 3))
        kb.append((english, hindi + KB_SUFFIX[category], category))
    kb_by_cat = {c: [row for row in kb if row[2] == c] for c in ("ORG", "LOC")}

    lines, gold, kb_mentions = [], [], 0
    for _ in range(n):
        pieces = rng.choice(TEMPLATES)
        entities = [("PER", *tokens.name(rng.randint(1, 2)))]
        for category in ("ORG", "LOC"):
            if rng.random() < 0.5:
                english, hindi, _ = rng.choice(kb_by_cat[category])
                kb_mentions += 1
            else:
                english, hindi = tokens.name(rng.randint(2, 3))
            entities.append((category, english, hindi))
        parts = [pieces[0]]
        for (category, english, _), tail in zip(entities, pieces[1:]):
            parts.append(f"[[{english}|{category}]]{tail}")
        lines.append("".join(parts))
        gold.append((pieces, [hindi for _, _, hindi in entities]))
    return lines, gold, kb, kb_mentions
