"""Monotone phoneme alignment of parallel named entities.

Transliteration preserves order, so alignment is a dynamic program over
three moves: match one English phoneme with one Hindi phoneme, skip an
English phoneme, or skip a Hindi phoneme.  Match weights come from a
cost table trained by expectation-maximization over the corpus; skips
carry a fixed penalty so the table stays stable on tiny corpora.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from .errors import CorpusError, NeTranslitError
from .kb import EntityCategory
from .phonology import PhonemeSequence, phonify_devanagari, phonify_latin

# Probability charged for every skip move; not re-estimated by EM.
SKIP_PENALTY = 1e-4


@dataclass(frozen=True)
class ParallelEntry:
    """One training record: an English entity and its Hindi counterpart."""

    english: str
    hindi: str
    category: EntityCategory | None = None

    def __post_init__(self):
        if not self.english or not self.hindi:
            raise ValueError("both sides of a parallel entry must be non-empty")


@dataclass(frozen=True)
class AlignedPair:
    """One matched (English phoneme, Hindi phoneme) correspondence."""

    e: str
    h: str

    def __post_init__(self):
        if not self.e or not self.h:
            raise ValueError("aligned phonemes must be non-empty")


@dataclass
class AlignmentCostTable:
    """Match probabilities P(hindi phoneme | english phoneme).

    Rows are normalized per English phoneme; pairs absent from the table
    fall back to `default`.
    """

    probs: dict[str, dict[str, float]] = field(default_factory=dict)
    default: float = 1e-9

    @classmethod
    def uniform(cls) -> "AlignmentCostTable":
        """A table that scores every match the same (and above any skip)."""
        return cls({}, default=1.0)

    def prob(self, e: str, h: str) -> float:
        row = self.probs.get(e)
        if row is None:
            return self.default
        return row.get(h, self.default)

    def grid(self, e, h) -> list[list[float]]:
        """prob(e[i], h[j]) for every cell, as len(e) rows of len(h)."""
        default = self.default
        rows = []
        for x in e:
            row = self.probs.get(x)
            rows.append([default] * len(h) if row is None else [row.get(y, default) for y in h])
        return rows

    def validate(self, tolerance: float = 1e-9) -> None:
        for e, row in self.probs.items():
            if not row:
                raise ValueError(f"empty cost row for {e!r}")
            total = sum(row.values())
            if abs(total - 1.0) > tolerance:
                raise ValueError(f"cost row for {e!r} sums to {total!r}")
            for h, p in row.items():
                if not 0.0 < p <= 1.0:
                    raise ValueError(f"cost for ({e!r}, {h!r}) out of range: {p!r}")


def _keys(seq) -> list[str]:
    if isinstance(seq, PhonemeSequence):
        return seq.keys()
    return [str(s) for s in seq]


_MATCH, _SKIP_E, _SKIP_H = 1, 2, 3


def align_monotone(e_seq, h_seq, costs: AlignmentCostTable) -> list[AlignedPair]:
    """Best monotone alignment of two phoneme sequences; match pairs only.

    Maximizes the product of match probabilities with SKIP_PENALTY per
    skipped phoneme.  Ties prefer match over skip-English over skip-Hindi,
    which also makes equal-length inputs under a uniform table align
    positionally.
    """
    e = _keys(e_seq)
    h = _keys(h_seq)
    m, n = len(e), len(h)
    neg = float("-inf")
    log = math.log
    log_skip = log(SKIP_PENALTY)
    log_grid = [[log(p) if p > 0.0 else neg for p in row] for row in costs.grid(e, h)]

    # Row by row over i = 0..m; move[i][j] is the last move of the best
    # path to (i, j).  Every cell but (0, 0) has a finite skip score, so
    # the match move, tried first, only loses to a strictly better skip.
    prev = [0.0]
    for _ in range(n):
        prev.append(prev[-1] + log_skip)
    move = [[0] + [_SKIP_H] * n]
    for logs in log_grid:
        left = prev[0] + log_skip
        row, moves = [left], [_SKIP_E]
        for diag, up, lp in zip(prev, prev[1:], logs):
            best, mv = diag + lp, _MATCH
            s = up + log_skip
            if s > best:
                best, mv = s, _SKIP_E
            s = left + log_skip
            if s > best:
                best, mv = s, _SKIP_H
            row.append(best)
            moves.append(mv)
            left = best
        move.append(moves)
        prev = row

    pairs: list[AlignedPair] = []
    i, j = m, n
    while i > 0 or j > 0:
        mv = move[i][j]
        if mv == _MATCH:
            pairs.append(AlignedPair(e[i - 1], h[j - 1]))
            i, j = i - 1, j - 1
        elif mv == _SKIP_E:
            i -= 1
        else:
            j -= 1
    pairs.reverse()
    return pairs


def _forward_backward(e, h, costs: AlignmentCostTable) -> tuple[float, list[tuple[str, str, float]]]:
    """Log total probability over all monotone alignments, plus match posteriors.

    EM calls this once per distinct (e, h) pair per iteration.  The match
    probability of every cell is read once, from the m x n grid
    `costs.grid(e, h)`.  Every forward row i is scaled by its
    sum c_i and every backward row i by the same c_i (Rabiner 1989, section
    V-A), so long entries do not underflow: log z is the log of the scaled
    last forward cell plus the sum of log c_i, and a match posterior is
    scaled forward * match * scaled backward / scaled last forward cell.
    Returns -inf and no posteriors only if that scaled last cell is zero.
    """
    m, n = len(e), len(h)
    eps = SKIP_PENALTY
    grid = costs.grid(e, h)

    # Forward over i = 0..m: alpha[i][j] covers e[:i] and h[:j], reached by
    # a match from (i-1, j-1), skip-English from (i-1, j) or skip-Hindi from
    # (i, j-1).  Each row is stored before scaling, so scaled row i is
    # alpha[i] / scales[i]; the next row divides by scales[i] as it reads it.
    edge = [eps**j for j in range(n + 1)]  # first forward row, last backward row reversed
    row = edge
    c = sum(row)
    scales = [c]
    alpha = [row]
    for probs in grid:
        prev = row
        inv = 1.0 / c
        v = prev[0] * eps * inv
        row = [v]
        for d, p, u in zip(prev, probs, prev[1:]):
            v = (d * p + u * eps) * inv + v * eps
            row.append(v)
        c = sum(row)
        scales.append(c)
        alpha.append(row)
    last = row[n] / c
    if last == 0.0:
        return float("-inf"), []

    # Backward over i = m..0, stored scaled: beta[i] is the probability of
    # finishing from (i, j), divided by scales[i] * ... * scales[m].
    row = [x / c for x in reversed(edge)]
    beta = [row]
    for i in range(m - 1, -1, -1):
        nxt = row
        inv = 1.0 / scales[i]
        v = eps * nxt[n] * inv
        row = [v]
        for p, b1, b0 in zip(reversed(grid[i]), reversed(nxt), reversed(nxt[:n])):
            v = (p * b1 + eps * b0) * inv + eps * v
            row.append(v)
        row.reverse()
        beta.append(row)
    beta.reverse()

    posteriors = []
    for i in range(1, m + 1):
        ei = e[i - 1]
        k = 1.0 / (scales[i - 1] * last)
        for hj, a, p, b in zip(h, alpha[i - 1], grid[i - 1], beta[i][1:]):
            w = a * p * b
            if w > 0.0:
                posteriors.append((ei, hj, w * k))
    return math.log(last) + sum(map(math.log, scales)), posteriors


def entry_keys(entry: ParallelEntry) -> tuple[list[str], list[str]]:
    """Phonify both sides of an entry, token by token, into model keys."""
    e_keys: list[str] = []
    for token in entry.english.split():
        e_keys.extend(phonify_latin(token).keys())
    h_keys: list[str] = []
    for token in entry.hindi.split():
        h_keys.extend(phonify_devanagari(token).keys())
    return e_keys, h_keys


def _distinct_pairs(corpus) -> Counter:
    """Occurrences of each distinct usable (e_keys, h_keys) pair, as tuples,
    in first-seen order.  Each distinct entry is phonified once."""
    pairs: Counter = Counter()
    for entry, count in Counter(corpus).items():
        try:
            e_keys, h_keys = entry_keys(entry)
        except NeTranslitError:
            continue  # skipped entries are reported by build_aligned_corpus
        if e_keys and h_keys:
            pairs[(tuple(e_keys), tuple(h_keys))] += count
    return pairs


def corpus_log_likelihood(corpus, costs: AlignmentCostTable) -> float:
    """Sum of log total alignment probability over all usable entries,
    each duplicate counted."""
    return sum(
        (count * _forward_backward(e_keys, h_keys, costs)[0]
         for (e_keys, h_keys), count in _distinct_pairs(corpus).items()),
        0.0,
    )


def em_train_alignment(corpus, iterations: int = 10) -> AlignmentCostTable:
    """Estimate match costs by EM over all monotone alignments.

    Starts uniform, then repeatedly collects posterior (soft) match counts
    and renormalizes them per English phoneme.  Each iteration runs one
    scaled forward-backward per distinct phonified (e_keys, h_keys) pair
    and adds its posteriors times the pair's multiplicity, which equals
    one pass per occurrence.  Entries that fail phonification are skipped,
    never fatal.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    pairs = _distinct_pairs(corpus)
    if not pairs:
        raise ValueError("no usable entries in the corpus")

    h_vocab = sorted({h for _, hk in pairs for h in hk})
    e_vocab = sorted({e for ek, _ in pairs for e in ek})
    u = 1.0 / len(h_vocab)
    costs = AlignmentCostTable({e: {h: u for h in h_vocab} for e in e_vocab})

    for _ in range(iterations):
        soft: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for (e_keys, h_keys), count in pairs.items():
            _, posteriors = _forward_backward(e_keys, h_keys, costs)
            for e, h, w in posteriors:
                soft[e][h] += w * count
        probs = {}
        for e, row in soft.items():
            total = sum(row.values())
            probs[e] = {h: c / total for h, c in sorted(row.items())}
        costs = AlignmentCostTable(probs)
    return costs


def build_aligned_corpus(
    corpus, costs: AlignmentCostTable
) -> tuple[list[list[AlignedPair]], list[str]]:
    """Hard-align every entry with the trained costs.

    Returns the per-entry aligned pair lists plus a record for each entry
    that had to be skipped (phonification failure or an empty side), one
    per occurrence and in input order.  Each distinct entry is phonified
    and aligned once; its duplicates get copies of that result.
    """
    aligned: list[list[AlignedPair]] = []
    skipped: list[str] = []
    done: dict[ParallelEntry, list[AlignedPair] | str] = {}
    for entry in corpus:
        result = done.get(entry)
        if result is None:
            try:
                e_keys, h_keys = entry_keys(entry)
            except NeTranslitError as exc:
                result = f"{entry.english}\t{entry.hindi}: {exc}"
            else:
                if e_keys and h_keys:
                    result = align_monotone(e_keys, h_keys, costs)
                else:
                    result = f"{entry.english}\t{entry.hindi}: no phonemes on one side"
            done[entry] = result
        if isinstance(result, str):
            skipped.append(result)
        else:
            aligned.append(list(result))
    return aligned, skipped


def aligned_pair_counts(aligned_corpus) -> Counter:
    """Counts of match pairs, for the inspection dump."""
    counts: Counter = Counter()
    for pairs in aligned_corpus:
        for p in pairs:
            counts[(p.e, p.h)] += 1
    return counts


def load_corpus(path) -> tuple[list[ParallelEntry], list[str]]:
    """Read a parallel corpus file.

    One entry per line, english<TAB>hindi with an optional third category
    column; '#' starts a comment.  Malformed lines become warnings, not
    errors, so one bad line cannot ruin a training run.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CorpusError(f"cannot read corpus {path}: {exc}") from exc
    entries: list[ParallelEntry] = []
    warnings: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) not in (2, 3) or not cols[0].strip() or not cols[1].strip():
            warnings.append(f"line {lineno}: expected english<TAB>hindi[<TAB>category]")
            continue
        category = None
        if len(cols) == 3:
            try:
                category = EntityCategory.parse(cols[2].strip())
            except ValueError:
                warnings.append(f"line {lineno}: unknown category {cols[2].strip()!r}")
                continue
        entries.append(ParallelEntry(cols[0].strip(), cols[1].strip(), category))
    return entries, warnings
