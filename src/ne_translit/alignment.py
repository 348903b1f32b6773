"""Monotone phoneme alignment of parallel named entities.

Transliteration preserves order, so alignment is a dynamic program over
three moves: match one English phoneme with one Hindi phoneme, skip an
English phoneme, or skip a Hindi phoneme.  Match weights come from a
cost table trained by expectation-maximization over the corpus; skips
carry a fixed penalty so the table stays stable on tiny corpora.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from operator import getitem, mul
from pathlib import Path
from typing import NamedTuple

from .errors import CorpusError, NeTranslitError
from .kb import EntityCategory
from .phonology import phonify_devanagari, phonify_latin
from .textfile import read_lines

# Probability charged for every skip move; not re-estimated by EM.
SKIP_PENALTY = 1e-4

_NO_USABLE_ENTRIES = "no usable entries in the corpus"


@dataclass(frozen=True)
class ParallelEntry:
    """One training record: an English entity and its Hindi counterpart."""

    english: str
    hindi: str

    def __post_init__(self):
        if not self.english or not self.hindi:
            raise ValueError("both sides of a parallel entry must be non-empty")

    @cached_property
    def keys(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """Both sides phonified token by token into model keys, as
        (e_keys, h_keys); computed on first use and kept, so EM and the
        hard alignment phonify an entry once.  Raises the phonifier's
        error, or CorpusError for a side with no phonemes."""
        e_keys = tuple(key for token in self.english.split() for key in phonify_latin(token).keys())
        h_keys = tuple(key for token in self.hindi.split() for key in phonify_devanagari(token).keys())
        if not e_keys or not h_keys:
            raise CorpusError("no phonemes on one side")
        return e_keys, h_keys


class AlignedPair(NamedTuple):
    """One matched (English phoneme, Hindi phoneme) correspondence.  It
    checks nothing: the model built from it rejects a bad phoneme."""

    e: str
    h: str


@dataclass
class AlignmentCostTable:
    """Match probabilities P(hindi phoneme | english phoneme).

    Rows are normalized per English phoneme; pairs absent from the table
    fall back to `default`.
    """

    probs: dict[str, dict[str, float]] = field(default_factory=dict)
    default: float = 1e-9

    def grid(self, e, h) -> list[list[float]]:
        """The match probability of every cell (e[i], h[j]), as len(e) rows of len(h)."""
        default = self.default
        rows = []
        for x in e:
            row = self.probs.get(x)
            rows.append([default] * len(h) if row is None else [row.get(y, default) for y in h])
        return rows


_MATCH, _SKIP_E, _SKIP_H = 1, 2, 3


def align_monotone(e, h, costs: AlignmentCostTable) -> list[AlignedPair]:
    """Best monotone alignment of two key sequences; match pairs only.

    Maximizes the product of match probabilities with SKIP_PENALTY per
    skipped phoneme.  Ties prefer match over skip-English over skip-Hindi,
    which also makes equal-length inputs under a uniform table align
    positionally.
    """
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


def _batched_passes(grid, edge, size):
    """Scaled forward-backward over a batch of `size` pairs of one shape
    (m, n), all of them together.

    `grid[i][j]` holds the match probability of (e[i], h[j]) of every
    pair of the batch, in batch order, for m rows and n columns.  `edge`
    is the first forward row, [SKIP_PENALTY**j for j in 0..n].  Each step
    below is one list comprehension across the batch, and a row sum is
    the builtin `sum` of one pair's row in column order, so every pair's
    floats come from the same operations in the same order as in a pass
    over that pair alone.

    Every forward row i is scaled by its sum c_i and every backward row i
    by the same c_i (Rabiner 1989, section V-A), so long entries do not
    underflow.  The backward pass keeps only the row it reads, and takes
    each cell's posterior (scaled forward * match * scaled backward /
    scaled last forward cell) in the step that computes the cell's
    backward value.  Returns the row sums c_0..c_m (each a list over the
    batch), the scaled last forward cell of each pair, and one array of
    posteriors, -1.0 for a cell whose posterior is not above 0.  The
    array runs from cell (m-1, n-1) back to (0, 0), the batch side by
    side in each cell, so `post[b - size::-size]` is pair b's in (i, j)
    order.  log z is log(last) plus the sum of log c_i; a pair whose last
    cell is 0 reads -1.0 in every cell.
    """
    eps = SKIP_PENALTY

    # Forward over i = 0..m: alpha[i][j] covers e[:i] and h[:j], reached by
    # a match from (i-1, j-1), skip-English from (i-1, j) or skip-Hindi from
    # (i, j-1).  Each row is stored before scaling, so scaled row i is
    # alpha[i] / sums[i]; the next row divides by sums[i] as it reads it.
    row = [[x] * size for x in edge]
    sums = [[sum(edge)] * size]
    alpha = []
    for probs in grid:
        prev = row
        alpha.append(prev)
        inv = [1.0 / c for c in sums[-1]]
        v = [d * eps * r for d, r in zip(prev[0], inv)]
        row = [v]
        for d, p, u in zip(prev, probs, prev[1:]):
            v = [(dd * pp + uu * eps) * r + vv * eps for dd, pp, uu, r, vv in zip(d, p, u, inv, v)]
            row.append(v)
        sums.append(list(map(sum, zip(*row))))
    lasts = [x / c for x, c in zip(row[-1], sums[-1])]

    # Backward over i = m..0, each row held scaled and in reverse column
    # order: nxt[t] is the probability of finishing from (i + 1, n - t),
    # divided by sums[i + 1] * ... * sums[m].  Walking j down from n - 1,
    # `b` holds the backward value of (i + 1, j + 1).  A pair whose last
    # cell is 0 gets k = -1.0, not a division by 0: its cells read below 0.
    post = array("d")
    nxt = [[x / c for c in sums[-1]] for x in edge]
    for i in range(len(grid) - 1, -1, -1):
        inv = [1.0 / c for c in sums[i]]
        k = [1.0 / (c * last) if last else -1.0 for c, last in zip(sums[i], lasts)]
        b = nxt[0]
        v = [eps * bb * r for bb, r in zip(b, inv)]
        row = [v]
        for p, a, b0 in zip(reversed(grid[i]), alpha[i][-2::-1], nxt[1:]):
            post.fromlist([w * q if w > 0.0 else -1.0 for w, q in zip(map(mul, map(mul, a, p), b), k)])
            v = [(pp * bb + eps * bb0) * r + eps * vv for pp, bb, bb0, r, vv in zip(p, b, b0, inv, v)]
            row.append(v)
            b = b0
        nxt = row
    return sums, lasts, post


def _forward_backward(e, h, costs: AlignmentCostTable) -> tuple[float, list[tuple[str, str, float]]]:
    """Log total probability over all monotone alignments, plus the match
    posteriors (e[i], h[j], w) in (i, j) order.

    Reads the m x n grid `costs.grid(e, h)` once and runs EM's passes,
    `_batched_passes`, on a batch of one.  Returns -inf and no posteriors
    only if the scaled last forward cell is zero.
    """
    grid = [[(p,) for p in row] for row in costs.grid(e, h)]
    sums, (last,), post = _batched_passes(grid, [SKIP_PENALTY**j for j in range(len(h) + 1)], 1)
    if last == 0.0:
        return float("-inf"), []
    return math.log(last) + sum(math.log(c) for c, in sums), [
        (x, y, w) for (x, y), w in zip(product(e, h), reversed(post)) if w >= 0.0
    ]


def _distinct_pairs(corpus) -> Counter:
    """Occurrences of each distinct usable (e_keys, h_keys) pair in
    first-seen order, read from each distinct entry's `keys`."""
    pairs: Counter = Counter()
    for entry, count in Counter(corpus).items():
        try:
            pairs[entry.keys] += count
        except NeTranslitError:
            continue  # skipped entries are reported by build_aligned_corpus
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
    never fatal; a CorpusError is raised if no entry phonifies.

    The E-step runs on ints, one batch per shape.  Phonemes are numbered
    once, each side in sorted order, and each distinct pair is coded once
    as ids.  The costs are dense rows per English phoneme, filled with the
    table's default, so a grid cell is a list index.  All distinct pairs
    of one shape (len(e_keys), len(h_keys)) go through one
    `_batched_passes` call per iteration.  The posteriors of every batch
    are held until the last batch has run, then added into an int-keyed
    table pair by pair in first-seen order, each pair's cells in (i, j)
    order, as a pass per pair would add them.  The string-keyed table is
    built once, at the end.  Every float comes from the same operations
    in the same order as in a string-keyed EM that stores whole forward
    and backward tables, with the builtin `sum` for the row sums and the
    row totals, so the costs are bit-identical to that EM's under every
    Python version (`sum` is compensated from 3.12 on).
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    pairs = _distinct_pairs(corpus)
    if not pairs:
        raise CorpusError(_NO_USABLE_ENTRIES)

    h_vocab = sorted({h for _, hk in pairs for h in hk})
    e_vocab = sorted({e for ek, _ in pairs for e in ek})
    width = len(h_vocab)
    h_id = {h: j for j, h in enumerate(h_vocab)}
    e_id = {e: i for i, e in enumerate(e_vocab)}
    # Dense cost rows, one per English phoneme, refilled in place (`row_of`).
    u = 1.0 / width
    cost = [[u] * width for _ in e_vocab]
    blank = [AlignmentCostTable.default] * width
    row_of = cost.__getitem__
    # Each distinct pair as (English ids, Hindi ids, multiplicity), in
    # first-seen order.  A batch holds the pairs of one shape (m, n): their
    # English ids by row and Hindi ids by column, each a tuple over the
    # batch, then its first forward row and its size.  Each pair then gets
    # its batch's index and its own slice of that batch's posteriors.
    coded = [(tuple([e_id[e] for e in e_keys]), tuple([h_id[h] for h in h_keys]), count)
             for (e_keys, h_keys), count in pairs.items()]
    shapes: dict[tuple[int, int], list[int]] = defaultdict(list)
    for index, (es, hs, _) in enumerate(coded):
        shapes[len(es), len(hs)].append(index)
    batches = []
    for k, ((_, n), members) in enumerate(shapes.items()):
        size = len(members)
        batches.append((list(zip(*(coded[b][0] for b in members))), list(zip(*(coded[b][1] for b in members))),
                        [SKIP_PENALTY**j for j in range(n + 1)], size))
        for lane, b in enumerate(members):
            coded[b] += (k, slice(lane - size, None, -size))

    for _ in range(iterations):
        soft: dict[int, dict[int, float]] = defaultdict(lambda: defaultdict(float))
        posts = [
            _batched_passes([[list(map(getitem, rows, hs)) for hs in h_cols]
                             for rows in (list(map(row_of, es)) for es in e_rows)], edge, size)[2]
            for e_rows, h_cols, edge, size in batches
        ]
        # Soft counts in first-seen pair order, each pair's in (i, j) order.
        for es, hs, count, k, own in coded:
            for (i, j), w in zip(product(es, hs), posts[k][own]):
                if w >= 0.0:
                    soft[i][j] += w * count
        del posts  # before the next iteration's passes
        for row in cost:
            row[:] = blank
        for i, counts in soft.items():
            total = sum(counts.values())
            row = cost[i]
            for j, c in counts.items():
                row[j] = c / total
    return AlignmentCostTable(
        {e_vocab[i]: {h_vocab[j]: cost[i][j] for j in sorted(counts)} for i, counts in soft.items()}
    )


def build_aligned_corpus(
    corpus, costs: AlignmentCostTable
) -> tuple[list[list[AlignedPair]], list[str]]:
    """Hard-align every entry with the trained costs.

    Returns the match-pair lists of the entries that kept at least one,
    plus one record for each entry left out (its `keys` failed, or no
    match pair survived the alignment), both per occurrence and in input
    order.  Each distinct entry is aligned once; its duplicates get
    copies of that result.
    """
    aligned: list[list[AlignedPair]] = []
    skipped: list[str] = []
    done: dict[ParallelEntry, list[AlignedPair] | str] = {}
    for entry in corpus:
        result = done.get(entry)
        if result is None:
            try:
                keys = entry.keys
            except NeTranslitError as exc:
                result = str(exc)
            else:
                result = align_monotone(*keys, costs) or "no match pair after alignment"
            done[entry] = result
        if isinstance(result, str):
            skipped.append(f"{entry.english}\t{entry.hindi}: {result}")
        else:
            aligned.append(list(result))
    return aligned, skipped


def align_corpus(
    corpus, iterations: int = 10
) -> tuple[AlignmentCostTable, list[list[AlignedPair]], list[str]]:
    """EM, then hard alignment: the trained costs, the pair lists of the
    entries that kept a match pair (in input order, ready for estimate),
    and a record per entry left out.  Raises CorpusError if none is usable."""
    costs = em_train_alignment(corpus, iterations)
    aligned, skipped = build_aligned_corpus(corpus, costs)
    if not aligned:
        raise CorpusError(_NO_USABLE_ENTRIES)
    return costs, aligned, skipped


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
    column; '#' starts a comment.  A category must be a known label, but
    training does not use it, so it is not kept: a name with and without
    one is the same entry.  Malformed lines become warnings, not errors,
    so one bad line cannot ruin a training run.
    """
    entries: list[ParallelEntry] = []
    warnings: list[str] = []
    for lineno, line in read_lines(Path(path), CorpusError, "corpus"):
        cols = line.split("\t")
        if len(cols) not in (2, 3) or not cols[0].strip() or not cols[1].strip():
            warnings.append(f"line {lineno}: expected english<TAB>hindi[<TAB>category]")
            continue
        if len(cols) == 3:
            try:
                EntityCategory.parse(cols[2].strip())
            except ValueError:
                warnings.append(f"line {lineno}: unknown category {cols[2].strip()!r}")
                continue
        entries.append(ParallelEntry(cols[0].strip(), cols[1].strip()))
    return entries, warnings
