"""Viterbi decoding of English phoneme sequences into Hindi.

The decoded sequence maximizes the full path product: the start
transition, one emission and one incoming transition per position, and
the end transition.  Scores accumulate in log domain; ties pick the
code-point-smallest Hindi sequence so output is reproducible.  The
per-position composite scores that `transliterate --trace` prints come
from TransliterationModel.position_score over the decoded path.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import phonology
from .errors import ScriptError, UnseenPhonemeError, ZeroProbabilityError
from .model import TransliterationModel


class Fallback(Enum):
    """What to do with a word the model cannot decode: one with a phoneme
    the model has never seen, with a letter outside the Latin script, or
    whose every path has probability 0 (possible only without smoothing)."""

    ERROR = "error"
    COPY_SOURCE = "copy"
    UNK_MARKER = "unk"


UNK_OUTPUT = "<unk>"

NEG_INF = float("-inf")

# Entries a model's decode memo holds before it is cleared and refilled.
MEMO_SIZE = 4096


@dataclass(frozen=True)
class Decoding:
    """One decoded word: Hindi phonemes (one per English phoneme) and the
    total log score of the path."""

    hindi_sequence: tuple[str, ...]
    score: float


def candidates(model: TransliterationModel, e: str, top_k: int = 10) -> tuple[tuple[int, float], ...]:
    """(h id, log emission) for the top_k Hindi phonemes observed with e,
    best emission first, ties by code point: a slice of the model's
    decode_table column.  Ids index decode_table.symbols.

    Smoothing-floor values do not count as observations; an empty tuple
    means the English phoneme is unknown to the model.
    """
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    return model.decode_table.columns.get(e, ())[:top_k]


def viterbi(model: TransliterationModel, keys, top_k: int = 10) -> Decoding:
    """Best Hindi sequence for an English phoneme sequence.

    Takes the sequence's keys as a list or a tuple, such as
    phonify_latin(word).keys(); anything else is a TypeError.  Reads the
    model's decode_table: one candidates() slice of (h id, log emission)
    per position and the dense log-transition rows, so no logarithm is
    taken per decode.  Raises UnseenPhonemeError when some
    position has no candidates; the caller decides the fallback policy.
    Nothing is memoized here: decode_or_fallback keeps the per-model memo.
    """
    if not isinstance(keys, (list, tuple)):
        raise TypeError(f"viterbi takes a list or tuple of keys, not {type(keys).__name__}")
    if not keys:
        raise ValueError("cannot decode an empty phoneme sequence")

    # Back-pointer Viterbi over decode_table's int symbol ids (code-point
    # order).  Each position keeps one entry (predecessor index, h id,
    # score) per state, sorted so that the states' best prefixes are in
    # code-point order: a prefix is its predecessor's prefix plus h, so that
    # order is (predecessor index, h id).  Scanning predecessors in that
    # order and keeping the first maximum then gives ties to the
    # code-point-smallest prefix without building any prefix tuple.
    table = model.decode_table
    rows = table.rows
    boundary = len(rows) - 1  # BOS as a source, EOS as a target
    prevs = [(0.0, rows[boundary])]  # (score, transition row) per state
    columns = []
    for pos, e in enumerate(keys):
        cs = candidates(model, e, top_k)
        if not cs:
            raise UnseenPhonemeError(e, pos)
        if len(prevs) == 1:  # a single predecessor is every state's best
            psc, row = prevs[0]
            ranked = [(0, h, (psc + row[h]) + le) for h, le in cs]
        else:
            ranked = []
            for h, le in cs:
                scores = [(psc + row[h]) + le for psc, row in prevs]
                best = max(scores)
                ranked.append((scores.index(best), h, best))
        ranked.sort()  # the h are distinct, so scores are never compared
        columns.append(ranked)
        prevs = [(sc, rows[h]) for _, h, sc in ranked]

    ends = [sc + row[boundary] for sc, row in prevs]
    best_score = max(ends)
    symbols = table.symbols
    if best_score == NEG_INF:
        # every path has a zero-probability transition, so all sequences tie;
        # the lexicographic tie-break reduces to the smallest candidate per slot
        path = [symbols[min(h for _, h, _ in ranked)] for ranked in columns]
    else:
        last = ends.index(best_score)
        path = []
        for ranked in reversed(columns):
            last, h, _ = ranked[last]
            path.append(symbols[h])
        path.reverse()

    return Decoding(tuple(path), best_score)


def decode_or_fallback(
    model: TransliterationModel,
    word: str,
    fallback: Fallback = Fallback.ERROR,
    top_k: int = 10,
) -> tuple[str, Decoding | None]:
    """Segment a Latin word and decode it: (Hindi output, its Decoding).

    A word the model cannot decode (an unseen phoneme, a letter outside
    the Latin script such as the é of José, or a best path of probability
    0) gets the fallback output and None, or under Fallback.ERROR the
    error; the empty word gives ("", None).  Each word's outcome, its
    decoding or () for a word that falls back, is memoized on the model by
    the word as given and top_k, so a repeated word skips both
    segmentation and Viterbi; the policy is applied on every call, and
    under Fallback.ERROR a word that falls back is decoded again to raise.
    """
    memo = model.decode_memo
    memo_key = (word, top_k)
    found = memo.get(memo_key)
    if found is None or (not found and fallback is Fallback.ERROR):
        try:
            keys = phonology.phonify_latin(word).keys()
            if not keys:
                return "", None
            decoding = viterbi(model, keys, top_k)
            if decoding.score == NEG_INF:
                raise ZeroProbabilityError(word)
            found = "".join(decoding.hindi_sequence), decoding
        except (ScriptError, UnseenPhonemeError, ZeroProbabilityError):
            if fallback is Fallback.ERROR:
                raise
            found = ()
        # Each dict call is atomic, so threads sharing the model need no lock:
        # a race can only decode a word twice (same result) or let the memo
        # pass MEMO_SIZE by one entry per racing thread.
        if len(memo) >= MEMO_SIZE:
            memo.clear()
        memo[memo_key] = found
    if found:
        return found
    return (word if fallback is Fallback.COPY_SOURCE else UNK_OUTPUT), None


def transliterate(
    model: TransliterationModel,
    word: str,
    fallback: Fallback = Fallback.ERROR,
    top_k: int = 10,
) -> str:
    """Latin word in, Hindi string out (see decode_or_fallback)."""
    return decode_or_fallback(model, word, fallback, top_k)[0]
