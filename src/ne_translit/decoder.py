"""Viterbi decoding of English phoneme sequences into Hindi.

The decoded sequence maximizes the full path product: the start
transition, one emission and one incoming transition per position, and
the end transition.  Per-position composite scores (emission times both
neighboring transitions) are reported alongside as diagnostics.
Scores accumulate in log domain; ties pick the code-point-smallest
Hindi sequence so output is reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import ScriptError, UnseenPhonemeError
from .model import BOS, EOS, Candidate, TransliterationModel
from .phonology import PhonemeSequence, phonify_latin


class Fallback(Enum):
    """What to do with a word the model cannot decode: one with a phoneme
    the model has never seen, or with a letter outside the Latin script."""

    ERROR = "error"
    COPY_SOURCE = "copy"
    UNK_MARKER = "unk"


UNK_OUTPUT = "<unk>"

NEG_INF = float("-inf")

# Entries a model's decode memo holds before it is cleared and refilled.
MEMO_SIZE = 4096


@dataclass(frozen=True)
class Decoding:
    """One decoded word: Hindi phonemes (one per English phoneme), the
    total log score, and the per-position composite scores."""

    hindi_sequence: tuple[str, ...]
    score: float
    per_position: tuple[float, ...]


def candidates(model: TransliterationModel, e: str, top_k: int = 10) -> list[Candidate]:
    """Hindi phonemes observed with e, best emission first.

    Smoothing-floor values do not count as observations; an empty list
    means the English phoneme is unknown to the model.
    """
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    return list(model.candidate_index.get(e, ())[:top_k])


def _log(p: float) -> float:
    return math.log(p) if p > 0.0 else NEG_INF


def viterbi(model: TransliterationModel, e_seq, top_k: int = 10) -> Decoding:
    """Best Hindi sequence for an English phoneme sequence.

    Accepts a PhonemeSequence or an iterable of already-folded keys.
    Raises UnseenPhonemeError when some position has no candidates;
    the caller decides the fallback policy.  Successful decodings are
    memoized on the model, keyed by the phoneme keys and top_k.
    """
    keys = e_seq.keys() if isinstance(e_seq, PhonemeSequence) else [str(e) for e in e_seq]
    if not keys:
        raise ValueError("cannot decode an empty phoneme sequence")
    memo = model.decode_memo
    memo_key = (tuple(keys), top_k)
    decoding = memo.get(memo_key)
    if decoding is None:
        decoding = _decode(model, keys, top_k)
        # Each dict call is atomic, so threads sharing the model need no
        # lock: a race can only decode a word twice (same result) or let
        # the memo pass MEMO_SIZE by one entry per racing thread.
        if len(memo) >= MEMO_SIZE:
            memo.clear()
        memo[memo_key] = decoding
    return decoding


def _decode(model: TransliterationModel, keys, top_k) -> Decoding:
    lattice = []
    for pos, e in enumerate(keys):
        cs = candidates(model, e, top_k)
        if not cs:
            raise UnseenPhonemeError(e, pos)
        lattice.append([(c.h, _log(c.emission)) for c in cs])

    # Back-pointer Viterbi.  Each position keeps one entry (predecessor
    # index, h, score) per state, sorted so that the states' best prefixes
    # are in code-point order: a prefix is its predecessor's prefix plus h,
    # so that order is (predecessor index, h).  Scanning predecessors in
    # that order and keeping the first maximum then gives ties to the
    # code-point-smallest prefix without building any prefix tuple.
    log = math.log
    states = [(BOS, 0.0)]
    columns = []
    for column in lattice:
        prevs = [(psc, *_transition_row(model, h_prev)) for h_prev, psc in states]
        ranked = []
        for h, le in column:
            scores = [
                (psc + (log(p) if (p := row.get(h, floor)) > 0.0 else NEG_INF)) + le
                for psc, row, floor in prevs
            ]
            best = max(range(len(scores)), key=scores.__getitem__)
            ranked.append((best, h, scores[best]))
        ranked.sort()  # the h are distinct, so scores are never compared
        columns.append(ranked)
        states = [(h, sc) for _, h, sc in ranked]

    ends = [sc + _log(model.transition_prob(h, EOS)) for h, sc in states]
    last = max(range(len(ends)), key=ends.__getitem__)
    best_score = ends[last]
    if best_score == NEG_INF:
        # every path has a zero-probability transition, so all sequences tie;
        # the lexicographic tie-break reduces to the smallest candidate per slot
        best_seq = tuple(min(h for h, _ in column) for column in lattice)
    else:
        path = []
        for ranked in reversed(columns):
            last, h, _ = ranked[last]
            path.append(h)
        best_seq = tuple(reversed(path))

    per_position = []
    for i, h in enumerate(best_seq):
        h_prev = best_seq[i - 1] if i > 0 else BOS
        h_next = best_seq[i + 1] if i + 1 < len(best_seq) else EOS
        per_position.append(model.position_score(h_prev, h, h_next, keys[i]))
    return Decoding(best_seq, best_score, tuple(per_position))


def _transition_row(model: TransliterationModel, h_prev: str) -> tuple[dict[str, float], float]:
    """The observed targets of h_prev and the probability of any other
    target, so that row.get(h, floor) == model.transition_prob(h_prev, h)."""
    row = model.transition.get(h_prev)
    if row is None:  # no row: every target gets the same uniform guess
        return {}, model.transition_prob(h_prev, EOS)
    return row, model.transition_floor[h_prev]


def decode_word(model: TransliterationModel, word: str, top_k: int = 10) -> Decoding:
    """Phonify a single Latin word and decode it."""
    return viterbi(model, phonify_latin(word), top_k)


def transliterate(
    model: TransliterationModel,
    word: str,
    fallback: Fallback = Fallback.ERROR,
    top_k: int = 10,
) -> str:
    """Latin word in, Hindi string out: segment, decode, concatenate.

    The fallback policy applies to a word the model cannot decode: one
    with an unseen phoneme, or with a letter outside the Latin script such
    as the é of José.
    """
    try:
        seq = phonify_latin(word)
        if not seq:
            return ""
        decoding = viterbi(model, seq, top_k)
    except (ScriptError, UnseenPhonemeError):
        if fallback is Fallback.ERROR:
            raise
        return word if fallback is Fallback.COPY_SOURCE else UNK_OUTPUT
    return "".join(decoding.hindi_sequence)
