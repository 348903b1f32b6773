"""Viterbi decoding of English phoneme sequences into Hindi.

decode_name is the decoder's one name-level function: every front door
decodes a name through it, and it alone keeps the per-model memo and
applies the fallback policy.  viterbi and candidates work on phoneme keys.

The decoded sequence maximizes the full path product: the start
transition, one emission and one incoming transition per position, and
the end transition.  Scores accumulate in log domain as floats, and a tie
is broken where it arises: each state keeps the best float score among
the prefixes that reach it, and of prefixes that score the same float the
code-point-smallest, so output is reproducible.  The result is therefore
the code-point-smallest best sequence only among rivals that tie at every
prefix: two paths whose prefix sums round apart but whose totals round to
the same float are not compared by code point.  The
per-position composite scores that `transliterate --trace` prints come
from TransliterationModel.position_score over a Decoding's path and keys.
"""

from __future__ import annotations

import unicodedata
from enum import Enum
from itertools import groupby
from typing import NamedTuple

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


class Decoding(NamedTuple):
    """One decoded word: Hindi phonemes, the total log score of the path,
    and the English key each Hindi phoneme emitted (one per phoneme)."""

    hindi_sequence: tuple[str, ...]
    score: float
    english: tuple[str, ...]


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
    taken per decode.  Each state of a several-state column costs one scan
    of the previous column's states, keeping the first maximum of
    (score + transition) + emission, and a sorted column of several states
    carries its transition rows, so it serves as the next position's
    predecessors as it stands.  While the lattice holds one state, a
    position with one candidate costs one addition, with nothing ranked or
    sorted; so a one-to-one model, or any model at top_k=1, decodes at
    that cost throughout.  The scores and the tie-break are those of the
    general case.  Returns the keys as the Decoding's english.  Raises
    UnseenPhonemeError when some position has no candidates; the caller
    decides the fallback policy.  decode_name keeps the per-model memo.
    """
    if not isinstance(keys, (list, tuple)):
        raise TypeError(f"viterbi takes a list or tuple of keys, not {type(keys).__name__}")
    if not keys:
        raise ValueError("cannot decode an empty phoneme sequence")

    # Back-pointer Viterbi over decode_table's int symbol ids (code-point
    # order).  A column of several states keeps one entry (predecessor
    # index, h id, score, transition row) per state, sorted so that the
    # states' best prefixes are in code-point order: a prefix is its
    # predecessor's prefix plus h, so that order is (predecessor index, h
    # id), and the sorted column is also the next position's predecessors.
    # Each candidate scans its predecessors once in that order and keeps
    # the first maximum (a strict >, starting from -inf at index 0), which
    # gives ties to the code-point-smallest prefix without building any
    # prefix tuple.  While the lattice holds one state, states is None,
    # that state is the bare pair (score, row), and its column is stored
    # as (predecessor index, h id): a one-candidate column reached from it
    # is one addition, with nothing to rank, sort or rebuild.  A
    # one-candidate column after several states runs the same scan, and
    # its one entry collapses back to that single state.
    table = model.decode_table
    rows = table.rows
    boundary = len(rows) - 1  # BOS as a source, EOS as a target
    score, row = 0.0, rows[boundary]  # the single state
    states = None  # or the last column, when it holds several states
    columns = []
    for pos, e in enumerate(keys):
        cs = candidates(model, e, top_k)
        if not cs:
            raise UnseenPhonemeError(e, pos)
        if states is None:  # a single predecessor is every state's best
            if len(cs) == 1:
                ((h, le),) = cs
                score = (score + row[h]) + le
                row = rows[h]
                columns.append((0, h))
                continue
            ranked = [(0, h, (score + row[h]) + le, rows[h]) for h, le in cs]
        else:
            ranked = []
            for h, le in cs:
                best, back = NEG_INF, 0
                for i, (_, _, psc, prow) in enumerate(states):
                    s = (psc + prow[h]) + le
                    if s > best:
                        best, back = s, i
                ranked.append((back, h, best, rows[h]))
            if len(ranked) == 1:  # the lattice returns to one state
                ((back, h, score, row),) = ranked
                columns.append((back, h))
                states = None
                continue
        ranked.sort()  # the h are distinct, so no score or row is compared
        columns.append(ranked)
        states = ranked

    if states is None:
        best_score, last = score + row[boundary], 0
    else:
        best_score, last = NEG_INF, 0
        for i, (_, _, psc, prow) in enumerate(states):
            s = psc + prow[boundary]
            if s > best_score:
                best_score, last = s, i
    symbols = table.symbols
    # a one-state column is a tuple (predecessor index, h id), a column of
    # several states a list of (predecessor index, h id, score, row)
    if best_score == NEG_INF:
        # every path has a zero-probability transition, so all sequences tie;
        # the lexicographic tie-break reduces to the smallest candidate per slot
        path = [
            symbols[column[1] if type(column) is tuple else min(h for _, h, _, _ in column)]
            for column in columns
        ]
    else:
        path = []
        for column in reversed(columns):
            if type(column) is tuple:
                last, h = column
            else:
                last, h, _, _ = column[last]
            path.append(symbols[h])
        path.reverse()

    return Decoding(tuple(path), best_score, tuple(keys))


def check_decode_settings(fallback, top_k) -> None:
    """The check every decode entry point makes of its typed settings.

    A fallback that is not a Fallback member, such as its text "copy", or
    a top_k that is not a plain int, such as True, is a TypeError; a top_k
    below 1 is a ValueError.  Only the CLI and the estimators parse text
    (settings.check).
    """
    if type(fallback) is not Fallback:
        raise TypeError(f"not a Fallback: {fallback!r}")
    if type(top_k) is not int:  # a bool is not one
        raise TypeError(f"top_k must be an int, not {type(top_k).__name__}")
    if top_k < 1:
        raise ValueError("top_k must be >= 1")


def decode_name(
    model: TransliterationModel,
    text: str,
    fallback: Fallback = Fallback.ERROR,
    top_k: int = 10,
) -> tuple[str, float | None, list[tuple[str, Decoding | None]]]:
    """Transliterate a name: (output, score, runs).

    The one rule every front door decodes by.  The settings are checked
    first (check_decode_settings), and the text is read in NFC, so
    equivalent spellings decode alike.  A text that is one run of
    str.isalpha letters is segmented (phonology.phonify_latin) and decoded
    (viterbi).  A run the model cannot decode (an unseen phoneme, a letter
    outside the Latin script such as the é of José, or a best path of
    probability 0) gets the fallback output, the run itself or UNK_OUTPUT,
    or under Fallback.ERROR the error.  Any other text is split at
    whitespace and the outputs joined with single spaces; within a word,
    each letter run is decoded by this function and every other character
    is copied.  score is None when any run fell back, and otherwise the sum
    of the runs' log scores, added within each word and then across words
    (0.0 for a text with no letter run).  runs lists each letter run in
    order with its Decoding, keys included (None for a run that fell back).

    Each run's outcome, its (output, Decoding) or () for a run that falls
    back, is memoized on the model (model.decode_memo) by the run and
    top_k, so a repeated run skips both segmentation and Viterbi; the
    policy is applied on every call, and under Fallback.ERROR a run that
    falls back is decoded again to raise.
    """
    check_decode_settings(fallback, top_k)
    text = unicodedata.normalize("NFC", text)
    if not text.isalpha():
        outputs: list[str] = []
        runs: list[tuple[str, Decoding | None]] = []
        total = 0.0
        fell_back = False
        for word in text.split():
            out: list[str] = []
            score = 0.0
            for is_run, chars in groupby(word, str.isalpha):
                piece = "".join(chars)
                if not is_run:
                    out.append(piece)
                    continue
                output, run_score, (run,) = decode_name(model, piece, fallback, top_k)
                out.append(output)
                runs.append(run)
                if run_score is None:
                    fell_back = True
                else:
                    score += run_score
            outputs.append("".join(out))
            total += score
        return " ".join(outputs), None if fell_back else total, runs

    memo = model.decode_memo
    memo_key = (text, top_k)
    found = memo.get(memo_key)
    if found is None or (not found and fallback is Fallback.ERROR):
        try:
            decoding = viterbi(model, phonology.phonify_latin(text).keys(), top_k)
            if decoding.score == NEG_INF:
                raise ZeroProbabilityError(text)
            found = "".join(decoding.hindi_sequence), decoding
        except (ScriptError, UnseenPhonemeError, ZeroProbabilityError):
            if fallback is Fallback.ERROR:
                raise
            found = ()
        # Each dict call is atomic, so threads sharing the model need no lock:
        # a race can only decode a run twice (same result) or let the memo
        # pass MEMO_SIZE by one entry per racing thread.
        if len(memo) >= MEMO_SIZE:
            memo.clear()
        memo[memo_key] = found
    if found:
        output, decoding = found
        return output, decoding.score, [(text, decoding)]
    return (text if fallback is Fallback.COPY_SOURCE else UNK_OUTPUT), None, [(text, None)]
