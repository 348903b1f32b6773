"""HMM probability tables estimated from aligned phoneme pairs.

Two tables drive decoding: emission P(english phoneme | hindi phoneme) and
transition P(hindi phoneme | previous hindi phoneme), both relative
frequencies with optional additive smoothing.  Reserved boundary symbols
make word-edge transitions well defined; with smoothing off the estimates
are plain count ratios.
"""

from __future__ import annotations

import math
import re
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

from .errors import ModelFormatError, ModelValidationError, ModelVersionError
from .textfile import read_lines

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"  # reserved target carrying a row's unseen-pair probability

MODEL_FORMAT_VERSION = "1"
ROW_SUM_TOLERANCE = 1e-9
_BAD_SMOOTHING = "smoothing constant must be a finite number >= 0"
_UNWRITABLE = re.compile(r"[\s#]")  # a phoneme holding one would not read back from a model file


class DecodeTable(NamedTuple):
    """A model's tables laid out for Viterbi, over int Hindi symbol ids.

    `symbols` holds the Hindi phonemes in code-point order; a symbol's
    position is its id, and EOS takes the next id.  `columns` maps each
    English phoneme to its (h id, log emission) candidates, best emission
    first, ties by code point, so a top_k cut is a slice.  `rows` holds
    one dense log-transition row per source in symbol order with BOS last,
    each indexed by target id with EOS last: rows[i][j] ==
    log(transition_prob(source i, target j)), where -inf stands for a
    probability of 0.  Every source has a row, because a model cannot be
    built without one.
    """

    symbols: tuple[str, ...]
    columns: dict[str, tuple[tuple[int, float], ...]]
    rows: list[list[float]]


@dataclass(frozen=True)
class TransliterationModel:
    """Trained probability tables; building one validates it.

    `emission` and `transition` hold observed pairs only; `*_floor` holds
    each row's probability for pairs never observed (0.0 when unsmoothed).
    The constructor checks every table invariant and raises
    ModelValidationError, so every model, from `estimate`, `load_model`,
    the constructor or `dataclasses.replace`, keeps them.  It is the one
    check of phoneme symbols: no phoneme is empty or BOS, EOS or UNK, or
    holds whitespace or '#', which a model file could not carry.
    `h_vocab` (the emission sources) and `e_vocab` (their targets) are
    derived from `emission`.  The tables never change once built.
    Decoding lazily adds two derived structures on first use:
    `decode_table`, the tables laid out for Viterbi, and `decode_memo`, the
    letter-run outcomes that `decoder.decode_name` remembers.  Neither is
    part of equality or of the saved file, and both stay correct when
    threads share one model (the memo is a plain dict that is cleared, not
    evicted from, when it fills up, so no lock is needed).
    """

    emission: dict[str, dict[str, float]]
    transition: dict[str, dict[str, float]]
    emission_floor: dict[str, float]
    transition_floor: dict[str, float]
    smoothing_k: float

    def __post_init__(self):
        try:
            smoothing_constant(self.smoothing_k)
        except ValueError as exc:
            raise ModelValidationError(str(exc)) from None
        if not self.emission:
            raise ModelValidationError("a model needs at least one Hindi phoneme")
        h_vocab, e_vocab = self.h_vocab, self.e_vocab
        phonemes = h_vocab | e_vocab
        for symbol in ("", BOS, EOS, UNK):
            if symbol in phonemes:
                raise ModelValidationError(f"{symbol!r} cannot be a phoneme")
        if _UNWRITABLE.search("".join(phonemes)):  # one scan; name a symbol only on failure
            symbol = min(s for s in phonemes if _UNWRITABLE.search(s))
            raise ModelValidationError(f"{symbol!r} cannot be a phoneme")
        if set(self.transition) != h_vocab | {BOS}:
            raise ModelValidationError("transition rows must cover the Hindi vocabulary plus BOS")

        smoothed = self.smoothing_k > 0
        for kind, rows, floors, targets in (
            ("emission", self.emission, self.emission_floor, e_vocab),
            ("transition", self.transition, self.transition_floor, h_vocab | {EOS}),
        ):
            if set(floors) != set(rows):
                raise ModelValidationError(f"{kind} floors must mirror {kind} rows")
            width = len(targets)
            for source, row in rows.items():
                if not row:
                    raise ModelValidationError(f"empty {kind} row for {source!r}")
                if not row.keys() <= targets:
                    raise ModelValidationError(f"{kind} row {source!r} targets outside the vocabulary")
                for target, p in row.items():
                    if not 0.0 < p <= 1.0:
                        raise ModelValidationError(f"{kind} ({source!r}, {target!r}) out of (0,1]: {p!r}")
                floor = floors[source]
                if smoothed:
                    if floor <= 0.0:
                        raise ModelValidationError(f"{kind} row {source!r} lacks a positive floor")
                elif floor != 0.0:
                    raise ModelValidationError(f"unsmoothed {kind} row {source!r} has a nonzero floor")
                total = sum(row.values()) + (width - len(row)) * floor
                if abs(total - 1.0) > ROW_SUM_TOLERANCE:
                    raise ModelValidationError(f"{kind} row {source!r} sums to {total!r}")

    @property
    def h_vocab(self) -> frozenset[str]:
        """The Hindi phonemes: the emission rows' sources."""
        return frozenset(self.emission)

    @property
    def e_vocab(self) -> frozenset[str]:
        """The English phonemes: every target of an emission row."""
        return frozenset(e for row in self.emission.values() for e in row)

    @cached_property
    def decode_table(self) -> DecodeTable:
        """The DecodeTable of this model; built on first access."""
        symbols = tuple(sorted(self.emission))
        ids = {h: i for i, h in enumerate(symbols)}
        ids[EOS] = len(symbols)
        found: dict[str, list[tuple[float, int]]] = defaultdict(list)
        for h, row in self.emission.items():
            for e, p in row.items():
                found[e].append((-p, ids[h]))
        columns = {e: tuple((h, math.log(-neg)) for neg, h in sorted(cs)) for e, cs in found.items()}
        width = len(ids)
        rows = []
        for source in (*symbols, BOS):
            dense = [_log(self.transition_floor[source])] * width
            for target, p in self.transition[source].items():
                dense[ids[target]] = _log(p)
            rows.append(dense)
        return DecodeTable(symbols, columns, rows)

    @cached_property
    def decode_memo(self) -> dict:
        """(letter run in NFC, top_k) -> (output, Decoding), or () for a run
        that falls back; filled and bounded by decoder.decode_name."""
        return {}

    def emission_prob(self, h: str, e: str) -> float:
        """P(e | h); a KeyError when h is not a Hindi phoneme of the model."""
        return self.emission[h].get(e, self.emission_floor[h])

    def transition_prob(self, h_prev: str, h: str) -> float:
        """P(h | h_prev) over the Hindi vocabulary plus the end symbol; a
        KeyError when h_prev is neither BOS nor a Hindi phoneme of the model."""
        return self.transition[h_prev].get(h, self.transition_floor[h_prev])

    def position_score(self, h_prev: str, h: str, h_next: str, e: str) -> float:
        """Composite per-position score: emission times both transitions.

        A pure product, deliberately not renormalized.
        """
        return (
            self.emission_prob(h, e)
            * self.transition_prob(h_prev, h)
            * self.transition_prob(h, h_next)
        )


def _log(p: float) -> float:
    return math.log(p) if p > 0.0 else float("-inf")


def smoothing_constant(k) -> float:
    """k as a float if it is a finite number >= 0; a ValueError otherwise.
    The one copy of the rule: estimate, model validation and the
    smoothing_k setting's parser (the CLI, HmmTransliterator.fit) apply it."""
    if not 0.0 <= k < math.inf:
        raise ValueError(_BAD_SMOOTHING)
    return float(k)


def estimate(aligned_corpus, smoothing_k: float = 0.1) -> TransliterationModel:
    """Build a model from per-entry aligned pair lists; the model's
    constructor validates it, so an empty or reserved phoneme raises
    ModelValidationError.

    Emission P(e|h) = (count(h,e) + k) / (count(h) + k * |E|); transition
    rows are the same with BOS prepended and EOS appended to each entry's
    Hindi sequence, so their width is |H| + 1.  k = 0 gives the raw
    frequency ratios.
    """
    k = smoothing_constant(smoothing_k)
    entries = [list(pairs) for pairs in aligned_corpus if pairs]
    if not entries:
        raise ValueError("aligned corpus has no entries with match pairs")

    em_counts: dict[str, Counter] = defaultdict(Counter)
    tr_counts: dict[str, Counter] = defaultdict(Counter)
    for pairs in entries:
        hs = [p.h for p in pairs]
        for p in pairs:
            em_counts[p.h][p.e] += 1
        for prev, nxt in zip([BOS] + hs, hs + [EOS]):
            tr_counts[prev][nxt] += 1

    e_size = len({e for row in em_counts.values() for e in row})
    emission, emission_floor = _relative_frequencies(em_counts, e_size, k)
    transition, transition_floor = _relative_frequencies(tr_counts, len(em_counts) + 1, k)
    return TransliterationModel(
        emission=emission,
        transition=transition,
        emission_floor=emission_floor,
        transition_floor=transition_floor,
        smoothing_k=k,
    )


def _relative_frequencies(counts, width: int, k: float):
    """(rows, floors) of a table of count rows over `width` targets: each
    seen target gets (c + k) / (row total + k * width), and the row's floor
    is k / (row total + k * width), or 0.0 when k is 0."""
    rows: dict[str, dict[str, float]] = {}
    floors: dict[str, float] = {}
    for source, row in counts.items():
        denom = sum(row.values()) + k * width
        rows[source] = {target: (c + k) / denom for target, c in row.items()}
        floors[source] = k / denom if k else 0.0
    return rows, floors


def _fmt(x: float) -> str:
    return format(x, ".17g")


def save_model(model: TransliterationModel, path) -> None:
    """Write the model as deterministic UTF-8 text.

    Rows are sorted by code point so identical models produce
    byte-identical files; probabilities carry 17 significant digits so
    they reload bit-exactly.  The version written is
    MODEL_FORMAT_VERSION.  When the model is smoothed, each row's floor is
    written as a reserved `<unk>` target.
    """
    lines = ["[meta]"]
    lines.append(f"version\t{MODEL_FORMAT_VERSION}")
    lines.append(f"smoothing_k\t{_fmt(model.smoothing_k)}")
    lines.append(f"e_vocab_size\t{len(model.e_vocab)}")
    lines.append(f"h_vocab_size\t{len(model.h_vocab)}")
    smoothed = model.smoothing_k > 0
    for section, table, floors in (
        ("emission", model.emission, model.emission_floor),
        ("transition", model.transition, model.transition_floor),
    ):
        lines.append(f"[{section}]")
        for source in sorted(table):
            rows = [(target, table[source][target]) for target in sorted(table[source])]
            if smoothed:
                rows.append((UNK, floors[source]))
                rows.sort()
            for target, p in rows:
                lines.append(f"{source}\t{target}\t{_fmt(p)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_model(path) -> TransliterationModel:
    """Read a model file written by save_model.

    Lines are read like every other input file (textfile.read_lines):
    stripped, blank and '#' lines skipped, ending at a newline only.
    Format errors raise ModelFormatError and a version other than
    MODEL_FORMAT_VERSION raises ModelVersionError.  The model's
    constructor validates the tables, and load_model adds the path to its
    ModelValidationError; it also checks the vocabulary sizes in [meta].
    """
    path = Path(path)
    meta: dict[str, str] = {}
    tables: dict[str, dict[str, dict[str, float]]] = {"emission": {}, "transition": {}}
    floors: dict[str, dict[str, float]] = {"emission": {}, "transition": {}}
    section = None
    for lineno, line in read_lines(path, ModelFormatError, "model"):
        if line in ("[meta]", "[emission]", "[transition]"):
            section = line[1:-1]
            continue
        if section is None:
            raise ModelFormatError(f"{path}: line {lineno}: content before any section header")
        cols = line.split("\t")
        if section == "meta":
            if len(cols) != 2:
                raise ModelFormatError(f"{path}: line {lineno}: expected key<TAB>value")
            if cols[0] in meta:
                raise ModelFormatError(f"{path}: line {lineno}: duplicate meta key {cols[0]!r}")
            meta[cols[0]] = cols[1]
            continue
        if len(cols) != 3:
            raise ModelFormatError(f"{path}: line {lineno}: expected source<TAB>target<TAB>probability")
        source, target, prob_text = cols
        try:
            p = float(prob_text)
        except ValueError as exc:
            raise ModelFormatError(f"{path}: line {lineno}: bad probability {prob_text!r}") from exc
        if target == UNK:
            if source in floors[section]:
                raise ModelFormatError(f"{path}: line {lineno}: duplicate floor for {source!r}")
            floors[section][source] = p
            continue
        row = tables[section].setdefault(source, {})
        if target in row:
            raise ModelFormatError(f"{path}: line {lineno}: duplicate row ({source!r}, {target!r})")
        row[target] = p

    for key in ("version", "smoothing_k", "e_vocab_size", "h_vocab_size"):
        if key not in meta:
            raise ModelFormatError(f"{path}: missing meta key {key!r}")
    if meta["version"] != MODEL_FORMAT_VERSION:
        raise ModelVersionError(f"{path}: unsupported model version {meta['version']!r}")
    try:
        k = float(meta["smoothing_k"])
        e_size = int(meta["e_vocab_size"])
        h_size = int(meta["h_vocab_size"])
    except ValueError as exc:
        raise ModelFormatError(f"{path}: malformed meta values") from exc
    if not tables["transition"]:
        raise ModelFormatError(f"{path}: missing transition rows")  # a file cut short

    # a row with no <unk> has floor 0.0; a floor with no row fails the
    # floors-mirror-rows check
    floor = {kind: {s: 0.0 for s in tables[kind]} | floors[kind] for kind in tables}
    try:
        model = TransliterationModel(
            emission=tables["emission"],
            transition=tables["transition"],
            emission_floor=floor["emission"],
            transition_floor=floor["transition"],
            smoothing_k=k,
        )
    except ModelValidationError as exc:
        raise ModelValidationError(f"{path}: {exc}") from exc
    if len(model.e_vocab) != e_size or len(model.h_vocab) != h_size:
        raise ModelValidationError(f"{path}: vocabulary sizes in [meta] do not match the table rows")
    return model
