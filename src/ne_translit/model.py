"""HMM probability tables estimated from aligned phoneme pairs.

Two tables drive decoding: emission P(english phoneme | hindi phoneme) and
transition P(hindi phoneme | previous hindi phoneme), both relative
frequencies with optional additive smoothing.  Reserved boundary symbols
make word-edge transitions well defined; with smoothing off the estimates
are plain count ratios.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .errors import ModelFormatError, ModelValidationError, ModelVersionError
from .textfile import read_lines

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"  # reserved target carrying a row's unseen-pair probability

MODEL_FORMAT_VERSION = "1"
ROW_SUM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Candidate:
    h: str
    emission: float

    def __post_init__(self):
        if self.emission <= 0.0:
            raise ValueError("candidate emission must be positive")


@dataclass(frozen=True)
class TransliterationModel:
    """Trained probability tables plus the metadata to query them.

    `emission` and `transition` hold observed pairs only; `*_floor` holds
    each row's probability for pairs never observed (0.0 when unsmoothed).
    The tables never change once built.  Decoding lazily adds derived
    structures on first use: `candidate_index`, the symbol ids `h_symbols`
    and `h_ids`, the dense `log_transition` rows, and `decode_memo`, the
    decoded words that `decoder.decode_or_fallback` remembers.  None is
    part of equality or of the saved file, and all stay correct when
    threads share one model (the memo is a plain dict that is cleared, not
    evicted from, when it fills up, so no lock is needed).
    """

    emission: dict[str, dict[str, float]]
    transition: dict[str, dict[str, float]]
    emission_floor: dict[str, float]
    transition_floor: dict[str, float]
    e_vocab: frozenset[str]
    h_vocab: frozenset[str]
    smoothing_k: float
    version: str = MODEL_FORMAT_VERSION

    @cached_property
    def candidate_index(self) -> dict[str, tuple[Candidate, ...]]:
        """English phoneme -> every Hindi phoneme observed with it, best
        emission first, ties by code point; built on first access."""
        index: dict[str, list[Candidate]] = defaultdict(list)
        for h, row in self.emission.items():
            for e, p in row.items():
                index[e].append(Candidate(h, p))
        return {
            e: tuple(sorted(found, key=lambda c: (-c.emission, c.h)))
            for e, found in index.items()
        }

    @cached_property
    def h_symbols(self) -> tuple[str, ...]:
        """Every Hindi phoneme with an emission row, in code-point order;
        a symbol's position is its id in the decode tables."""
        return tuple(sorted(self.emission))

    @cached_property
    def h_ids(self) -> dict[str, int]:
        """Hindi phoneme -> its index in h_symbols, and EOS -> the last id,
        len(h_symbols).  BOS, a source only, shares that last id as a row
        of log_transition; it has no entry here.  Built on first access."""
        ids = {h: i for i, h in enumerate(self.h_symbols)}
        ids[EOS] = len(ids)
        return ids

    @cached_property
    def log_transition(self) -> list[list[float]]:
        """Dense log transition rows, one per source in h_symbols order with
        BOS last, each indexed by target id (h_ids, EOS last): so
        rows[i][j] == log(transition_prob(source i, target j)).  Targets
        never observed after a source hold its row's log floor, and -inf
        stands for a probability of 0.  Built on first access."""
        ids = self.h_ids
        width = len(ids)
        rows = []
        for source in (*self.h_symbols, BOS):
            row = self.transition.get(source)
            if row is None:
                # no row (only in a model built without validate()): every
                # target gets transition_prob's uniform guess
                rows.append([_log(self.transition_prob(source, EOS))] * width)
                continue
            dense = [_log(self.transition_floor[source])] * width
            for target, p in row.items():
                j = ids.get(target)
                if j is not None:
                    dense[j] = _log(p)
            rows.append(dense)
        return rows

    @cached_property
    def decode_memo(self) -> dict:
        """(word, top_k) -> (output, Decoding), filled and bounded by
        decoder.decode_or_fallback."""
        return {}

    def emission_prob(self, h: str, e: str) -> float:
        """P(e | h); unknown h falls back to a uniform guess."""
        row = self.emission.get(h)
        if row is None:
            return 1.0 / len(self.e_vocab) if self.e_vocab else 0.0
        return row.get(e, self.emission_floor[h])

    def transition_prob(self, h_prev: str, h: str) -> float:
        """P(h | h_prev) over the Hindi vocabulary plus the end symbol."""
        row = self.transition.get(h_prev)
        if row is None:
            return 1.0 / (len(self.h_vocab) + 1) if self.h_vocab else 0.0
        return row.get(h, self.transition_floor[h_prev])

    def position_score(self, h_prev: str, h: str, h_next: str, e: str) -> float:
        """Composite per-position score: emission times both transitions.

        A pure product, deliberately not renormalized.
        """
        return (
            self.emission_prob(h, e)
            * self.transition_prob(h_prev, h)
            * self.transition_prob(h, h_next)
        )

    def validate(self) -> None:
        """Check every table invariant; raises ModelValidationError."""
        if self.version != MODEL_FORMAT_VERSION:
            raise ModelValidationError(f"unsupported model version {self.version!r}")
        if self.smoothing_k < 0:
            raise ModelValidationError("smoothing constant must be >= 0")
        if set(self.emission) != set(self.h_vocab):
            raise ModelValidationError("emission rows must cover exactly the Hindi vocabulary")
        if set(self.transition) != set(self.h_vocab) | {BOS}:
            raise ModelValidationError("transition rows must cover the Hindi vocabulary plus BOS")
        if set(self.emission_floor) != set(self.emission):
            raise ModelValidationError("emission floors must mirror emission rows")
        if set(self.transition_floor) != set(self.transition):
            raise ModelValidationError("transition floors must mirror transition rows")

        smoothed = self.smoothing_k > 0
        e_size = len(self.e_vocab)
        t_size = len(self.h_vocab) + 1
        for h, row in self.emission.items():
            if not set(row) <= self.e_vocab:
                raise ModelValidationError(f"emission row {h!r} targets outside the vocabulary")
            self._check_row("emission", h, row, self.emission_floor[h], e_size, smoothed)
        for prev, row in self.transition.items():
            if BOS in row:
                raise ModelValidationError("BOS must never be a transition target")
            if not set(row) <= self.h_vocab | {EOS}:
                raise ModelValidationError(f"transition row {prev!r} targets outside the vocabulary")
            self._check_row("transition", prev, row, self.transition_floor[prev], t_size, smoothed)
        if EOS in self.transition:
            raise ModelValidationError("EOS must never be a transition source")

    @staticmethod
    def _check_row(kind, source, row, floor, width, smoothed):
        if not row:
            raise ModelValidationError(f"empty {kind} row for {source!r}")
        for target, p in row.items():
            if not 0.0 < p <= 1.0:
                raise ModelValidationError(f"{kind} ({source!r}, {target!r}) out of (0,1]: {p!r}")
        if smoothed:
            if floor <= 0.0:
                raise ModelValidationError(f"{kind} row {source!r} lacks a positive floor")
        elif floor != 0.0:
            raise ModelValidationError(f"unsmoothed {kind} row {source!r} has a nonzero floor")
        total = sum(row.values()) + (width - len(row)) * floor
        if abs(total - 1.0) > ROW_SUM_TOLERANCE:
            raise ModelValidationError(f"{kind} row {source!r} sums to {total!r}")


def _log(p: float) -> float:
    return math.log(p) if p > 0.0 else float("-inf")


def estimate(aligned_corpus, smoothing_k: float = 0.1) -> TransliterationModel:
    """Build a model from per-entry aligned pair lists.

    Emission P(e|h) = (count(h,e) + k) / (count(h) + k * |E|); transition
    rows are the same with BOS prepended and EOS appended to each entry's
    Hindi sequence, so their width is |H| + 1.  k = 0 gives the raw
    frequency ratios.
    """
    if smoothing_k < 0:
        raise ValueError("smoothing constant must be >= 0")
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

    e_vocab = frozenset(e for row in em_counts.values() for e in row)
    h_vocab = frozenset(em_counts)
    k = float(smoothing_k)
    e_size = len(e_vocab)
    t_size = len(h_vocab) + 1

    emission: dict[str, dict[str, float]] = {}
    emission_floor: dict[str, float] = {}
    for h, row in em_counts.items():
        denom = sum(row.values()) + k * e_size
        emission[h] = {e: (c + k) / denom for e, c in row.items()}
        emission_floor[h] = k / denom if k else 0.0

    transition: dict[str, dict[str, float]] = {}
    transition_floor: dict[str, float] = {}
    for prev, row in tr_counts.items():
        denom = sum(row.values()) + k * t_size
        transition[prev] = {nxt: (c + k) / denom for nxt, c in row.items()}
        transition_floor[prev] = k / denom if k else 0.0

    model = TransliterationModel(
        emission=emission,
        transition=transition,
        emission_floor=emission_floor,
        transition_floor=transition_floor,
        e_vocab=e_vocab,
        h_vocab=h_vocab,
        smoothing_k=k,
    )
    model.validate()
    return model


def _fmt(x: float) -> str:
    return format(x, ".17g")


def save_model(model: TransliterationModel, path) -> None:
    """Write the model as deterministic UTF-8 text.

    Rows are sorted by code point so identical models produce
    byte-identical files; probabilities carry 17 significant digits so
    they reload bit-exactly.  When the model is smoothed, each row's
    floor is written as a reserved `<unk>` target.
    """
    lines = ["[meta]"]
    lines.append(f"version\t{model.version}")
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
    """Read a model file written by save_model, validating everything.

    Lines are read like every other input file (textfile.read_lines):
    stripped, blank and '#' lines skipped, ending at a newline only.
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
    if not tables["emission"] or not tables["transition"]:
        raise ModelFormatError(f"{path}: missing emission or transition rows")

    h_vocab = frozenset(tables["emission"])
    e_vocab = frozenset(e for row in tables["emission"].values() for e in row)
    if len(e_vocab) != e_size or len(h_vocab) != h_size:
        raise ModelValidationError(
            f"{path}: vocabulary sizes in [meta] do not match the table rows"
        )
    emission_floor = {h: floors["emission"].get(h, 0.0) for h in tables["emission"]}
    transition_floor = {s: floors["transition"].get(s, 0.0) for s in tables["transition"]}
    for kind in ("emission", "transition"):
        stray = set(floors[kind]) - set(tables[kind])
        if stray:
            raise ModelValidationError(f"{path}: floor rows for unknown sources {sorted(stray)}")

    model = TransliterationModel(
        emission=tables["emission"],
        transition=tables["transition"],
        emission_floor=emission_floor,
        transition_floor=transition_floor,
        e_vocab=e_vocab,
        h_vocab=h_vocab,
        smoothing_k=k,
        version=meta["version"],
    )
    try:
        model.validate()
    except ModelValidationError as exc:
        raise ModelValidationError(f"{path}: {exc}") from exc
    return model
