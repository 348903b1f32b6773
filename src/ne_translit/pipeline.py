"""Sentence-level preprocessing: substitute each annotated entity.

Organizations and locations go through the knowledge base first and are
transliterated only on a miss; person names do too when the knowledge base
holds a PER row, and are otherwise transliterated directly.
Everything outside the annotated spans is left byte-for-byte unchanged,
so the output is the same sentence with Hindi entities dropped in place,
ready for a downstream MT system.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .decoder import Fallback, check_decode_settings, decode_name
from .errors import AnnotationError
from .kb import EntityCategory, KnowledgeBase
from .model import TransliterationModel

# Not called here (decode_name makes these calls), but the
# benchmark's tracer patches both names on this module.
from .decoder import viterbi  # noqa: F401
from .phonology import phonify_latin  # noqa: F401


class Route(Enum):
    KB_HIT = "KB_HIT"
    TRANSLITERATED = "TRANSLITERATED"
    FALLBACK = "FALLBACK"


@dataclass(frozen=True)
class EntitySpan:
    """A typed entity occurrence: [start, end) offsets into the sentence."""

    start: int
    end: int
    surface: str
    category: EntityCategory


@dataclass(frozen=True)
class EntityDecision:
    span: EntitySpan
    route: Route
    output: str
    score: float | None = None

    def __post_init__(self):
        if self.route is Route.TRANSLITERATED and self.score is None:
            raise ValueError("transliterated decisions must carry a score")
        if self.route is not Route.TRANSLITERATED and self.score is not None:
            raise ValueError("only transliterated decisions carry a score")


@dataclass(frozen=True)
class ProcessedSentence:
    substituted: str
    decisions: tuple[EntityDecision, ...]


def validate_spans(sentence: str, spans) -> None:
    """Enforce span sanity: in bounds, sorted, non-overlapping, surface
    match, not blank (a span of whitespace alone names no entity), and no
    tab (a --decisions record is tab-separated)."""
    prev_end = 0
    for span in spans:
        if not 0 <= span.start < span.end <= len(sentence):
            raise AnnotationError(f"span ({span.start}, {span.end}) out of bounds")
        if span.start < prev_end:
            raise AnnotationError(f"overlapping or unsorted span at offset {span.start}")
        if sentence[span.start : span.end] != span.surface:
            raise AnnotationError(
                f"span surface {span.surface!r} does not match the sentence at offset {span.start}"
            )
        if span.surface.isspace():
            raise AnnotationError(f"blank entity at offset {span.start}")
        if "\t" in span.surface:
            raise AnnotationError(f"tab inside the entity at offset {span.start}")
        prev_end = span.end


# bound once: an Enum class attribute lookup costs about 0.1 µs
_parse_category = EntityCategory.parse
_PERSON = EntityCategory.PERSON


def parse_inline(line: str) -> tuple[str, list[EntitySpan]]:
    """Parse `[[surface|CAT]]` markers into a clean sentence plus spans."""
    out: list[str] = []
    spans: list[EntitySpan] = []
    i, pos = 0, 0
    while True:
        # The text up to the first marker opening or stray closing is plain.
        start = line.find("[[", i)
        stray = line.find("]]", i)
        if stray != -1 and (start == -1 or stray < start):
            raise AnnotationError(f"unbalanced ]] at offset {stray}")
        if start == -1:
            out.append(line[i:])
            return "".join(out), spans
        out.append(line[i:start])
        pos += start - i
        close = line.find("]]", start + 2)
        if close == -1:
            raise AnnotationError(f"unclosed entity marker at offset {start}")
        body = line[start + 2 : close]
        if "[[" in body:
            raise AnnotationError(f"nested entity marker inside the one at offset {start}")
        sep = body.rfind("|")
        if sep <= 0:
            raise AnnotationError(f"entity marker at offset {start} lacks a |category")
        surface, cat_text = body[:sep], body[sep + 1 :]
        try:
            category = _parse_category(cat_text)
        except ValueError as exc:
            raise AnnotationError(f"offset {start}: {exc}") from exc
        spans.append(EntitySpan(pos, pos + len(surface), surface, category))
        out.append(surface)
        pos += len(surface)
        i = close + 2


def parse_columnar(line: str) -> tuple[str, list[EntitySpan]]:
    """Parse `sentence<TAB>start,end,CAT...`; spans must be sorted."""
    fields = line.split("\t")
    sentence = fields[0]
    spans: list[EntitySpan] = []
    for rec in fields[1:]:
        parts = rec.split(",")
        if len(parts) != 3:
            raise AnnotationError(f"bad span record {rec!r}: expected start,end,CAT")
        try:
            start, end = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise AnnotationError(f"bad span offsets in {rec!r}") from exc
        try:
            category = _parse_category(parts[2])
        except ValueError as exc:
            raise AnnotationError(f"bad span record {rec!r}: {exc}") from exc
        spans.append(EntitySpan(start, end, sentence[start:end], category))
    validate_spans(sentence, spans)
    return sentence, spans


# Every annotation format, by the name translate --format and
# NamedEntityTranslator's annotation_format take.
ANNOTATION_FORMATS = {"inline": parse_inline, "columnar": parse_columnar}


def parse_annotations(line: str, format: str = "inline") -> tuple[str, list[EntitySpan]]:
    parse = ANNOTATION_FORMATS.get(format)
    if parse is None:
        raise ValueError(f"unknown annotation format {format!r}")
    return parse(line)


def _decide(span, kb, model, fallback, top_k) -> EntityDecision:
    surface = span.surface
    # organizations and locations, the other two categories, always consult
    # the KB; person names only when it holds a PER row
    hit = None
    if kb is not None and (span.category is not _PERSON or kb.has_persons):
        hit = kb.lookup(surface, span.category)
    if hit is not None:
        route, output, score = Route.KB_HIT, hit, None
    else:
        output, score, _ = decode_name(model, surface, fallback, top_k)
        route = Route.FALLBACK if score is None else Route.TRANSLITERATED
    if surface[0].isspace() or surface[-1].isspace():
        # the output replaces the whole span, so the whitespace at either
        # end of the surface goes back around it
        lead = len(surface) - len(surface.lstrip())
        output = surface[:lead] + output + surface[len(surface.rstrip()) :]
    return EntityDecision(span, route, output, score)


def process_sentence(
    sentence: str,
    spans,
    kb: KnowledgeBase | None,
    model: TransliterationModel,
    fallback: Fallback = Fallback.ERROR,
    top_k: int = 10,
) -> ProcessedSentence:
    """Translate or transliterate every span and splice the results in.

    Characters outside the spans are preserved exactly; decisions come
    back in span order, one per span.  A span the KB does not translate
    goes through decode_name, whose fallback and top_k these are; they are
    checked first, whatever the spans (check_decode_settings).
    """
    check_decode_settings(fallback, top_k)
    spans = list(spans)
    validate_spans(sentence, spans)
    decisions = [_decide(span, kb, model, fallback, top_k) for span in spans]
    substituted = sentence
    for decision in reversed(decisions):
        span = decision.span
        substituted = substituted[: span.start] + decision.output + substituted[span.end :]
    return ProcessedSentence(substituted, tuple(decisions))
