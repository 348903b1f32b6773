"""Scoring of system outputs against gold entity translations.

An output counts as correct when it equals the gold Hindi after the same
normalization the knowledge base uses.  Accuracies are truncated (not
rounded) to five decimals, and the aggregate row is recomputed from the
summed counts rather than averaging per-category accuracies.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_DOWN, Decimal
from pathlib import Path

from .errors import EvaluationError
from .kb import EntityCategory, normalize
from .textfile import read_lines, read_text

# Display order of the per-category rows.
CATEGORY_ORDER = (EntityCategory.PERSON, EntityCategory.LOCATION, EntityCategory.ORGANIZATION)

AGGREGATE_LABEL = "All"


@dataclass(frozen=True)
class GoldRecord:
    english: str
    category: EntityCategory
    hindi: str

    def __post_init__(self):
        if not self.english or not self.hindi:
            raise ValueError("empty entity or translation")


@dataclass(frozen=True)
class CategoryScore:
    total: int
    correct: int

    def __post_init__(self):
        if not 0 <= self.correct <= self.total:
            raise ValueError(f"bad counts: {self.correct}/{self.total}")

    @property
    def accuracy(self) -> float:
        """correct/total truncated to five decimals."""
        return float(self.accuracy_text)

    @property
    def accuracy_text(self) -> str:
        """correct/total truncated to five decimals, as text ("0.99053");
        EvaluationError over zero records."""
        if self.total == 0:
            raise EvaluationError("cannot compute accuracy over zero records")
        quantized = (Decimal(self.correct) / Decimal(self.total)).quantize(
            Decimal("0.00001"), rounding=ROUND_DOWN
        )
        return f"{quantized:.5f}"


@dataclass(frozen=True)
class AccuracyReport:
    """Per-category scores in display order, plus the aggregate row."""

    categories: tuple[tuple[EntityCategory, CategoryScore], ...]
    overall: CategoryScore

    def score_for(self, category: EntityCategory) -> CategoryScore:
        for cat, score in self.categories:
            if cat is category:
                return score
        raise KeyError(category)


def evaluate(gold, system) -> AccuracyReport:
    """Score index-aligned system outputs against gold records."""
    gold = list(gold)
    system = list(system)
    if len(gold) != len(system):
        raise EvaluationError(f"{len(gold)} gold records vs {len(system)} system outputs")
    if not gold:
        raise EvaluationError("nothing to evaluate")

    totals = {cat: 0 for cat in CATEGORY_ORDER}
    corrects = {cat: 0 for cat in CATEGORY_ORDER}
    for record, output in zip(gold, system):
        totals[record.category] += 1
        if normalize(output) == normalize(record.hindi):
            corrects[record.category] += 1

    categories = tuple(
        (cat, CategoryScore(totals[cat], corrects[cat])) for cat in CATEGORY_ORDER if totals[cat]
    )
    overall = CategoryScore(sum(totals.values()), sum(corrects.values()))
    return AccuracyReport(categories, overall)


def render_report(report: AccuracyReport, format: str = "text") -> str:
    """Render as an aligned text table or as TSV; both end with a newline."""
    rows = [(cat.name.title(), score) for cat, score in report.categories]
    rows.append((AGGREGATE_LABEL, report.overall))
    if format == "tsv":
        lines = ["category\ttotal\tcorrect\taccuracy"]
        lines += [f"{name}\t{s.total}\t{s.correct}\t{s.accuracy_text}" for name, s in rows]
        return "\n".join(lines) + "\n"
    if format != "text":
        raise ValueError(f"unknown report format {format!r}")
    header = ("Category", "Total", "Correct", "Accuracy")
    cells = [header] + [(name, str(s.total), str(s.correct), s.accuracy_text) for name, s in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(4)]
    lines = []
    for row in cells:
        left = row[0].ljust(widths[0])
        rest = "  ".join(row[i].rjust(widths[i]) for i in range(1, 4))
        lines.append(f"{left}  {rest}")
    return "\n".join(lines) + "\n"


def load_gold(path) -> list[GoldRecord]:
    """Read `english<TAB>category<TAB>gold_hindi` lines; '#' comments."""
    path = Path(path)
    records: list[GoldRecord] = []
    for lineno, line in read_lines(path, EvaluationError, "gold file"):
        cols = line.split("\t")
        if len(cols) != 3:
            raise EvaluationError(f"{path}: line {lineno}: expected english<TAB>category<TAB>hindi")
        english, cat_text, hindi = (c.strip() for c in cols)
        try:
            records.append(GoldRecord(english, EntityCategory.parse(cat_text), hindi))
        except ValueError as exc:
            raise EvaluationError(f"{path}: line {lineno}: {exc}") from exc
    return records


def load_system(path) -> list[str]:
    """Read system outputs, one per line, index-aligned with the gold file.
    The file is read by read_text, as every input file is; its lines end
    at a newline only and are otherwise kept as they are."""
    text = read_text(path, EvaluationError, "system file")
    return text.removesuffix("\n").split("\n") if text else []
