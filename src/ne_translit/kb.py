"""Exact-match translation store for organization and location names.

Some entity names have conventional Hindi translations that sound nothing
like the English ("Finance Ministry" is वित्त मंत्रालय); transliterating
those makes the text worse, so the pipeline checks this store first and
only falls through to transliteration on a miss.
"""

from __future__ import annotations

import os
import unicodedata
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path

from .errors import KnowledgeBaseError
from .textfile import read_lines

SEED_KB_ENV_VAR = "NE_TRANSLIT_SEED_KB"


class EntityCategory(Enum):
    PERSON = "PER"
    LOCATION = "LOC"
    ORGANIZATION = "ORG"

    @classmethod
    def parse(cls, text: str) -> "EntityCategory":
        """Accept either the short code (PER) or the full name (PERSON)."""
        category = _CATEGORY_LABELS.get(text.strip().upper())
        if category is None:
            raise ValueError(f"unknown entity category {text!r}")
        return category


_CATEGORY_LABELS = {label: cat for cat in EntityCategory for label in (cat.value, cat.name)}


def normalize(text: str) -> str:
    """Normal form used for matching: NFC, then case-folded and NFC again,
    then every run of Unicode whitespace made one space, with none at
    either end.  The second NFC puts back in canonical order the marks that
    casefold can emit (U+0130 becomes i + U+0307), so normalize is
    idempotent."""
    nfc = unicodedata.normalize
    # str.split() breaks at exactly the characters that re's \s matches
    return " ".join(nfc("NFC", nfc("NFC", text).casefold()).split())


def _check_normal_form(key: str) -> None:
    """Raise ValueError unless key is a fixed point of normalize."""
    if key != normalize(key):
        raise ValueError(f"key {key!r} is not in normal form")


@dataclass(frozen=True)
class KBEntry:
    english_normalized: str
    hindi: str
    category: EntityCategory

    def __post_init__(self):
        _check_normal_form(self.english_normalized)
        if not self.hindi:
            raise ValueError("translation must be non-empty")


class KnowledgeBase:
    """Immutable-by-convention lookup of (category, normalized name)."""

    def __init__(self, entries=()):
        self._table: dict[tuple[EntityCategory, str], str] = {}
        for entry in entries:
            self.add(entry)

    def add(self, entry: KBEntry) -> None:
        self._insert(entry.category, entry.english_normalized, entry.hindi)

    def _insert(self, category: EntityCategory, key: str, hindi: str) -> None:
        """Store one row; key must already be in normal form."""
        if (category, key) in self._table:
            raise KnowledgeBaseError(f"duplicate entry for {key!r} ({category.value})")
        self._table[category, key] = hindi

    def lookup(self, entity: str, category: EntityCategory) -> str | None:
        """Exact match only; None means fall through to transliteration."""
        return self._table.get((category, normalize(entity)))

    def entries(self) -> list[KBEntry]:
        return [
            KBEntry(key, hindi, category)
            for (category, key), hindi in sorted(
                self._table.items(), key=lambda kv: (kv[0][0].value, kv[0][1])
            )
        ]

    def __len__(self) -> int:
        return len(self._table)


def load_kb(path, allow_person: bool = False) -> KnowledgeBase:
    """Load a KB file: english<TAB>hindi<TAB>category per line, '#' comments.

    Categories are ORG and LOC; PER rows are accepted only when
    allow_person is set.  Duplicates and malformed lines are hard errors
    naming the offending line.
    """
    path = Path(path)
    kb = KnowledgeBase()
    # one pass per row, with no KBEntry built: this is translate's set-up cost
    for lineno, line in read_lines(path, KnowledgeBaseError, "knowledge base"):
        cols = line.split("\t")
        if len(cols) != 3:
            raise KnowledgeBaseError(f"{path}: line {lineno}: expected english<TAB>hindi<TAB>category")
        english, hindi, cat_text = cols[0].strip(), cols[1].strip(), cols[2].strip()
        if not english or not hindi:
            raise KnowledgeBaseError(f"{path}: line {lineno}: empty entity or translation")
        category = _CATEGORY_LABELS.get(cat_text.upper())
        if category is None:
            raise KnowledgeBaseError(f"{path}: line {lineno}: unknown entity category {cat_text!r}")
        if category is EntityCategory.PERSON and not allow_person:
            raise KnowledgeBaseError(
                f"{path}: line {lineno}: PER entries need the person-lookup extension"
            )
        key = normalize(english)
        try:
            _check_normal_form(key)
            kb._insert(category, key, hindi)
        except (ValueError, KnowledgeBaseError) as exc:
            raise KnowledgeBaseError(f"{path}: line {lineno}: {exc}") from exc
    return kb


def default_kb_path() -> Path:
    """Packaged seed KB, unless NE_TRANSLIT_SEED_KB points elsewhere."""
    override = os.environ.get(SEED_KB_ENV_VAR)
    if override:
        return Path(override)
    return Path(str(resources.files("ne_translit").joinpath("data/seed_kb.tsv")))


def load_seed_kb(allow_person: bool = False) -> KnowledgeBase:
    return load_kb(default_kb_path(), allow_person=allow_person)
