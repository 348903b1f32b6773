"""Exact-match translation store for organization and location names.

Some entity names have conventional Hindi translations that sound nothing
like the English ("Finance Ministry" is वित्त मंत्रालय); transliterating
those makes the text worse, so the pipeline checks this store first and
only falls through to transliteration on a miss.
"""

from __future__ import annotations

import os
import unicodedata
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


class KnowledgeBase:
    """Immutable-by-convention lookup of (category, normalized name)."""

    def __init__(self, rows=()):
        """rows: (english, hindi, category) triples, each stored by add."""
        self._table: dict[tuple[EntityCategory, str], str] = {}
        for english, hindi, category in rows:
            self.add(english, hindi, category)

    def add(self, english: str, hindi: str, category: EntityCategory) -> None:
        """Store hindi, stripped, under the normal form of english.  An
        empty name or translation, or a key that is not a fixed point of
        normalize, raises ValueError; a second row with one key in one
        category raises KnowledgeBaseError."""
        key, hindi = normalize(english), hindi.strip()
        if not key or not hindi:
            raise ValueError("empty entity or translation")
        if key != normalize(key):
            raise ValueError(f"key {key!r} is not in normal form")
        if (category, key) in self._table:
            raise KnowledgeBaseError(f"duplicate entry for {key!r} ({category.value})")
        self._table[category, key] = hindi

    def lookup(self, entity: str, category: EntityCategory) -> str | None:
        """Exact match only; None means fall through to transliteration."""
        return self._table.get((category, normalize(entity)))

    def entries(self) -> list[tuple[str, str, EntityCategory]]:
        """(normalized name, hindi, category) rows, by category code, then name."""
        return sorted(
            ((key, hindi, category) for (category, key), hindi in self._table.items()),
            key=lambda row: (row[2].value, row[0]),
        )

    def __len__(self) -> int:
        return len(self._table)


def load_kb(path, allow_person: bool = False) -> KnowledgeBase:
    """Load a KB file: english<TAB>hindi<TAB>category per line, '#' comments.

    Categories are ORG and LOC; PER rows are accepted only when
    allow_person is set.  Each row is stored by KnowledgeBase.add, and
    every error, the file's or add's, names the offending line.
    """
    path = Path(path)
    kb = KnowledgeBase()
    # looked up once: each attribute lookup on an Enum class costs about 0.1 µs
    parse, person = EntityCategory.parse, EntityCategory.PERSON
    for lineno, line in read_lines(path, KnowledgeBaseError, "knowledge base"):
        cols = line.split("\t")
        if len(cols) != 3:
            raise KnowledgeBaseError(f"{path}: line {lineno}: expected english<TAB>hindi<TAB>category")
        try:
            category = parse(cols[2].strip())
            if category is person and not allow_person:
                raise ValueError("PER entries need the person-lookup extension")
            kb.add(cols[0], cols[1], category)
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
