"""Exact-match translation store for entity names.

Some entity names have conventional Hindi translations that sound nothing
like the English ("Finance Ministry" is वित्त मंत्रालय); transliterating
those makes the text worse, so the pipeline checks this store first and
only falls through to transliteration on a miss.  Organizations and
locations always consult it; person names do only when it holds a PER row.
"""

from __future__ import annotations

import unicodedata
from enum import Enum
from importlib import resources
from pathlib import Path

from .errors import KnowledgeBaseError
from .textfile import read_lines


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
_PERSON = EntityCategory.PERSON  # bound once: an Enum class attribute lookup costs about 0.1 µs


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
    """Immutable-by-convention lookup of (category, normalized name).

    has_persons tells whether a PER row has been stored, and so whether
    person names consult this KB.
    """

    def __init__(self, rows=()):
        """rows: (english, hindi, category) triples, each stored by add."""
        self._table: dict[tuple[EntityCategory, str], str] = {}
        self.has_persons = False
        for english, hindi, category in rows:
            self.add(english, hindi, category)

    def add(self, english: str, hindi: str, category: EntityCategory) -> None:
        """Store hindi, stripped, under the normal form of english.  A
        category that is not an EntityCategory raises TypeError; an empty
        name or translation, or a key that is not a fixed point of
        normalize, raises ValueError; a second row with one key in one
        category raises KnowledgeBaseError."""
        if not isinstance(category, EntityCategory):
            raise TypeError(f"not an EntityCategory: {category!r}")
        key, hindi = normalize(english), hindi.strip()
        if not key or not hindi:
            raise ValueError("empty entity or translation")
        if key != normalize(key):
            raise ValueError(f"key {key!r} is not in normal form")
        if (category, key) in self._table:
            raise KnowledgeBaseError(f"duplicate entry for {key!r} ({category.value})")
        self._table[category, key] = hindi
        if category is _PERSON:
            self.has_persons = True

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


def load_kb(path) -> KnowledgeBase:
    """Load a KB file: english<TAB>hindi<TAB>category per line, '#' comments.

    Each row is stored by KnowledgeBase.add, and every error, the file's
    or add's, names the offending line.
    """
    path = Path(path)
    kb = KnowledgeBase()
    # looked up once: each attribute lookup on an Enum class costs about 0.1 µs
    parse = EntityCategory.parse
    for lineno, line in read_lines(path, KnowledgeBaseError, "knowledge base"):
        cols = line.split("\t")
        if len(cols) != 3:
            raise KnowledgeBaseError(f"{path}: line {lineno}: expected english<TAB>hindi<TAB>category")
        try:
            kb.add(cols[0], cols[1], parse(cols[2].strip()))
        except (ValueError, KnowledgeBaseError) as exc:
            raise KnowledgeBaseError(f"{path}: line {lineno}: {exc}") from exc
    return kb


def load_seed_kb() -> KnowledgeBase:
    """The packaged seed KB, data/seed_kb.tsv; load_kb reads any other."""
    return load_kb(Path(str(resources.files("ne_translit").joinpath("data/seed_kb.tsv"))))
