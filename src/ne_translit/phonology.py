"""Rule-based segmentation of words into phoneme-like grapheme clusters.

Latin words are split around vowel nuclei: the longest consonant run before
a vowel joins it as the onset, a nasal (n/m) right after the nucleus joins
as a coda when another consonant follows, and consonant material with no
vowel left to claim it stands alone.  Devanagari words are split into
aksharas: an independent vowel, or a consonant cluster with its optional
matra, either one optionally carrying a nasalization sign.

Segmentation is lossless: concatenating the phoneme surfaces of a word
always reproduces the (NFC-normalized) word exactly.  A PhonemeSequence
holds those surfaces as strings, read through surfaces(), keys() (the
case-folded form the model tables are keyed by) and bracketed().
"""

from __future__ import annotations

import string
import unicodedata
from dataclasses import dataclass
from enum import Enum

from .errors import MalformedWordError, ScriptError


class Script(Enum):
    LATIN = "latin"
    DEVANAGARI = "devanagari"


# Only ASCII letters count as Latin: str.lower() would also let through
# letters such as 'İ' (which lowers to two characters) or the Kelvin sign.
LATIN_LETTERS = frozenset(string.ascii_letters)
LATIN_VOWELS = frozenset("aeiou")
LATIN_NASALS = frozenset("nm")
_LATIN_CONSONANTS = LATIN_LETTERS - LATIN_VOWELS - frozenset("AEIOU")
_LATIN_NASALS_ANY_CASE = LATIN_NASALS | frozenset("NM")

DEV_INDEPENDENT_VOWELS = frozenset(chr(c) for c in range(0x0904, 0x0915)) | frozenset("ॠॡ")
DEV_CONSONANTS = (
    frozenset(chr(c) for c in range(0x0915, 0x093A))
    | frozenset(chr(c) for c in range(0x0958, 0x0960))
    | frozenset(chr(c) for c in range(0x0979, 0x0980))
)
DEV_MATRAS = frozenset(chr(c) for c in range(0x093E, 0x094D)) | frozenset("ॢॣ")
DEV_NASALIZATION = frozenset("ँंः")  # chandrabindu, anusvara, visarga
DEV_HALANT = "्"
DEV_NUKTA = "़"

_DEV_ALL = (
    DEV_INDEPENDENT_VOWELS | DEV_CONSONANTS | DEV_MATRAS | DEV_NASALIZATION | {DEV_HALANT, DEV_NUKTA}
)


@dataclass(frozen=True)
class PhonemeSequence:
    """Ordered phonemes of one word, all in the same script, held as their
    surfaces."""

    units: tuple[str, ...]
    source_word: str
    script: Script

    def __post_init__(self):
        if "" in self.units:
            raise ValueError("phoneme surface must be non-empty")
        joined = "".join(self.units)
        if joined != self.source_word:
            raise ValueError(f"segmentation of {self.source_word!r} is not lossless: {joined!r}")

    def __len__(self) -> int:
        return len(self.units)

    def surfaces(self) -> list[str]:
        return list(self.units)

    def keys(self) -> list[str]:
        """Case-folded surfaces, the form probability tables are keyed by."""
        return [s.casefold() for s in self.units]

    def bracketed(self) -> str:
        return "".join([f"[{s}]" for s in self.units])


def phonify_latin(word: str) -> PhonemeSequence:
    """Segment a Latin-script word.

    Rules, in order of precedence:
      1. the longest consonant run before a vowel joins that vowel as its
         onset, and each phoneme holds exactly one vowel;
      2. a nasal (n or m) directly after the vowel joins it as a coda when
         the character after the nasal is a consonant;
      3. a consonant run with no vowel after it (including a whole
         all-consonant word) is one standalone phoneme;
      4. adjacent vowels land in separate phonemes.

    The sequence holds the phoneme surfaces as slices of the NFC word.
    """
    word = unicodedata.normalize("NFC", word)
    if not LATIN_LETTERS.issuperset(word):
        for idx, c in enumerate(word):
            if c not in LATIN_LETTERS:
                raise ScriptError(f"not a Latin letter: {c!r} at offset {idx} in {word!r}")

    consonants = _LATIN_CONSONANTS
    units = []
    i, n = 0, len(word)
    while i < n:
        j = i
        while j < n and word[j] in consonants:
            j += 1
        if j == n:  # trailing consonant run, no nucleus left
            k = n
        else:
            k = j + 1  # word[j] is the single vowel nucleus
            if k + 1 < n and word[k] in _LATIN_NASALS_ANY_CASE and word[k + 1] in consonants:
                k += 1
        units.append(word[i:k])
        i = k
    return PhonemeSequence(tuple(units), word, Script.LATIN)


def phonify_devanagari(word: str) -> PhonemeSequence:
    """Segment a Devanagari word into aksharas.

    Each phoneme is an independent vowel, or a consonant (optionally
    extended by halant+consonant conjuncts and nukta) with an optional
    matra; either kind may end with one nasalization sign.  A trailing
    halant stays with its consonant as an explicit vowel killer.
    """
    word = unicodedata.normalize("NFC", word)
    if not word:
        return PhonemeSequence((), "", Script.DEVANAGARI)

    units = []
    i, n = 0, len(word)
    while i < n:
        c = word[i]
        start = i
        if c in DEV_INDEPENDENT_VOWELS:
            i += 1
            if i < n and word[i] in DEV_NASALIZATION:
                i += 1
        elif c in DEV_CONSONANTS:
            i += 1
            if i < n and word[i] == DEV_NUKTA:
                i += 1
            while i + 1 < n and word[i] == DEV_HALANT and word[i + 1] in DEV_CONSONANTS:
                i += 2
                if i < n and word[i] == DEV_NUKTA:
                    i += 1
            if i < n and word[i] == DEV_HALANT:
                i += 1  # dead consonant: trailing halant suppresses the vowel
            elif i < n and word[i] in DEV_MATRAS:
                i += 1
            if i < n and word[i] in DEV_NASALIZATION:
                i += 1
        elif c in DEV_MATRAS or c in DEV_NASALIZATION or c in (DEV_HALANT, DEV_NUKTA):
            raise MalformedWordError(f"dependent sign {c!r} with no base consonant", offset=i)
        else:
            raise ScriptError(f"not a Devanagari letter or sign: {c!r} at offset {i} in {word!r}")
        units.append(word[start:i])
    return PhonemeSequence(tuple(units), word, Script.DEVANAGARI)


def detect_script(word: str) -> Script:
    """Decide which script a word is written in; mixed input is rejected."""
    word = unicodedata.normalize("NFC", word)
    if not word:
        raise ScriptError("cannot detect the script of an empty string")
    latin = all(c in LATIN_LETTERS for c in word)
    devanagari = all(c in _DEV_ALL for c in word)
    if latin:
        return Script.LATIN
    if devanagari:
        return Script.DEVANAGARI
    raise ScriptError(f"mixed or unsupported script in {word!r}")


def phonify(word: str) -> PhonemeSequence:
    """Segment a word after auto-detecting its script."""
    if detect_script(word) is Script.LATIN:
        return phonify_latin(word)
    return phonify_devanagari(word)
