"""Rule-based segmentation of words into phoneme-like grapheme clusters.

Each script is segmented by one regular expression, compiled at import
from the character classes below.  A Latin word is what `C*V(?:N(?=C))?|C+`
finds from left to right (C a consonant, V a vowel, N an n or m, in either
case): `C*V` holds phonify_latin's rules 1 and 4, `N(?=C)` rule 2 and `C+`
rule 3.  A Devanagari word is one match of `IS?|K(?:HK)*(?:H|M)?S?` at each
offset (I an independent vowel, K a consonant with an optional nukta, H the
halant, M a matra, S a nasalization sign); an offset where none starts holds
a dependent sign with no base consonant or a letter of another script.

Segmentation is lossless: concatenating the phoneme surfaces of a word
always reproduces the (NFC-normalized) word exactly.  A PhonemeSequence
holds those surfaces as strings, read through surfaces(), keys() (the
case-folded form the model tables are keyed by) and bracketed().
"""

from __future__ import annotations

import re
import string
import unicodedata
from dataclasses import dataclass

from .errors import MalformedWordError, ScriptError


# Only ASCII letters count as Latin: str.lower() would also let through
# letters such as 'İ' (which lowers to two characters) or the Kelvin sign.
LATIN_LETTERS = frozenset(string.ascii_letters)
LATIN_VOWELS = frozenset("aeiou")
LATIN_NASALS = frozenset("nm")

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


def _any_of(chars) -> str:
    """A regex character class; sorted, so the pattern text does not
    depend on the hash seed."""
    return "[" + "".join(sorted(chars)) + "]"


_LATIN_VOWEL = _any_of(c for c in LATIN_LETTERS if c.lower() in LATIN_VOWELS)
_LATIN_CONSONANT = _any_of(c for c in LATIN_LETTERS if c.lower() not in LATIN_VOWELS)
_LATIN_NASAL = _any_of(c for c in LATIN_LETTERS if c.lower() in LATIN_NASALS)
_LATIN_PHONEME = re.compile(
    f"{_LATIN_CONSONANT}*{_LATIN_VOWEL}(?:{_LATIN_NASAL}(?={_LATIN_CONSONANT}))?|{_LATIN_CONSONANT}+"
)

_DEV_CONSONANT = _any_of(DEV_CONSONANTS) + DEV_NUKTA + "?"
_DEV_AKSHARA = re.compile(
    f"{_any_of(DEV_INDEPENDENT_VOWELS)}{_any_of(DEV_NASALIZATION)}?"
    f"|{_DEV_CONSONANT}(?:{DEV_HALANT}{_DEV_CONSONANT})*"
    f"(?:{DEV_HALANT}|{_any_of(DEV_MATRAS)})?{_any_of(DEV_NASALIZATION)}?"
)


@dataclass(frozen=True)
class PhonemeSequence:
    """Ordered phonemes of one word, held as their surfaces."""

    units: tuple[str, ...]
    source_word: str

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
    return PhonemeSequence(tuple(_LATIN_PHONEME.findall(word)), word)


def phonify_devanagari(word: str) -> PhonemeSequence:
    """Segment a Devanagari word into aksharas.

    Each phoneme is an independent vowel, or a consonant (optionally
    extended by halant+consonant conjuncts and nukta) with an optional
    matra; either kind may end with one nasalization sign.  A trailing
    halant stays with its consonant as an explicit vowel killer.
    """
    word = unicodedata.normalize("NFC", word)
    units = []
    i = 0
    while i < len(word):
        akshara = _DEV_AKSHARA.match(word, i)
        if akshara is None:
            c = word[i]
            if c in DEV_MATRAS or c in DEV_NASALIZATION or c in (DEV_HALANT, DEV_NUKTA):
                raise MalformedWordError(f"dependent sign {c!r} with no base consonant", offset=i)
            raise ScriptError(f"not a Devanagari letter or sign: {c!r} at offset {i} in {word!r}")
        units.append(akshara.group())
        i = akshara.end()
    return PhonemeSequence(tuple(units), word)


def phonify(word: str) -> PhonemeSequence:
    """Segment a word in the script it is written in, Latin or
    Devanagari; an empty word, or one that mixes scripts or uses another,
    raises ScriptError."""
    word = unicodedata.normalize("NFC", word)
    if not word:
        raise ScriptError("cannot detect the script of an empty string")
    if LATIN_LETTERS.issuperset(word):
        return phonify_latin(word)
    if _DEV_ALL.issuperset(word):
        return phonify_devanagari(word)
    raise ScriptError(f"mixed or unsupported script in {word!r}")
