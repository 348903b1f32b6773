import dataclasses
import itertools
import random
import sys
import unicodedata
from concurrent.futures import ThreadPoolExecutor

import pytest

from ne_translit.errors import MalformedWordError, NeTranslitError, ScriptError
from ne_translit.phonology import (
    PhonemeSequence,
    phonify,
    phonify_devanagari,
    phonify_latin,
)

from helpers import reference_phonify_devanagari, reference_phonify_latin

LATIN_GOLDENS = [
    ("Amar", ["A", "ma", "r"]),
    ("Radhika", ["Ra", "dhi", "ka"]),
    ("Anshika", ["An", "shi", "ka"]),
    ("Odisha", ["O", "di", "sha"]),
    ("Cherapunji", ["Che", "ra", "pun", "ji"]),
]

DEVANAGARI_GOLDENS = [
    ("अमर", ["अ", "म", "र"]),
    ("राधिका", ["रा", "धि", "का"]),
    ("अंशीका", ["अं", "शी", "का"]),
    ("ओडीशा", ["ओ", "डी", "शा"]),
    ("चेरापुंजी", ["चे", "रा", "पुं", "जी"]),
]


@pytest.mark.parametrize("word,expected", LATIN_GOLDENS)
def test_latin_goldens(word, expected):
    assert phonify_latin(word).surfaces() == expected


@pytest.mark.parametrize("word,expected", DEVANAGARI_GOLDENS)
def test_devanagari_goldens(word, expected):
    assert phonify_devanagari(word).surfaces() == expected


def test_single_vowel_word():
    assert phonify_latin("a").surfaces() == ["a"]


def test_all_consonant_word_is_one_phoneme():
    # a consonant run with no vowel to claim it stands alone
    assert phonify_latin("bcd").surfaces() == ["bcd"]


def test_nasal_attaches_only_before_a_consonant():
    assert phonify_latin("India").surfaces() == ["In", "di", "a"]
    assert phonify_latin("Aman").surfaces() == ["A", "ma", "n"]  # word-final nasal stands alone
    assert phonify_latin("Sona").surfaces() == ["So", "na"]  # nasal before vowel is an onset


def test_medial_cluster_joins_next_onset():
    assert phonify_latin("Markanda").surfaces() == ["Ma", "rkan", "da"]


def test_adjacent_vowels_split():
    assert phonify_latin("Kailash").surfaces() == ["Ka", "i", "la", "sh"]


def test_losslessness_random_latin_words():
    rng = random.Random(42)
    letters = "abcdefghijklmnopqrstuvwxyz"
    for _ in range(300):
        word = "".join(
            rng.choice(letters).upper() if rng.random() < 0.3 else rng.choice(letters)
            for _ in range(rng.randint(1, 12))
        )
        seq = phonify_latin(word)
        assert "".join(seq.surfaces()) == word


def test_losslessness_random_devanagari_words():
    rng = random.Random(43)
    consonants = "कखगचजटडतदनपबमयरलवशसह"
    vowels = "अआइईउ"
    matras = "ािीुूेैोौ"
    for _ in range(400):
        parts = []
        for _ in range(rng.randint(1, 5)):
            if rng.random() < 0.2:
                parts.append(rng.choice(vowels))
            else:
                parts.append(rng.choice(consonants))
                if rng.random() < 0.1:
                    parts.append("़")  # nukta on the base consonant
                while rng.random() < 0.15:  # halant conjunct chain
                    parts.append("्")
                    parts.append(rng.choice(consonants))
                if rng.random() < 0.6:
                    parts.append(rng.choice(matras))
            if rng.random() < 0.2:
                parts.append("ं")
        word = "".join(parts)
        seq = phonify_devanagari(word)
        # losslessness is against the NFC form (nukta may compose, e.g. न+़ -> ऩ)
        normalized = unicodedata.normalize("NFC", word)
        assert "".join(seq.units) == normalized


def test_determinism():
    for _ in range(3):
        assert phonify_latin("Cherapunji").surfaces() == ["Che", "ra", "pun", "ji"]
        assert phonify_devanagari("चेरापुंजी").surfaces() == ["चे", "रा", "पुं", "जी"]


def test_case_invariant_boundaries():
    for word, _ in LATIN_GOLDENS:
        upper = [len(s) for s in phonify_latin(word.upper()).surfaces()]
        lower = [len(s) for s in phonify_latin(word.lower()).surfaces()]
        original = [len(s) for s in phonify_latin(word).surfaces()]
        assert upper == lower == original


def test_keys_are_case_folded():
    assert phonify_latin("Amar").keys() == ["a", "ma", "r"]


def test_empty_word_gives_empty_sequence():
    assert len(phonify_latin("")) == 0
    assert len(phonify_devanagari("")) == 0


# Rule boundaries the goldens above do not reach: a coda in capitals, a
# final nasal after a coda, a doubled nasal, a vowel run, a final consonant;
# a nukta in a conjunct, chandrabindu and visarga, a trailing halant, and the
# conjuncts of common names.
BOUNDARY_GOLDENS = [
    (phonify_latin, "ANTa", ["AN", "Ta"]),
    (phonify_latin, "Sonam", ["So", "na", "m"]),
    (phonify_latin, "Amman", ["Am", "ma", "n"]),
    (phonify_latin, "Aia", ["A", "i", "a"]),
    (phonify_latin, "Sanjay", ["San", "ja", "y"]),
    (phonify_devanagari, "फ़्रांस", ["फ़्रां", "स"]),
    (phonify_devanagari, "हँसः", ["हँ", "सः"]),
    (phonify_devanagari, "अँधेरा", ["अँ", "धे", "रा"]),
    (phonify_devanagari, "राम्", ["रा", "म्"]),
    (phonify_devanagari, "क्षत्रिय", ["क्ष", "त्रि", "य"]),
    (phonify_devanagari, "ज्ञान", ["ज्ञा", "न"]),
    (phonify_devanagari, "स्तंभ", ["स्तं", "भ"]),
]

SEGMENTATION_GOLDENS = (
    [(phonify_latin, word, surfaces) for word, surfaces in LATIN_GOLDENS]
    + [(phonify_devanagari, word, surfaces) for word, surfaces in DEVANAGARI_GOLDENS]
    + BOUNDARY_GOLDENS
)


@pytest.mark.parametrize("segment,word,surfaces", SEGMENTATION_GOLDENS)
def test_sequence_reads_back_the_golden_surfaces(segment, word, surfaces):
    seq = segment(word)
    assert (seq.surfaces(), len(seq)) == (surfaces, len(surfaces))
    assert seq.keys() == [s.casefold() for s in surfaces]
    assert seq.bracketed() == "".join(f"[{s}]" for s in surfaces)


def _units_or_error(segment, word):
    """The units of `word`, or the type, message and offset of its error."""
    try:
        return segment(word)
    except NeTranslitError as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)


@pytest.mark.parametrize(
    "segment,reference,alphabet,max_length",
    [
        (phonify_latin, reference_phonify_latin, "aeAEbnNmMky", 5),
        (
            phonify_devanagari,
            reference_phonify_devanagari,
            ["क", "ष", "अ", "ॠ", "ऩ", "ा", "ि", "्", "़", "ं", "ँ", "ः", "x"],
            4,
        ),
    ],
)
def test_segmenters_match_the_reference_scanners(segment, reference, alphabet, max_length):
    # every word up to max_length over an alphabet that reaches each rule (and
    # each Devanagari error): the phonifiers cut and fail as the scanners do
    for length in range(max_length + 1):
        for letters in itertools.product(alphabet, repeat=length):
            word = unicodedata.normalize("NFC", "".join(letters))
            got = _units_or_error(lambda w: segment(w).units, word)
            assert got == _units_or_error(reference, word), word
            if all(isinstance(unit, str) for unit in got):  # accepted: lossless, no empty unit
                assert "" not in got and "".join(got) == word, word


def test_a_sequence_is_its_units():
    assert [f.name for f in dataclasses.fields(PhonemeSequence)] == ["units"]
    seq = PhonemeSequence(("Ra", "dhi", "ka"))
    assert seq == phonify_latin("Radhika")
    assert hash(seq) == hash(phonify_latin("Radhika"))


def _random_latin_words(seed, count):
    rng = random.Random(seed)
    return ["".join(rng.choice("aeiouAkmnrstKhNM") for _ in range(rng.randint(1, 8))) for _ in range(count)]


# phonify_latin segments the NFC form of the word.  An ASCII word is its own
# NFC and NFD form; the KELVIN SIGN spelling is one that only NFC turns into
# Latin letters.
KAMAL_SPELLINGS = [
    unicodedata.normalize("NFC", "Kamal"),
    unicodedata.normalize("NFD", "Kamal"),
    "\u212aamal",
]


@pytest.mark.parametrize("first", range(len(KAMAL_SPELLINGS)))
def test_normalization_variants_give_equal_sequences(first):
    seq = phonify_latin(KAMAL_SPELLINGS[first])
    assert "".join(seq.units) == "Kamal"
    for spelling in KAMAL_SPELLINGS:
        assert phonify_latin(spelling) == seq


def test_threads_phonifying_match_serial():
    words = _random_latin_words(29, 2000)
    expected = [phonify_latin(word) for word in words]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(lambda ws: [phonify_latin(w) for w in ws], [words] * 4))
    finally:
        sys.setswitchinterval(interval)
    assert all(result == expected for result in results)


def test_latin_error_names_the_first_non_latin_letter():
    with pytest.raises(ScriptError, match=r"not a Latin letter: 'é' at offset 3 in 'Joséé3'"):
        phonify_latin("Joséé3")


def test_latin_rejects_non_letters():
    with pytest.raises(ScriptError):
        phonify_latin("ab3")
    with pytest.raises(ScriptError):
        phonify_latin("अमर")
    with pytest.raises(ScriptError):
        phonify_latin("two words")


@pytest.mark.parametrize("word", ["İndia", "José", "Straße"])
def test_latin_accepts_only_ascii_letters(word):
    with pytest.raises(ScriptError):
        phonify_latin(word)
    with pytest.raises(ScriptError):
        phonify(word)


def test_kelvin_sign_is_normalized_to_k():
    # NFC maps the Kelvin sign to "K"; only the unnormalized character is OTHER
    assert "".join(phonify_latin("\u212aamal").units) == "Kamal"
    assert "".join(phonify("\u212aamal").units) == "Kamal"


def test_devanagari_rejects_latin():
    with pytest.raises(ScriptError):
        phonify_devanagari("Amar")


def test_dangling_sign_reports_offset():
    with pytest.raises(MalformedWordError) as excinfo:
        phonify_devanagari("ाम")
    assert excinfo.value.offset == 0
    with pytest.raises(MalformedWordError):
        phonify_devanagari("ंक")


def test_trailing_halant_stays_with_its_consonant():
    assert phonify_devanagari("राम्").surfaces() == ["रा", "म्"]


def test_conjunct_stays_in_one_phoneme():
    assert phonify_devanagari("क्षमा").surfaces() == ["क्ष", "मा"]


def test_detect_script_and_phonify_dispatch():
    assert phonify("Radhika").surfaces() == ["Ra", "dhi", "ka"]
    assert phonify("राधिका").surfaces() == ["रा", "धि", "का"]
    with pytest.raises(ScriptError, match="mixed or unsupported script"):
        phonify("aअ")


def test_phonify_rejects_an_empty_word():
    with pytest.raises(ScriptError) as excinfo:
        phonify("")
    assert str(excinfo.value) == "cannot detect the script of an empty string"
