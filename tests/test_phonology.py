import random
import sys
import unicodedata
from concurrent.futures import ThreadPoolExecutor

import pytest

from ne_translit import phonology
from ne_translit.errors import MalformedWordError, ScriptError
from ne_translit.phonology import (
    CharClass,
    Phoneme,
    Script,
    classify_char,
    detect_script,
    phonify,
    phonify_devanagari,
    phonify_latin,
    structure_of,
)

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


@pytest.mark.parametrize(
    "char,script,expected",
    [
        ("a", Script.LATIN, CharClass.VOWEL),
        ("E", Script.LATIN, CharClass.VOWEL),
        ("b", Script.LATIN, CharClass.CONSONANT),
        ("y", Script.LATIN, CharClass.CONSONANT),
        ("3", Script.LATIN, CharClass.OTHER),
        ("-", Script.LATIN, CharClass.OTHER),
        ("İ", Script.LATIN, CharClass.OTHER),  # lowers to two characters, "i̇"
        ("\u212a", Script.LATIN, CharClass.OTHER),  # Kelvin sign, lowers to "k"
        ("é", Script.LATIN, CharClass.OTHER),
        ("अ", Script.DEVANAGARI, CharClass.VOWEL),
        ("क", Script.DEVANAGARI, CharClass.CONSONANT),
        ("ा", Script.DEVANAGARI, CharClass.VOWEL_SIGN),
        ("ं", Script.DEVANAGARI, CharClass.NASALIZATION_SIGN),
        ("ः", Script.DEVANAGARI, CharClass.NASALIZATION_SIGN),
        ("।", Script.DEVANAGARI, CharClass.OTHER),
    ],
)
def test_classify_char(char, script, expected):
    assert classify_char(char, script) is expected


def test_classify_char_rejects_multicharacter_input():
    with pytest.raises(ValueError):
        classify_char("ab", Script.LATIN)


@pytest.mark.parametrize(
    "surface,script,expected",
    [
        ("pun", Script.LATIN, "CVC"),
        ("A", Script.LATIN, "V"),
        ("sha", Script.LATIN, "CCV"),
        ("dhi", Script.LATIN, "CCV"),
        ("bcd", Script.LATIN, "CCC"),
        ("अ", Script.DEVANAGARI, "V"),
        ("म", Script.DEVANAGARI, "C"),
        ("रा", Script.DEVANAGARI, "CV"),
        ("अं", Script.DEVANAGARI, "VC"),
        ("पुं", Script.DEVANAGARI, "CVC"),
        ("क्षा", Script.DEVANAGARI, "CCV"),
        ("म्", Script.DEVANAGARI, "C"),
    ],
)
def test_structure_of(surface, script, expected):
    assert structure_of(Phoneme(surface, script)) == expected


def test_structure_matches_stored_tag_for_every_output_phoneme():
    for word, _ in LATIN_GOLDENS:
        for p in phonify_latin(word):
            assert p.structure == structure_of(Phoneme(p.surface, p.script))
    for word, _ in DEVANAGARI_GOLDENS:
        for p in phonify_devanagari(word):
            assert p.structure == structure_of(Phoneme(p.surface, p.script))


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
        assert seq.source_word == normalized
        assert "".join(seq.surfaces()) == normalized
        for p in seq:
            assert p.structure == structure_of(Phoneme(p.surface, p.script))


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


def test_interned_latin_phonemes_never_exceed_their_bound(monkeypatch):
    monkeypatch.setattr(phonology, "PHONEME_INTERN_SIZE", 5)
    monkeypatch.setattr(phonology, "_latin_phonemes", {})
    assert phonify_latin("Amar")[1] is phonify_latin("Kama")[1]  # one interned "ma"
    rng = random.Random(27)
    for _ in range(300):
        word = "".join(rng.choice("aeiouAkmnrstKhNM") for _ in range(rng.randint(1, 8)))
        seq = phonify_latin(word)
        assert seq.phonemes == tuple(Phoneme(s, Script.LATIN) for s in seq.surfaces())
        assert "".join(seq.surfaces()) == word
        assert 1 <= len(phonology._latin_phonemes) <= 5


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
    assert seq.source_word == "Kamal"
    for spelling in KAMAL_SPELLINGS:
        assert phonify_latin(spelling) == seq


def test_threads_phonifying_while_the_phoneme_table_clears_match_serial(monkeypatch):
    monkeypatch.setattr(phonology, "PHONEME_INTERN_SIZE", 5)
    monkeypatch.setattr(phonology, "_latin_phonemes", {})
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
    assert 1 <= len(phonology._latin_phonemes) <= 5 + 3  # a racing thread may add one more


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
        detect_script(word)


def test_kelvin_sign_is_normalized_to_k():
    # NFC maps the Kelvin sign to "K"; only the unnormalized character is OTHER
    assert phonify_latin("\u212aamal").source_word == "Kamal"
    assert detect_script("\u212aamal") is Script.LATIN


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
    assert detect_script("Amar") is Script.LATIN
    assert detect_script("अमर") is Script.DEVANAGARI
    assert phonify("Radhika").surfaces() == ["Ra", "dhi", "ka"]
    assert phonify("राधिका").surfaces() == ["रा", "धि", "का"]
    with pytest.raises(ScriptError):
        detect_script("aअ")
