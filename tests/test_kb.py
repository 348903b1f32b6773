import random
import re
import sys
import unicodedata

import pytest

from ne_translit import kb as kb_mod
from ne_translit.errors import KnowledgeBaseError
from ne_translit.kb import (
    EntityCategory,
    KnowledgeBase,
    load_kb,
    load_seed_kb,
    normalize,
)


def test_normalize_examples():
    assert normalize("  Indian   Institute of Technology ") == "indian institute of technology"
    assert normalize("भारत") == "भारत"
    assert normalize("  Finance\t\tMINISTRY  ") == "finance ministry"


_WHITESPACE_RUNS = re.compile(r"\s+")


def regex_normalize(text):
    """The earlier regex definition of normalize, with NFC run again after
    casefold, kept as the oracle."""
    nfc = unicodedata.normalize
    return _WHITESPACE_RUNS.sub(" ", nfc("NFC", nfc("NFC", text).casefold())).strip()


def test_normalize_matches_the_regex_definition_and_is_idempotent():
    # every code point that is whitespace, has a nonzero combining class, or
    # changes under casefold or NFC, alone and in contexts that put it
    # between letters, next to itself, next to whitespace and next to a mark
    nfc, combining = unicodedata.normalize, unicodedata.combining
    special = [
        c for c in map(chr, range(sys.maxunicode + 1))
        if c.isspace() or combining(c) or c.casefold() != c or nfc("NFC", c) != c
    ]
    assert len(special) > 3000
    for c in special:
        for text in (c, f"a{c}b", f" {c}{c}\t", f"A\u0301{c}", f"x\u00a0{c}\u3000y"):
            once = normalize(text)
            assert once == regex_normalize(text), ascii(text)
            assert normalize(once) == once, ascii(text)
        # a mark after c, which casefold can leave out of canonical order
        # (I WITH DOT ABOVE casefolds to i + U+0307, which belongs after a
        # U+0316): the second NFC puts it back
        text = f"{c}\u0316"
        once = normalize(text)
        assert once == regex_normalize(text), ascii(text)
        assert normalize(once) == once, ascii(text)


def test_normalize_is_idempotent_on_random_strings():
    rng = random.Random(5)
    alphabet = "AbC xyz\t\n  भारत रेल ÀÉß12.,-"
    for _ in range(300):
        s = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 24)))
        once = normalize(s)
        assert normalize(once) == once


def test_seed_kb_contents():
    kb = load_seed_kb()
    assert len(kb) == 5
    org = EntityCategory.ORGANIZATION
    loc = EntityCategory.LOCATION
    assert kb.lookup("Indian Institute of Technology", org) == "भारतीय प्रौद्योगिकी संस्थान"
    assert kb.lookup("Finance Ministry", org) == "वित्त मंत्रालय"
    assert kb.lookup("Indian Railways", org) == "भारतीय रेल"
    assert kb.lookup("Central Secretariate", org) == "केन्द्रीय सचिवालय"
    assert kb.lookup("India", loc) == "भारत"


def test_lookup_is_case_and_whitespace_robust():
    kb = load_seed_kb()
    assert kb.lookup("FINANCE  ministry", EntityCategory.ORGANIZATION) == "वित्त मंत्रालय"


def test_lookup_miss_returns_none():
    kb = load_seed_kb()
    assert kb.lookup("Atlantis", EntityCategory.LOCATION) is None
    # categories are scoped: India is a location, not an organization
    assert kb.lookup("India", EntityCategory.ORGANIZATION) is None


def test_no_environment_variable_replaces_the_seed_kb(tmp_path, monkeypatch):
    # --kb and load_kb choose another KB; the seed is always the packaged file
    alt = tmp_path / "kb.tsv"
    alt.write_text("Mars\tमंगल\tLOC\n", encoding="utf-8")
    packaged = load_seed_kb().entries()
    monkeypatch.setenv("NE_TRANSLIT_SEED_KB", str(alt))
    kb = load_seed_kb()
    assert kb.entries() == packaged
    assert len(kb) > 1
    assert kb.lookup("Mars", EntityCategory.LOCATION) is None
    assert kb.lookup("India", EntityCategory.LOCATION) == "भारत"


def test_category_scoping_allows_same_key_twice():
    kb = KnowledgeBase()
    kb.add("delhi", "दिल्ली शहर", EntityCategory.LOCATION)
    kb.add("delhi", "दिल्ली संगठन", EntityCategory.ORGANIZATION)
    assert kb.lookup("Delhi", EntityCategory.LOCATION) == "दिल्ली शहर"
    assert kb.lookup("Delhi", EntityCategory.ORGANIZATION) == "दिल्ली संगठन"


def test_empty_file_gives_empty_kb(tmp_path):
    path = tmp_path / "kb.tsv"
    path.write_text("# nothing here\n\n", encoding="utf-8")
    assert len(load_kb(path)) == 0


def test_duplicate_key_errors_with_line(tmp_path):
    path = tmp_path / "kb.tsv"
    path.write_text(
        "Finance Ministry\tवित्त मंत्रालय\tORG\nfinance  MINISTRY\tकुछ और\tORG\n",
        encoding="utf-8",
    )
    with pytest.raises(KnowledgeBaseError) as excinfo:
        load_kb(path)
    assert "line 2" in str(excinfo.value)


def test_missing_column_errors_with_line(tmp_path):
    path = tmp_path / "kb.tsv"
    path.write_text("India\tभारत\tLOC\nIndia only\n", encoding="utf-8")
    with pytest.raises(KnowledgeBaseError) as excinfo:
        load_kb(path)
    assert "line 2" in str(excinfo.value)


def test_person_entries_load_and_turn_on_person_lookup(tmp_path):
    path = tmp_path / "kb.tsv"
    path.write_text("India\tभारत\tLOC\n", encoding="utf-8")
    assert load_kb(path).has_persons is False
    path.write_text("India\tभारत\tLOC\nGandhi\tगांधी\tPER\n", encoding="utf-8")
    kb = load_kb(path)
    assert kb.has_persons is True
    assert kb.lookup("Gandhi", EntityCategory.PERSON) == "गांधी"


def test_the_seed_kb_has_no_person_row():
    # so a person name never consults it, as before PER rows could load
    kb = load_seed_kb()
    assert kb.has_persons is False
    assert all(category is not EntityCategory.PERSON for _, _, category in kb.entries())


def test_a_stored_person_row_turns_on_person_lookup():
    kb = KnowledgeBase([("Delhi", "दिल्ली", EntityCategory.LOCATION)])
    assert kb.has_persons is False
    with pytest.raises(ValueError):
        kb.add("Gandhi", " ", EntityCategory.PERSON)  # a rejected row stores nothing
    assert kb.has_persons is False
    kb.add("Gandhi", "गांधी", EntityCategory.PERSON)
    assert kb.has_persons is True
    with pytest.raises(KnowledgeBaseError):
        kb.add("gandhi", "गांधी", EntityCategory.PERSON)
    assert kb.has_persons is True
    assert KnowledgeBase([("Gandhi", "गांधी", EntityCategory.PERSON)]).has_persons is True


@pytest.mark.parametrize("category", ["LOC", "LOCATION", None, 1])
def test_add_rejects_a_category_that_is_not_an_entity_category(category):
    kb = KnowledgeBase()
    with pytest.raises(TypeError) as excinfo:
        kb.add("Delhi", "दिल्ली", category)
    assert str(excinfo.value) == f"not an EntityCategory: {category!r}"
    assert (len(kb), kb.entries(), kb.has_persons) == (0, [], False)
    with pytest.raises(TypeError):
        KnowledgeBase([("Delhi", "दिल्ली", category)])


def test_generated_kb_lookup_is_exhaustive(tmp_path):
    lines = [f"entity {i} name\tअनुवाद{i}\t{'ORG' if i % 2 else 'LOC'}" for i in range(1000)]
    path = tmp_path / "big.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    kb = load_kb(path)
    assert len(kb) == 1000
    for i in range(1000):
        cat = EntityCategory.ORGANIZATION if i % 2 else EntityCategory.LOCATION
        other = EntityCategory.LOCATION if i % 2 else EntityCategory.ORGANIZATION
        assert kb.lookup(f"Entity {i} NAME", cat) == f"अनुवाद{i}"
        assert kb.lookup(f"Entity {i} NAME", other) is None
        assert kb.lookup(f"entity {i} nam", cat) is None  # no partial matching


def test_category_parse_accepts_codes_and_names():
    assert EntityCategory.parse("LOC") is EntityCategory.LOCATION
    assert EntityCategory.parse("location") is EntityCategory.LOCATION
    with pytest.raises(ValueError):
        EntityCategory.parse("CITY")


@pytest.mark.parametrize(
    "text, expected",
    [
        ("PER", EntityCategory.PERSON),
        ("per", EntityCategory.PERSON),
        (" Person\t", EntityCategory.PERSON),
        ("LoC", EntityCategory.LOCATION),
        ("\tlocation ", EntityCategory.LOCATION),
        ("ORG", EntityCategory.ORGANIZATION),
        (" organization", EntityCategory.ORGANIZATION),
        ("OrGaNiZaTiOn\n", EntityCategory.ORGANIZATION),
    ],
)
def test_category_parse_folds_case_and_strips_whitespace(text, expected):
    assert EntityCategory.parse(text) is expected


@pytest.mark.parametrize("text", ["", " ", "CITY", "PE R", "PERS", "ORGANISATION", "Person.", "PER|LOC"])
def test_category_parse_rejects_other_labels(text):
    with pytest.raises(ValueError, match="unknown entity category"):
        EntityCategory.parse(text)


# Unicode whitespace runs inside names (NBSP, the ideographic space U+3000,
# the \x1c-\x1f separators), NFD input, a casefold collision (Straße and
# STRASSE) kept apart by category, padded and long-form category labels,
# and a PER row under its long label.  Line 9 is the last row; a comment
# and a blank line sit before it, so line numbers count them.
KB_ROWS = [
    "# header comment",
    "New\u00a0\u00a0Delhi\tनई दिल्ली\tLOC",
    "",
    "Tokyo \u3000\u3000Tower\tटोक्यो टावर\t Organization",
    "Big\x1c\x1f Apple\t बिग ऐप्पल \tlocation",
    "Zu\u0308rich\tज्यूरिख\tloc",
    "Stra\u00dfe\tस्ट्रासे संघ\tORG",
    "STRASSE\tस्ट्रासे नगर\tLoc",
    "Gandhi\tगांधी\tPerson",
]

KB_TABLE = [
    ("big apple", "बिग ऐप्पल", "LOC"),
    ("new delhi", "नई दिल्ली", "LOC"),
    ("strasse", "स्ट्रासे नगर", "LOC"),
    ("zürich", "ज्यूरिख", "LOC"),
    ("strasse", "स्ट्रासे संघ", "ORG"),
    ("tokyo tower", "टोक्यो टावर", "ORG"),
    ("gandhi", "गांधी", "PER"),
]


def _write_kb(tmp_path, rows):
    path = tmp_path / "kb.tsv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


def test_load_kb_table_in_normal_form(tmp_path):
    kb = load_kb(_write_kb(tmp_path, KB_ROWS))
    assert [(key, hindi, category.value) for key, hindi, category in kb.entries()] == KB_TABLE
    assert kb.lookup("NEW delhi", EntityCategory.LOCATION) == "नई दिल्ली"
    assert kb.lookup("Zürich", EntityCategory.LOCATION) == "ज्यूरिख"
    assert kb.lookup("strasse", EntityCategory.ORGANIZATION) == "स्ट्रासे संघ"


def test_a_kb_built_in_code_equals_the_loaded_file(tmp_path):
    # each row's raw columns, unstripped: add normalizes the name and strips
    # the translation, for load_kb's rows and for these alike
    rows = [
        (english, hindi, EntityCategory.parse(label))
        for english, hindi, label in (row.split("\t") for row in KB_ROWS if row and row[0] != "#")
    ]
    assert KnowledgeBase(rows).entries() == load_kb(_write_kb(tmp_path, KB_ROWS)).entries()


def test_add_stores_the_normal_form_of_the_name():
    kb = KnowledgeBase()
    kb.add("  New Delhi ", "नई दिल्ली", EntityCategory.LOCATION)
    assert kb.entries() == [("new delhi", "नई दिल्ली", EntityCategory.LOCATION)]
    assert kb.lookup("NEW\u00a0DELHI", EntityCategory.LOCATION) == "नई दिल्ली"


@pytest.mark.parametrize("english, hindi", [("", "दिल्ली"), ("\u3000", "दिल्ली"), ("Delhi", ""), ("Delhi", " \u3000")])
def test_add_rejects_an_empty_name_or_translation(english, hindi):
    kb = KnowledgeBase()
    with pytest.raises(ValueError) as excinfo:
        kb.add(english, hindi, EntityCategory.LOCATION)
    assert str(excinfo.value) == "empty entity or translation"
    assert len(kb) == 0


@pytest.mark.parametrize(
    "last_row, person_row, message",
    [
        ("STRASSE\tअन्य\tORG", True, "duplicate entry for 'strasse' (ORG)"),
        ("new delhi\tअन्य\tLOCATION", True, "duplicate entry for 'new delhi' (LOC)"),
        ("Zürich\tअन्य\tLOC", True, "duplicate entry for 'zürich' (LOC)"),
        ("India only", True, "expected english<TAB>hindi<TAB>category"),
        ("a\tb\tLOC\textra", True, "expected english<TAB>hindi<TAB>category"),
        ("Mars\t\u3000\tLOC", True, "empty entity or translation"),
        ("Mars\tमंगल\t planet", True, "unknown entity category 'planet'"),
        ("Mars\tमंगल\t planet", False, "unknown entity category 'planet'"),
        ("GANDHI\tअन्य\tPER", True, "duplicate entry for 'gandhi' (PER)"),
        ("Gandhi\t \tPER", False, "empty entity or translation"),
    ],
)
def test_load_kb_diagnostics_name_path_and_line(tmp_path, last_row, person_row, message):
    # person_row puts KB_ROWS's PER row on the blank line 3: it loads like
    # any other row, so the file still fails at its line 9, and a PER row
    # gets the checks every row gets
    rows = KB_ROWS[:-1]
    if person_row:
        rows = rows[:2] + [KB_ROWS[-1]] + rows[3:]
    path = _write_kb(tmp_path, rows + [last_row])
    with pytest.raises(KnowledgeBaseError) as excinfo:
        load_kb(path)
    assert str(excinfo.value) == f"{path}: line 9: {message}"


def test_load_kb_unreadable_file_diagnostic(tmp_path):
    path = tmp_path / "missing.tsv"
    with pytest.raises(KnowledgeBaseError) as excinfo:
        load_kb(path)
    assert str(excinfo.value) == f"cannot read knowledge base {path}: [Errno 2] No such file or directory: '{path}'"


def test_load_kb_reports_a_name_whose_key_is_not_in_normal_form(tmp_path, monkeypatch):
    # casefold turns U+0130 into i + U+0307 after NFC has run, leaving U+0307
    # before U+0316; normalize's second NFC reorders them, so the row loads
    name = "\u0130\u0316stanbul"
    path = _write_kb(tmp_path, KB_ROWS[:-1] + [f"{name}\tइस्तांबुल\tLOC"])
    kb = load_kb(path)
    assert kb.lookup(name, EntityCategory.LOCATION) == "इस्तांबुल"
    assert ("i\u0316\u0307stanbul", "इस्तांबुल", EntityCategory.LOCATION) in kb.entries()
    # add takes a name in any form: this one's marks are out of canonical order
    key = "i\u0307\u0316stanbul"
    built = KnowledgeBase()
    built.add(key, "इस्तांबुल", EntityCategory.LOCATION)
    assert built.entries() == [("i\u0316\u0307stanbul", "इस्तांबुल", EntityCategory.LOCATION)]
    # without the second NFC the key is not a fixed point, and load_kb says so
    monkeypatch.setattr(
        kb_mod, "normalize", lambda text: " ".join(unicodedata.normalize("NFC", text).casefold().split())
    )
    with pytest.raises(KnowledgeBaseError) as excinfo:
        load_kb(path)
    assert str(excinfo.value) == f"{path}: line 9: key {key!r} is not in normal form"


def test_add_rejects_a_duplicate_key_in_one_category():
    kb = KnowledgeBase([("delhi", "दिल्ली", EntityCategory.LOCATION)])
    with pytest.raises(KnowledgeBaseError) as excinfo:
        kb.add("Delhi ", "दिल्ली शहर", EntityCategory.LOCATION)
    assert str(excinfo.value) == "duplicate entry for 'delhi' (LOC)"
    assert kb.lookup("Delhi", EntityCategory.LOCATION) == "दिल्ली"
