import random

import pytest

from ne_translit.errors import KnowledgeBaseError
from ne_translit.kb import (
    EntityCategory,
    KBEntry,
    KnowledgeBase,
    SEED_KB_ENV_VAR,
    load_kb,
    load_seed_kb,
    normalize,
)


def test_normalize_examples():
    assert normalize("  Indian   Institute of Technology ") == "indian institute of technology"
    assert normalize("भारत") == "भारत"
    assert normalize("  Finance\t\tMINISTRY  ") == "finance ministry"


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


def test_seed_kb_env_override(tmp_path, monkeypatch):
    alt = tmp_path / "kb.tsv"
    alt.write_text("Mars\tमंगल\tLOC\n", encoding="utf-8")
    monkeypatch.setenv(SEED_KB_ENV_VAR, str(alt))
    kb = load_seed_kb()
    assert len(kb) == 1
    assert kb.lookup("Mars", EntityCategory.LOCATION) == "मंगल"


def test_category_scoping_allows_same_key_twice():
    kb = KnowledgeBase()
    kb.add(KBEntry("delhi", "दिल्ली शहर", EntityCategory.LOCATION))
    kb.add(KBEntry("delhi", "दिल्ली संगठन", EntityCategory.ORGANIZATION))
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


def test_person_entries_need_the_extension_flag(tmp_path):
    path = tmp_path / "kb.tsv"
    path.write_text("Gandhi\tगांधी\tPER\n", encoding="utf-8")
    with pytest.raises(KnowledgeBaseError):
        load_kb(path)
    kb = load_kb(path, allow_person=True)
    assert kb.lookup("Gandhi", EntityCategory.PERSON) == "गांधी"


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
