import random

import pytest

from ne_translit.errors import EvaluationError
from ne_translit.evaluation import (
    AccuracyReport,
    CategoryScore,
    GoldRecord,
    evaluate,
    load_gold,
    load_system,
    render_report,
)
from ne_translit.kb import EntityCategory

# Published reference counts used as report-arithmetic fixtures.
REFERENCE_COUNTS = {
    EntityCategory.PERSON: (11713, 11697, "0.99863"),
    EntityCategory.LOCATION: (7320, 7293, "0.99631"),
    EntityCategory.ORGANIZATION: (10250, 10153, "0.99053"),
}
REFERENCE_OVERALL = (29283, 29143, "0.99521")


def synthetic_records(counts):
    gold, system = [], []
    for category, (total, correct, _) in counts.items():
        for i in range(total):
            gold.append(GoldRecord(f"{category.value}{i}", category, "सही"))
            system.append("सही" if i < correct else "गलत")
    return gold, system


def test_reference_count_arithmetic():
    gold, system = synthetic_records(REFERENCE_COUNTS)
    report = evaluate(gold, system)
    for category, (total, correct, accuracy) in REFERENCE_COUNTS.items():
        score = report.score_for(category)
        assert (score.total, score.correct) == (total, correct)
        assert score.accuracy_text == accuracy
    assert (report.overall.total, report.overall.correct) == REFERENCE_OVERALL[:2]
    assert report.overall.accuracy_text == REFERENCE_OVERALL[2]


def test_accuracy_truncates_rather_than_rounds():
    # 10153/10250 = 0.99053658...; half-up rounding would print 0.99054
    assert CategoryScore(10250, 10153).accuracy_text == "0.99053"
    # 29143/29283 = 0.99521907...; half-up rounding would print 0.99522
    assert CategoryScore(29283, 29143).accuracy_text == "0.99521"


@pytest.mark.parametrize("total, correct", [(2, 3), (2, -1)])
def test_category_score_rejects_bad_counts(total, correct):
    with pytest.raises(ValueError) as excinfo:
        CategoryScore(total, correct)
    assert str(excinfo.value) == f"bad counts: {correct}/{total}"


@pytest.mark.parametrize("name", ["accuracy", "accuracy_text"])
def test_accuracy_over_zero_records_is_an_evaluation_error(name):
    with pytest.raises(EvaluationError) as excinfo:
        getattr(CategoryScore(0, 0), name)
    assert str(excinfo.value) == "cannot compute accuracy over zero records"


def test_all_correct_is_one():
    gold = [GoldRecord(f"e{i}", EntityCategory.PERSON, "ठीक") for i in range(10)]
    report = evaluate(gold, ["ठीक"] * 10)
    assert report.overall.accuracy == 1.0
    assert report.overall.accuracy_text == "1.00000"


def test_empty_gold_is_an_error():
    with pytest.raises(EvaluationError):
        evaluate([], [])


def test_length_mismatch_is_an_error():
    gold = [GoldRecord("a", EntityCategory.PERSON, "अ")]
    with pytest.raises(EvaluationError):
        evaluate(gold, ["अ", "ब"])


def test_matching_uses_normalization():
    gold = [GoldRecord("x", EntityCategory.LOCATION, "भारत")]
    report = evaluate(gold, ["  भारत "])
    assert report.overall.correct == 1


def test_joint_shuffling_leaves_the_report_unchanged():
    rng = random.Random(3)
    gold, system = synthetic_records(
        {
            EntityCategory.PERSON: (40, 31, None),
            EntityCategory.ORGANIZATION: (25, 20, None),
        }
    )
    baseline = evaluate(gold, system)
    paired = list(zip(gold, system))
    for _ in range(5):
        rng.shuffle(paired)
        shuffled_report = evaluate([g for g, _ in paired], [s for _, s in paired])
        assert shuffled_report == baseline


def test_aggregate_is_recomputed_from_counts_not_averaged():
    gold, system = synthetic_records(
        {
            EntityCategory.PERSON: (1, 1, None),
            EntityCategory.LOCATION: (10, 9, None),
        }
    )
    report = evaluate(gold, system)
    # 10/11 truncated, not the 0.95 average of 1.0 and 0.9
    assert report.overall.accuracy_text == "0.90909"


def test_report_skips_absent_categories():
    gold = [GoldRecord("a", EntityCategory.PERSON, "अ")]
    report = evaluate(gold, ["अ"])
    assert [cat for cat, _ in report.categories] == [EntityCategory.PERSON]
    with pytest.raises(KeyError):
        report.score_for(EntityCategory.LOCATION)


def test_render_text_report_is_column_aligned():
    report = AccuracyReport(
        categories=(
            (EntityCategory.PERSON, CategoryScore(40, 31)),
            (EntityCategory.ORGANIZATION, CategoryScore(25, 20)),
        ),
        overall=CategoryScore(65, 51),
    )
    expected = (
        "Category      Total  Correct  Accuracy\n"
        "Person           40       31   0.77500\n"
        "Organization     25       20   0.80000\n"
        "All              65       51   0.78461\n"
    )
    assert render_report(report, "text") == expected


def test_render_tsv_report():
    report = AccuracyReport(
        categories=((EntityCategory.PERSON, CategoryScore(2, 1)),),
        overall=CategoryScore(2, 1),
    )
    assert render_report(report, "tsv") == (
        "category\ttotal\tcorrect\taccuracy\n"
        "Person\t2\t1\t0.50000\n"
        "All\t2\t1\t0.50000\n"
    )


def test_render_rejects_unknown_format():
    report = AccuracyReport(categories=(), overall=CategoryScore(1, 1))
    with pytest.raises(ValueError):
        render_report(report, "json")


def test_gold_and_system_files_round_trip(tmp_path):
    gold_path = tmp_path / "gold.tsv"
    gold_path.write_text(
        "# comment\nIndia\tLOC\tभारत\nRadhika\tPER\tराधिका\n", encoding="utf-8"
    )
    system_path = tmp_path / "system.txt"
    system_path.write_text("भारत\nगलत\n", encoding="utf-8")
    gold = load_gold(gold_path)
    system = load_system(system_path)
    assert len(gold) == len(system) == 2
    report = evaluate(gold, system)
    assert report.overall.correct == 1


def test_load_gold_errors_name_the_line(tmp_path):
    path = tmp_path / "gold.tsv"
    path.write_text("India\tLOC\tभारत\nbroken line\n", encoding="utf-8")
    with pytest.raises(EvaluationError) as excinfo:
        load_gold(path)
    assert "line 2" in str(excinfo.value)


# read_lines strips each line, so an empty first or last column leaves two
# columns: no file line reaches GoldRecord with an empty entity or translation
@pytest.mark.parametrize(
    "line, message",
    [
        ("\tPER\tराधिका", "expected english<TAB>category<TAB>hindi"),
        ("Radhika\tPER\t ", "expected english<TAB>category<TAB>hindi"),
        ("Radhika\tXYZ\tराधिका", "unknown entity category 'XYZ'"),
    ],
)
def test_load_gold_rejects_a_bad_record_on_its_line(tmp_path, line, message):
    path = tmp_path / "gold.tsv"
    path.write_text(f"India\tLOC\tभारत\n{line}\n", encoding="utf-8")
    with pytest.raises(EvaluationError) as excinfo:
        load_gold(path)
    assert str(excinfo.value) == f"{path}: line 2: {message}"


@pytest.mark.parametrize("english, hindi", [("", "x"), ("x", "")])
def test_a_gold_record_needs_an_entity_and_a_translation(english, hindi):
    with pytest.raises(ValueError) as excinfo:
        GoldRecord(english, EntityCategory.PERSON, hindi)
    assert str(excinfo.value) == "empty entity or translation"


@pytest.mark.parametrize("english, hindi", [(" ", "राम"), ("Ram", "\u3000"), (" \t", "\u3000 ")])
def test_a_blank_gold_side_is_empty(english, hindi):
    # KnowledgeBase.add's rule: a side that is empty after stripping
    with pytest.raises(ValueError) as excinfo:
        GoldRecord(english, EntityCategory.PERSON, hindi)
    assert str(excinfo.value) == "empty entity or translation"


@pytest.mark.parametrize("category", ["PER", "PERSON", None])
def test_a_gold_record_needs_an_entity_category(category):
    with pytest.raises(TypeError) as excinfo:
        GoldRecord("Ram", category, "राम")
    assert str(excinfo.value) == f"not an EntityCategory: {category!r}"


def test_load_system_splits_lines_at_newlines_only(tmp_path):
    # str.splitlines would make two outputs of the line with U+2028 in it,
    # and universal newlines two of the line with a lone carriage return
    path = tmp_path / "system.txt"
    path.write_bytes("राम\u2028सीता\nगीता\rहरि\n\nभारत\r\n".encode("utf-8"))
    assert load_system(path) == ["राम\u2028सीता", "गीता\rहरि", "", "भारत\r"]
    path.write_text("भारत", encoding="utf-8")
    assert load_system(path) == ["भारत"]
    path.write_text("", encoding="utf-8")
    assert load_system(path) == []
