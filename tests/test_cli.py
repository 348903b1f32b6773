import gc
import hashlib
import io
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import ne_translit
from ne_translit.alignment import build_aligned_corpus, em_train_alignment, load_corpus
from ne_translit.cli import main, parse_config
from ne_translit.decoder import viterbi
from ne_translit.model import load_model, save_model
from ne_translit.phonology import phonify_latin

from helpers import make_memorization_corpus, reference_parse_inline, trace_items

CORPUS_LINES = [f"{e.english}\t{e.hindi}" for e in make_memorization_corpus(n=20, seed=3)]


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "corpus.tsv"
    path.write_text("\n".join(CORPUS_LINES) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def model_file(tmp_path, corpus_file):
    path = tmp_path / "model.txt"
    assert main(["--quiet", "train", str(corpus_file), str(path), "--smoothing-k", "0"]) == 0
    return path


def run_cli(argv, stdin_text="", monkeypatch=None):
    assert monkeypatch is not None
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    return main(argv)


def test_phonify_words(capsys, monkeypatch):
    code = run_cli(["phonify"], "Radhika\nराधिका\n", monkeypatch=monkeypatch)
    assert code == 0
    out = capsys.readouterr().out
    assert "Radhika\t[Ra][dhi][ka]" in out
    assert "राधिका\t[रा][धि][का]" in out


def test_phonify_bad_word_exits_one(capsys, monkeypatch):
    code = run_cli(["phonify"], "abc123\n", monkeypatch=monkeypatch)
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_train_reports_and_is_deterministic(tmp_path, corpus_file, capsys):
    model_a = tmp_path / "a.txt"
    model_b = tmp_path / "b.txt"
    assert main(["train", str(corpus_file), str(model_a)]) == 0
    out = capsys.readouterr().out
    assert "trained on 20 entries" in out
    assert "vocabulary" in out
    assert main(["train", str(corpus_file), str(model_b)]) == 0
    assert model_a.read_bytes() == model_b.read_bytes()


# SHA-256 of the model `train` writes for the corpus below, recorded with the
# EM that ran one forward-backward per occurrence: counting each distinct
# pair once with its multiplicity must not change a byte.
GOLDEN_MODEL_SHA256 = "1bf76f250f67214f39b6e9f182afb128b705ed87c289f58c68657d6d80b2e504"


def test_train_model_bytes_golden_with_duplicates(tmp_path):
    entries = make_memorization_corpus(n=50, seed=7)
    lines = [f"{e.english}\t{e.hindi}" for e in entries + entries[:20]]
    bad = "X9y\tरा"  # digits cannot be phonified
    lines.insert(10, bad)
    lines.append(bad)
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
    model = tmp_path / "model.tsv"
    assert main(["--quiet", "train", str(corpus), str(model)]) == 0
    assert hashlib.sha256(model.read_bytes()).hexdigest() == GOLDEN_MODEL_SHA256

    loaded, warnings = load_corpus(corpus)
    assert not warnings and len(loaded) == 72
    aligned, skipped = build_aligned_corpus(loaded, em_train_alignment(loaded, 10))
    assert len(aligned) == 70
    assert len(skipped) == 2 and skipped[0] == skipped[1] and skipped[0].startswith("X9y\t")


def test_train_empty_corpus_fails(tmp_path, capsys):
    corpus = tmp_path / "empty.tsv"
    corpus.write_text("# nothing\n", encoding="utf-8")
    model = tmp_path / "model.txt"
    assert main(["train", str(corpus), str(model)]) == 1
    assert "error" in capsys.readouterr().err


def test_train_warns_about_malformed_lines(tmp_path, capsys):
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text("Radhika\tराधिका\nbroken line\n", encoding="utf-8")
    model = tmp_path / "model.txt"
    assert main(["train", str(corpus), str(model)]) == 0
    captured = capsys.readouterr()
    assert "warning" in captured.err
    assert "1 skipped" in captured.out
    assert model.exists()


def test_transliterate_outputs_word_hindi_score(model_file, capsys, monkeypatch):
    code = run_cli(
        ["transliterate", "--model", str(model_file)], "Radhika\n", monkeypatch=monkeypatch
    )
    assert code == 0
    line = capsys.readouterr().out.strip()
    word, hindi, score = line.split("\t")
    assert (word, hindi) == ("Radhika", "राधिका")
    float(score)


def test_transliterate_trace_adds_per_position_column(model_file, capsys, monkeypatch):
    code = run_cli(
        ["transliterate", "--model", str(model_file), "--trace"],
        "Radhika\n",
        monkeypatch=monkeypatch,
    )
    assert code == 0
    columns = capsys.readouterr().out.strip().split("\t")
    assert len(columns) == 4
    items = columns[3].split(" ")
    assert len(items) == 3
    assert all(":" in item for item in items)


TRACE_WORDS = ["Radhika", "Kamala", "Xylophone", "Radhika", "José", "", "Pusaki", "Kamala"] + [
    line.split("\t")[0] for line in CORPUS_LINES[:6]
]

# SHA-256 of `transliterate --trace --fallback copy` stdout on TRACE_WORDS for
# a model trained on CORPUS_LINES at each smoothing constant, recorded when
# viterbi computed the per-position scores of every decoding.  The input has
# repeated words (memo hits), words that fall back (an unseen phoneme, a
# non-Latin letter) and, unsmoothed, a zero-probability path (Pusaki).
GOLDEN_TRACE_SHA256 = {
    "0": "985fd020539a28f806a7c769a10b3a1677d3caca831a67267bcda3fed4711c5c",
    "0.25": "6006db0123a1c7cd55cb3d835f530ead0f5db1b491b6fc34c592a4d2f9301e26",
}


def _trace_run(smoothing_k, tmp_path, corpus_file, capsys):
    model = tmp_path / "model.txt"
    assert main(["--quiet", "train", str(corpus_file), str(model), "--smoothing-k", smoothing_k]) == 0
    words = tmp_path / "words.txt"
    words.write_text("".join(f"{w}\n" for w in TRACE_WORDS), encoding="utf-8")
    argv = ["transliterate", "--model", str(model), "--trace", "--fallback", "copy", "--in", str(words)]
    assert main(argv) == 0
    return model, capsys.readouterr().out


@pytest.mark.parametrize("smoothing_k", sorted(GOLDEN_TRACE_SHA256))
def test_transliterate_trace_bytes_golden(smoothing_k, tmp_path, corpus_file, capsys):
    _, out = _trace_run(smoothing_k, tmp_path, corpus_file, capsys)
    lines = out.splitlines()
    assert len(lines) == len([w for w in TRACE_WORDS if w])
    assert sum(line.endswith("\t-") for line in lines) == 4  # Kamala twice, Xylophone, José
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_TRACE_SHA256[smoothing_k]


@pytest.mark.parametrize("smoothing_k", sorted(GOLDEN_TRACE_SHA256))
def test_trace_items_are_position_scores_of_the_decoded_path(smoothing_k, tmp_path, corpus_file, capsys):
    model_path, out = _trace_run(smoothing_k, tmp_path, corpus_file, capsys)
    trained = load_model(model_path)
    traced = 0
    for line in out.splitlines():
        cols = line.split("\t")
        if cols[2] == "-":
            assert len(cols) == 3
            continue
        keys = phonify_latin(cols[0]).keys()
        assert cols[3].split(" ") == trace_items(trained, viterbi(trained, keys).hindi_sequence, keys)
        traced += 1
    assert traced == 9


def test_transliterate_fallback_copy(model_file, capsys, monkeypatch):
    code = run_cli(
        ["transliterate", "--model", str(model_file), "--fallback", "copy"],
        "Xylophone\n",
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "Xylophone\tXylophone\t-"


def test_transliterate_fallback_copy_covers_non_latin_letters(model_file, capsys, monkeypatch):
    code = run_cli(
        ["transliterate", "--model", str(model_file), "--fallback", "copy"],
        "Radhika\nJosé\nRadhika\n",
        monkeypatch=monkeypatch,
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[1] == "José\tJosé\t-"
    assert lines[0] == lines[2] and lines[0].startswith("Radhika\tराधिका\t")


def test_transliterate_fallback_error_exits_one(model_file, capsys, monkeypatch):
    code = run_cli(
        ["transliterate", "--model", str(model_file)], "Xylophone\n", monkeypatch=monkeypatch
    )
    assert code == 1
    assert "no candidates" in capsys.readouterr().err


def test_translate_uses_kb_and_writes_decisions(tmp_path, model_file, capsys, monkeypatch):
    decisions = tmp_path / "decisions.tsv"
    code = run_cli(
        ["translate", "--model", str(model_file), "--decisions", str(decisions)],
        "[[India|LOC]] is a great country.\n[[Radhika|PER]] sang.\n",
        monkeypatch=monkeypatch,
    )
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "भारत is a great country."
    assert out[1] == "राधिका sang."
    records = decisions.read_text(encoding="utf-8").splitlines()
    assert records[0] == "1\t0\t5\tIndia\tLOC\tKB_HIT\tभारत"
    fields = records[1].split("\t")
    assert fields[:7] == ["2", "0", "7", "Radhika", "PER", "TRANSLITERATED", "राधिका"]
    assert len(fields) == 8  # transliterated records carry a score


def test_translate_with_a_missing_input_leaves_no_decisions_file(tmp_path, model_file, capsys):
    decisions = tmp_path / "decisions.tsv"
    argv = ["translate", "--model", str(model_file), "--decisions", str(decisions), "--in", str(tmp_path / "missing")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 1
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert not decisions.exists()
    assert "missing" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["phonify", "transliterate", "translate"])
def test_reading_stdin_leaves_it_open(command, model_file, monkeypatch):
    argv = [command] if command == "phonify" else [command, "--model", str(model_file), "--fallback", "copy"]
    assert run_cli(argv, "Radhika\n", monkeypatch=monkeypatch) == 0
    assert not sys.stdin.closed


def test_translate_fallback_decision_has_no_score(tmp_path, model_file, capsys, monkeypatch):
    decisions = tmp_path / "decisions.tsv"
    code = run_cli(
        [
            "translate",
            "--model",
            str(model_file),
            "--fallback",
            "copy",
            "--decisions",
            str(decisions),
        ],
        "[[Zanzibar|LOC]] calls.\n",
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == "Zanzibar calls."
    fields = decisions.read_text(encoding="utf-8").strip().split("\t")
    assert fields[5] == "FALLBACK"
    assert len(fields) == 7  # no trailing score column


def test_translate_non_latin_entity_falls_back(tmp_path, model_file, capsys, monkeypatch):
    decisions = tmp_path / "decisions.tsv"
    argv = ["translate", "--model", str(model_file), "--fallback", "copy", "--decisions", str(decisions)]
    code = run_cli(argv, "[[José|PER]] spoke.\n[[Radhika|PER]] sang.\n", monkeypatch=monkeypatch)
    assert code == 0
    assert capsys.readouterr().out.splitlines() == ["José spoke.", "राधिका sang."]
    first = decisions.read_text(encoding="utf-8").splitlines()[0].split("\t")
    assert first[3] == "José"
    assert first[5:] == ["FALLBACK", "José"]


def test_translate_columnar_format(model_file, capsys, monkeypatch):
    code = run_cli(
        ["translate", "--model", str(model_file), "--format", "columnar"],
        "India is a great country.\t0,5,LOC\n",
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == "भारत is a great country."


def test_translate_custom_kb(tmp_path, model_file, capsys, monkeypatch):
    kb = tmp_path / "kb.tsv"
    kb.write_text("India\tहिंदुस्तान\tLOC\n", encoding="utf-8")
    code = run_cli(
        ["translate", "--model", str(model_file), "--kb", str(kb)],
        "[[India|LOC]] won.\n",
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == "हिंदुस्तान won."


BATCH_WITH_A_BAD_LINE = "[[Radhika|PER]] sang.\n[[Bad|XYZ]] x\n[[Radhika|PER]] sang.\n"
BAD_LINE_ERROR = "ne-translit: error: line 2: offset 0: unknown entity category 'XYZ'"


@pytest.mark.parametrize("on_error", [None, "abort"])
def test_translate_aborts_on_a_bad_line_by_default(on_error, model_file, capsys, monkeypatch):
    argv = ["translate", "--model", str(model_file)]
    if on_error:
        argv += ["--on-error", on_error]
    code = run_cli(argv, BATCH_WITH_A_BAD_LINE, monkeypatch=monkeypatch)
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == "राधिका sang.\n"
    assert captured.err == "ne-translit: error: offset 0: unknown entity category 'XYZ'\n"


@pytest.mark.parametrize(
    "on_error, bad_output", [("skip", ""), ("passthrough", "[[Bad|XYZ]] x")]
)
def test_translate_on_error_keeps_the_batch_line_aligned(
    on_error, bad_output, tmp_path, model_file, capsys, monkeypatch
):
    decisions = tmp_path / "decisions.tsv"
    argv = ["translate", "--model", str(model_file), "--on-error", on_error, "--decisions", str(decisions)]
    code = run_cli(argv, BATCH_WITH_A_BAD_LINE, monkeypatch=monkeypatch)
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["राधिका sang.", bad_output, "राधिका sang."]
    assert captured.err.splitlines() == [BAD_LINE_ERROR]
    records = [line.split("\t")[:2] for line in decisions.read_text(encoding="utf-8").splitlines()]
    assert records == [["1", "0"], ["3", "0"]]


def test_translate_on_error_reports_every_bad_line(model_file, capsys, monkeypatch):
    lines = ["[[Bad|XYZ]] x", "[[Zanzibar|LOC]] calls.", "fine", "[[unclosed|PER", ""]
    argv = ["translate", "--model", str(model_file), "--on-error", "passthrough"]
    code = run_cli(argv, "\n".join(lines) + "\n", monkeypatch=monkeypatch)
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == lines  # every bad line passed through unchanged
    errors = captured.err.splitlines()
    assert [e.split(":")[2] for e in errors] == [" line 1", " line 2", " line 4"]


def test_translate_on_error_exits_zero_when_no_line_fails(model_file, capsys, monkeypatch):
    argv = ["translate", "--model", str(model_file), "--on-error", "skip"]
    code = run_cli(argv, "[[Radhika|PER]] sang.\nplain\n", monkeypatch=monkeypatch)
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["राधिका sang.", "plain"]
    assert captured.err == ""


@pytest.mark.parametrize("command", ["transliterate", "translate"])
def test_top_k_below_one_is_a_usage_error(command, model_file, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--model", str(model_file), "--top-k", "0"])
    assert excinfo.value.code == 2
    assert "--top-k" in capsys.readouterr().err


def test_config_top_k_below_one_is_a_one_line_error(tmp_path, model_file, capsys, monkeypatch):
    config = tmp_path / "config.ini"
    config.write_text("top_k = 0\n", encoding="utf-8")
    code = run_cli(
        ["--config", str(config), "transliterate", "--model", str(model_file)],
        "Radhika\n",
        monkeypatch=monkeypatch,
    )
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"ne-translit: error: {config}: line 1: bad value for 'top_k': '0'"]


@pytest.mark.parametrize("how", ["flag", "config"])
def test_kb_persons_from_flag_or_config_loads_person_rows(how, tmp_path, model_file, capsys, monkeypatch):
    kb = tmp_path / "kb.tsv"
    kb.write_text("Amitabh\tअमिताभ\tPER\n", encoding="utf-8")
    config = tmp_path / "config.ini"
    config.write_text("kb_persons = true\n", encoding="utf-8")
    argv = ["translate", "--model", str(model_file), "--kb", str(kb)]
    argv = argv + ["--kb-persons"] if how == "flag" else ["--config", str(config)] + argv
    assert run_cli(argv, "[[Amitabh|PER]] spoke.\n", monkeypatch=monkeypatch) == 0
    assert capsys.readouterr().out == "अमिताभ spoke.\n"

    argv = ["translate", "--model", str(model_file), "--kb", str(kb)]
    assert run_cli(argv, "[[Amitabh|PER]] spoke.\n", monkeypatch=monkeypatch) == 1
    assert "PER entries need the person-lookup extension" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, value",
    [("1", True), ("true", True), ("Yes", True), ("ON", True),
     ("0", False), ("false", False), ("no", False), ("Off", False)],
)
def test_config_kb_persons_reads_booleans(text, value, tmp_path):
    config = tmp_path / "config.ini"
    config.write_text(f"kb_persons = {text}\n", encoding="utf-8")
    assert parse_config(config) == {"kb_persons": value}


@pytest.mark.parametrize("text", ["ture", "", "2", "y"])
def test_config_kb_persons_rejects_other_values(text, tmp_path, model_file, capsys, monkeypatch):
    config = tmp_path / "config.ini"
    config.write_text(f"kb_persons = {text}\n", encoding="utf-8")
    code = run_cli(
        ["--config", str(config), "translate", "--model", str(model_file)],
        "[[India|LOC]] is here.\n",
        monkeypatch=monkeypatch,
    )
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"ne-translit: error: {config}: line 1: bad value for 'kb_persons': {text!r}"]


# A KB hit, multi-token entities, punctuation inside entities, a non-Latin
# letter and an unseen phoneme (both falling back), a lower-case category,
# and non-ASCII punctuation and doubled spaces outside the spans.
TRANSLATE_LINES = [
    "[[India|LOC]] and [[Radhika|PER]] met in [[Bubu Kami|LOC]].",
    "[[Tashabu-Nisa|PER]]’s  friend «[[Kacha|ORG]]» left…",
    "[[José|PER]] — [[Vari, Dadhi|PER]] and [[Finance Ministry|ORG]]!",
    "  No entities here:  “quoted”  text.  ",
    "[[Zanzibar|LOC]] calls [[Marijami|per]].",
]

# SHA-256 of (stdout, --decisions file) of `translate --fallback copy` on
# TRANSLATE_LINES, in either format, recorded with the character-by-character
# annotation parser and the decoder that took math.log of every transition
# it read.
GOLDEN_TRANSLATE_SHA256 = (
    "e5c6832f8f7f54bf042d7fde842e89900cb918eb0b7a55ddfcf434448a0e0333",
    "8ade19a5ded1757b94b7a0c1fe9ff1be3121904f396d00888408e41807854775",
)


def _columnar(line):
    sentence, spans = reference_parse_inline(line)
    return sentence + "".join(f"\t{s.start},{s.end},{s.category.value}" for s in spans)


@pytest.mark.parametrize("fmt", ["inline", "columnar"])
def test_translate_bytes_golden(fmt, tmp_path, memorization_model, capsys):
    model = tmp_path / "model.tsv"
    save_model(memorization_model, model)
    kb = tmp_path / "kb.tsv"
    kb.write_text("India\tभारत\tLOC\nFinance Ministry\tवित्त मंत्रालय\tORG\n", encoding="utf-8")
    lines = TRANSLATE_LINES if fmt == "inline" else [_columnar(line) for line in TRANSLATE_LINES]
    infile = tmp_path / "in.txt"
    infile.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    decisions = tmp_path / "decisions.tsv"
    argv = ["translate", "--model", str(model), "--kb", str(kb), "--fallback", "copy",
            "--format", fmt, "--in", str(infile), "--decisions", str(decisions)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == len(lines)
    got = tuple(hashlib.sha256(data).hexdigest() for data in (out.encode("utf-8"), decisions.read_bytes()))
    assert got == GOLDEN_TRANSLATE_SHA256


def test_evaluate_renders_report(tmp_path, capsys):
    gold = tmp_path / "gold.tsv"
    gold.write_text("India\tLOC\tभारत\nRadhika\tPER\tराधिका\n", encoding="utf-8")
    system = tmp_path / "system.txt"
    system.write_text("भारत\nगलत\n", encoding="utf-8")
    assert main(["evaluate", "--gold", str(gold), "--system", str(system)]) == 0
    out = capsys.readouterr().out
    assert "Person" in out and "Location" in out
    assert "0.50000" in out  # the aggregate row: 1 of 2

    assert main(["evaluate", "--gold", str(gold), "--system", str(system), "--format", "tsv"]) == 0
    tsv = capsys.readouterr().out
    assert tsv.startswith("category\ttotal\tcorrect\taccuracy\n")


def test_align_dump_counts(corpus_file, capsys):
    assert main(["align-dump", str(corpus_file)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines, "expected aligned pair counts"
    for line in lines:
        e, h, count = line.split("\t")
        assert e and h and int(count) >= 1
    assert lines == sorted(lines)


def test_config_file_supplies_defaults(tmp_path, corpus_file, capsys, monkeypatch):
    config = tmp_path / "config.ini"
    config.write_text("smoothing_k = 0\nfallback = copy\n", encoding="utf-8")
    model = tmp_path / "model.txt"
    assert main(["--quiet", "--config", str(config), "train", str(corpus_file), str(model)]) == 0
    code = run_cli(
        ["--config", str(config), "transliterate", "--model", str(model)],
        "Xylophone\n",
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "Xylophone\tXylophone\t-"


def test_config_unknown_key_is_a_runtime_error(tmp_path, capsys):
    config = tmp_path / "config.ini"
    config.write_text("mystery = 1\n", encoding="utf-8")
    assert main(["--config", str(config), "phonify"]) == 1
    assert "unknown key" in capsys.readouterr().err


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def test_missing_required_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["transliterate"])
    assert excinfo.value.code == 2


def test_console_entry_point_via_subprocess(tmp_path):
    # the child imports the same package as this process, installed or not
    src = str(Path(ne_translit.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text("\n".join(CORPUS_LINES) + "\n", encoding="utf-8")
    model = tmp_path / "model.txt"
    train = subprocess.run(
        [sys.executable, "-m", "ne_translit", "--quiet", "train", str(corpus), str(model)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert train.returncode == 0, train.stderr
    result = subprocess.run(
        [sys.executable, "-m", "ne_translit", "phonify"],
        input="Cherapunji\n",
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "Cherapunji\t[Che][ra][pun][ji]"
    usage = subprocess.run(
        [sys.executable, "-m", "ne_translit", "nonsense"], capture_output=True, text=True, env=env
    )
    assert usage.returncode == 2
