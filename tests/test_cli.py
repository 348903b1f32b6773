import gc
import hashlib
import inspect
import io
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import ne_translit
from ne_translit import alignment, phonology
from ne_translit.alignment import align_corpus, build_aligned_corpus, em_train_alignment, load_corpus
from ne_translit.cli import SETTINGS, main, parse_config
from ne_translit.decoder import Fallback, candidates, decode_name, viterbi
from ne_translit.errors import ConfigError
from ne_translit.estimator import HmmTransliterator, NamedEntityTranslator
from ne_translit.model import estimate, load_model, save_model
from ne_translit.phonology import phonify_latin
from ne_translit.pipeline import process_sentence

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


def run_cli(argv, stdin_text, monkeypatch):
    """main(argv) with stdin the UTF-8 bytes of stdin_text behind a text
    wrapper that ends lines at a newline only, as a real pipe is."""
    stdin = io.TextIOWrapper(io.BytesIO(stdin_text.encode("utf-8")), encoding="utf-8", newline="\n")
    monkeypatch.setattr(sys, "stdin", stdin)
    return main(argv)


def test_phonify_words(capsys, monkeypatch):
    code = run_cli(["phonify"], "Radhika\nराधिका\n", monkeypatch=monkeypatch)
    assert code == 0
    out = capsys.readouterr().out
    assert "Radhika\t[Ra][dhi][ka]" in out
    assert "राधिका\t[रा][धि][का]" in out


def test_in_file_with_a_bom_reads_its_first_word(tmp_path, capsys):
    words = tmp_path / "words.txt"
    words.write_text("\ufeffRadhika\n", encoding="utf-8")
    assert main(["phonify", "--in", str(words)]) == 0
    assert capsys.readouterr().out == "Radhika\t[Ra][dhi][ka]\n"


def child_env():
    """os.environ with PYTHONPATH set so a child imports the same package
    as this process, installed or not."""
    src = str(Path(ne_translit.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_a_bom_on_piped_stdin_is_dropped():
    result = subprocess.run(
        [sys.executable, "-m", "ne_translit", "phonify"],
        input=b"\xef\xbb\xbfRadhika\n",
        capture_output=True,
        env=child_env(),
    )
    assert (result.returncode, result.stderr) == (0, b"")
    assert result.stdout == "Radhika\t[Ra][dhi][ka]\n".encode("utf-8")


@pytest.mark.parametrize(
    "command, line",
    [("transliterate", "Radhika"), ("translate", "[[Radhika|PER]] and [[Rimi|PER]] met.")],
)
def test_a_bom_on_stdin_is_dropped_before_the_first_line(command, line, model_file, capsys, monkeypatch):
    argv = [command, "--model", str(model_file)]
    assert run_cli(argv, f"{line}\n", monkeypatch=monkeypatch) == 0
    plain = capsys.readouterr()
    assert run_cli(argv, f"\ufeff{line}\n", monkeypatch=monkeypatch) == 0
    assert capsys.readouterr() == plain
    assert "\ufeff" not in plain.out


@pytest.mark.parametrize(
    "argv, text, lines_out",
    [
        (["phonify"], "Ram\rKumar\nSita\r\nRadhika\n", 2),  # line 1 is reported: CR is no letter
        (["transliterate", "--fallback", "copy"], "Radhika\rRimi\nRimi\r\nRadhika\n", 3),
        (["translate"], "[[Radhika|PER]] met\r[[Rimi|PER]].\r\n[[Rimi|PER]] left.\n", 2),
    ],
    ids=["phonify", "transliterate", "translate"],
)
def test_a_pipe_and_an_in_file_give_the_same_lines(argv, text, lines_out, model_file, tmp_path):
    # only a newline ends a line: a lone CR stays inside it, and a CRLF
    # line keeps its CR, whichever way the bytes come in
    command = argv[0]
    argv = [sys.executable, "-m", "ne_translit", *argv]
    if command != "phonify":
        argv += ["--model", str(model_file)]
    infile = tmp_path / "input.txt"
    infile.write_bytes(text.encode("utf-8"))
    piped = subprocess.run(argv, input=infile.read_bytes(), capture_output=True, env=child_env())
    read = subprocess.run(argv + ["--in", str(infile)], capture_output=True, env=child_env())
    assert (read.returncode, read.stdout, read.stderr) == (piped.returncode, piped.stdout, piped.stderr)
    assert piped.stdout.count(b"\n") == lines_out
    if command == "translate":
        assert piped.stdout.decode("utf-8") == "राधिका met\rरीमी.\r\nरीमी left.\n"


NOT_UTF8 = b"\xef\xbb\xbf# a comment\n\xff\xfe\n"  # a BOM, then a bad byte on line 2


@pytest.mark.parametrize(
    "argv, what",
    [
        (["train", "BAD", "MODEL_OUT"], "corpus BAD: line 2 is"),
        (["translate", "--model", "MODEL", "--kb", "BAD"], "knowledge base BAD: line 2 is"),
        (["evaluate", "--gold", "BAD", "--system", "SYSTEM"], "gold file BAD: line 2 is"),
        (["evaluate", "--gold", "GOLD", "--system", "BAD"], "system file BAD: line 2 is"),
        (["--config", "BAD", "phonify"], "config BAD: line 2 is"),
        (["transliterate", "--model", "BAD"], "model BAD: line 2 is"),
        (["phonify", "--in", "BAD"], "BAD: line 2 is"),
        (["phonify"], "standard input: line 2 is"),
    ],
    ids=["corpus", "kb", "gold", "system", "config", "model", "in", "stdin"],
)
def test_input_that_is_not_utf8_is_a_one_line_error(argv, what, model_file, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(NOT_UTF8)
    gold = tmp_path / "gold.tsv"
    gold.write_text("Rama\tPER\tरामा\n", encoding="utf-8")
    system = tmp_path / "system.txt"
    system.write_text("रामा\n", encoding="utf-8")
    paths = {"BAD": bad, "MODEL": model_file, "MODEL_OUT": tmp_path / "out.txt", "GOLD": gold, "SYSTEM": system}
    argv = [str(paths.get(arg, arg)) for arg in argv]
    stdin = NOT_UTF8 if what.startswith("standard input") else b"Rama\n"
    result = subprocess.run(
        [sys.executable, "-m", "ne_translit", *argv], input=stdin, capture_output=True, env=child_env()
    )
    what = what.replace("BAD", str(bad))
    expected = f"ne-translit: error: cannot read {what} not UTF-8 (invalid start byte)\n"
    if argv[0] == "phonify":
        # phonify's input is decoded a line at a time, so line 1 reaches it first
        expected = "ne-translit: error: line 1: mixed or unsupported script in '# a comment'\n" + expected
    assert (result.returncode, result.stdout, result.stderr.decode("utf-8")) == (1, b"", expected)
    assert not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize("source", ["stdin", "in"])
def test_every_line_before_a_bad_byte_is_handled(source, tmp_path):
    data = b"Radhika\n" * 2000 + b"\xff\nSita\n"
    argv = [sys.executable, "-m", "ne_translit", "phonify"]
    if source == "in":
        infile = tmp_path / "words.txt"
        infile.write_bytes(data)
        argv += ["--in", str(infile)]
        what, data = str(infile), b""
    else:
        what = "standard input"
    result = subprocess.run(argv, input=data, capture_output=True, env=child_env())
    assert result.returncode == 1
    assert result.stdout.decode("utf-8").splitlines() == ["Radhika\t[Ra][dhi][ka]"] * 2000
    assert result.stderr.decode("utf-8") == (
        f"ne-translit: error: cannot read {what}: line 2001 is not UTF-8 (invalid start byte)\n"
    )


def test_phonify_bad_word_exits_one(capsys, monkeypatch):
    code = run_cli(["phonify"], "abc123\n", monkeypatch=monkeypatch)
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_phonify_reports_each_bad_word_and_goes_on(capsys, monkeypatch):
    code = run_cli(["phonify"], "Radhika\nJosé\n\nAmar\nabc123\n", monkeypatch=monkeypatch)
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["Radhika\t[Ra][dhi][ka]", "Amar\t[A][ma][r]"]
    assert captured.err.splitlines() == [
        "ne-translit: error: line 2: mixed or unsupported script in 'José'",
        "ne-translit: error: line 5: mixed or unsupported script in 'abc123'",
    ]


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


# Long vowels segment into more English phonemes than aksharas ([Se][e][ma]
# against सी मा) and "Kamla" into fewer ([kam][la] against क म ला), so EM
# has to weigh skips; the corpus also has duplicates, a two-token entry and
# a line that cannot be phonified.  Only the model bytes are pinned: EM's
# row totals use the builtin sum, which is compensated from Python 3.12 on,
# so the EM floats differ between versions while the written model does not.
SKIPPING_CORPUS_LINES = [
    "Seema\tसीमा", "Pooja\tपूजा", "Raam\tराम", "Radhika\tराधिका", "Seema\tसीमा",
    "Geeta\tगीता", "Raam Kumar\tराम कुमार", "X9y\tरा", "Pooja\tपूजा", "Amar\tअमर",
    "Seema\tसीमा", "Kamla\tकमला",
]
GOLDEN_SKIPPING_MODEL_SHA256 = "d3185e219f5c3eab83232ce51ffd9c21864fe60e49d6d7f39d7ca3e0ef0bc1a5"


def test_train_model_bytes_golden_where_em_must_skip(tmp_path, capsys):
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text("\n".join(SKIPPING_CORPUS_LINES) + "\n", encoding="utf-8")
    model = tmp_path / "model.tsv"
    assert main(["train", str(corpus), str(model)]) == 0
    assert hashlib.sha256(model.read_bytes()).hexdigest() == GOLDEN_SKIPPING_MODEL_SHA256
    captured = capsys.readouterr()
    assert "trained on 11 entries (1 skipped)" in captured.out
    assert captured.err.startswith("ne-translit: warning: skipped X9y\t")

    loaded, _ = load_corpus(corpus)
    lengths = {tuple(map(len, entry.keys)) for entry in loaded if entry.english != "X9y"}
    assert (3, 2) in lengths and (2, 3) in lengths  # skip-English and skip-Hindi both needed


def test_a_corpus_category_changes_neither_phonification_nor_the_model(tmp_path, monkeypatch):
    calls = []

    def counted(token, _phonify=alignment.phonify_latin):
        calls.append(token)
        return _phonify(token)

    monkeypatch.setattr(alignment, "phonify_latin", counted)
    models = []
    for name, text in (
        ("plain", "Seema\tसीमा\nSeema\tसीमा\nAmar\tअमर\nRaam Kumar\tराम कुमार\n"),
        ("tagged", "Seema\tसीमा\tPER\nSeema\tसीमा\nAmar\tअमर\tper\nRaam Kumar\tराम कुमार\tPER\n"),
    ):
        corpus, model = tmp_path / f"{name}.tsv", tmp_path / f"{name}.txt"
        corpus.write_text(text, encoding="utf-8")
        calls.clear()
        assert main(["--quiet", "train", str(corpus), str(model)]) == 0
        assert sorted(calls) == ["Amar", "Kumar", "Raam", "Seema"]  # once per distinct pair
        models.append(model.read_bytes())
    assert models[0] == models[1]


# every line parses, but no entry phonifies
UNPHONIFIABLE_CORPUS = "X9y\tरा\nJosé\tजोसे\n"


@pytest.mark.parametrize(
    "text, command",
    [("# nothing\n", "align-dump"), (UNPHONIFIABLE_CORPUS, "train"), (UNPHONIFIABLE_CORPUS, "align-dump")],
)
def test_an_unusable_corpus_fails_with_one_error(text, command, tmp_path, capsys):
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text(text, encoding="utf-8")
    model = tmp_path / "model.txt"
    argv = [command, str(corpus)] + ([str(model)] if command == "train" else [])
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "ne-translit: error: no usable entries in the corpus\n")
    assert not model.exists()


def test_train_empty_corpus_fails(tmp_path, capsys):
    corpus = tmp_path / "empty.tsv"
    corpus.write_text("# nothing\n", encoding="utf-8")
    model = tmp_path / "model.txt"
    assert main(["train", str(corpus), str(model)]) == 1
    assert capsys.readouterr().err == "ne-translit: error: no usable entries in the corpus\n"
    assert not model.exists()


def test_train_warns_about_a_too_long_entry_and_trains_on_the_rest(tmp_path, capsys):
    long_line = f"{'ka' * 10_000}\t{'का' * 10_000}"  # 20,000 letters a side
    corpus, model = tmp_path / "corpus.tsv", tmp_path / "model.txt"
    corpus.write_text(f"Rama\tरामा\n{long_line}\nMara\tमारा\n", encoding="utf-8")
    assert main(["train", str(corpus), str(model), "--em-iterations", "3"]) == 0
    captured = capsys.readouterr()
    assert captured.err == (
        f"ne-translit: warning: skipped {long_line}: too long: 10000 English and 10000 Hindi phonemes, limit 160\n"
    )
    assert captured.out.startswith("trained on 2 entries (1 skipped)\n")
    short_corpus, short_model = tmp_path / "short.tsv", tmp_path / "short.txt"
    short_corpus.write_text("Rama\tरामा\nMara\tमारा\n", encoding="utf-8")
    assert main(["--quiet", "train", str(short_corpus), str(short_model), "--em-iterations", "3"]) == 0
    assert model.read_bytes() == short_model.read_bytes()


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


def test_predict_prints_what_the_transliterate_command_prints(tmp_path, capsys, monkeypatch):
    # one rule behind both doors (decoder.decode_name): the text is split at
    # whitespace, each letter run of a word decodes and the rest is copied;
    # Seema has a phoneme this two-name model has not seen, so it is copied
    estimator = HmmTransliterator(fallback="copy").fit([("Radhika", "राधिका"), ("Seema", "सीमा")])
    model = tmp_path / "model.txt"
    save_model(estimator.model_, model)
    lines = [" Radhika", "Radhi-ka", "Radhika  Seema"]
    argv = ["transliterate", "--model", str(model), "--fallback", "copy"]
    assert run_cli(argv, "".join(f"{line}\n" for line in lines), monkeypatch=monkeypatch) == 0
    printed = [line.split("\t")[1] for line in capsys.readouterr().out.splitlines()]
    assert printed == estimator.predict(lines) == ["राधिका", "राधि-का", "राधिका Seema"]


def test_a_tab_inside_a_name_adds_no_column(model_file, capsys, monkeypatch):
    # the first column is the name as decoded, its words joined by single
    # spaces, so each line has the three documented columns (four with --trace)
    lines = "Radhika\tRadhika\nRadhika  Radhika\n\tRadhika \t\n"
    assert run_cli(["transliterate", "--model", str(model_file)], lines, monkeypatch=monkeypatch) == 0
    rows = [row.split("\t") for row in capsys.readouterr().out.splitlines()]
    assert [row[:2] for row in rows] == [["Radhika Radhika", "राधिका राधिका"]] * 2 + [["Radhika", "राधिका"]]
    assert [len(row) for row in rows] == [3, 3, 3]
    argv = ["transliterate", "--model", str(model_file), "--trace"]
    assert run_cli(argv, lines, monkeypatch=monkeypatch) == 0
    assert [len(row.split("\t")) for row in capsys.readouterr().out.splitlines()] == [4, 4, 4]


@pytest.mark.parametrize("on_error", ["skip", "passthrough"])
def test_a_tab_inside_an_entity_is_a_line_error(on_error, model_file, tmp_path, capsys, monkeypatch):
    # translate rejects the span, so no --decisions record can gain a column
    decisions = tmp_path / "decisions.tsv"
    argv = ["translate", "--model", str(model_file), "--decisions", str(decisions), "--on-error", on_error]
    lines = ["[[Radhika\tRadhika|PER]] sang.", "[[\tRadhika|PER]] sang.", "[[Radhika|PER]] sang."]
    assert run_cli(argv, "".join(f"{line}\n" for line in lines), monkeypatch=monkeypatch) == 1
    captured = capsys.readouterr()
    kept = ["", ""] if on_error == "skip" else lines[:2]
    assert captured.out.splitlines() == [*kept, "राधिका sang."]
    assert captured.err == (
        "ne-translit: error: line 1: tab inside the entity at offset 0\n"
        "ne-translit: error: line 2: tab inside the entity at offset 0\n"
    )
    assert [len(record.split("\t")) for record in decisions.read_text(encoding="utf-8").splitlines()] == [8]


def test_trace_prints_each_letter_run_in_order(tmp_path, corpus_file, capsys, monkeypatch):
    model = tmp_path / "model.txt"
    assert main(["--quiet", "train", str(corpus_file), str(model)]) == 0
    trained = load_model(model)
    assert run_cli(["transliterate", "--model", str(model), "--trace"], "Radhi-ka ra\n", monkeypatch=monkeypatch) == 0
    word, hindi, score, items = capsys.readouterr().out.rstrip("\n").split("\t")
    expected_items, expected_hindi, scores = [], [], []
    for run in ("Radhi", "ka", "ra"):
        keys = phonify_latin(run).keys()
        decoding = viterbi(trained, keys)
        expected_items += trace_items(trained, decoding.hindi_sequence, keys)
        expected_hindi.append("".join(decoding.hindi_sequence))
        scores.append(decoding.score)
    assert (word, hindi) == ("Radhi-ka ra", "{}-{} {}".format(*expected_hindi))
    # the runs' scores are added within each word, then across words
    assert score == f"{(0.0 + scores[0] + scores[1]) + (0.0 + scores[2]):.6f}"
    assert items.split(" ") == expected_items


def test_trace_segments_each_run_once_per_memo_miss(tmp_path, corpus_file, capsys, monkeypatch):
    # --trace reads each run's keys from its Decoding, so a run is segmented
    # once, when decode_name first decodes it, and never again: not for its
    # trace, not for a repeated name or run, not for a run that fell back
    model = tmp_path / "model.txt"
    assert main(["--quiet", "train", str(corpus_file), str(model)]) == 0
    segmented = []

    def counted(word, _phonify=phonology.phonify_latin):
        segmented.append(word)
        return _phonify(word)

    monkeypatch.setattr(phonology, "phonify_latin", counted)
    lines = "Radhika\nRadhi-ka\nRadhika\nXylophone\nka Radhi\nXylophone\n"
    argv = ["transliterate", "--model", str(model), "--trace", "--fallback", "copy"]
    assert run_cli(argv, lines, monkeypatch=monkeypatch) == 0
    rows = [row.split("\t") for row in capsys.readouterr().out.splitlines()]
    assert [len(row) for row in rows] == [4, 4, 4, 3, 4, 3]
    assert rows[3] == ["Xylophone", "Xylophone", "-"]
    assert segmented == ["Radhika", "Radhi", "ka", "Xylophone"]


def test_a_word_with_no_letters_is_copied_with_score_zero(model_file, tmp_path, capsys, monkeypatch):
    # nothing in it to decode, so nothing falls back: as a translate span
    assert run_cli(["transliterate", "--model", str(model_file)], "123\n", monkeypatch=monkeypatch) == 0
    assert capsys.readouterr().out == "123\t123\t0.000000\n"
    decisions = tmp_path / "decisions.tsv"
    argv = ["translate", "--model", str(model_file), "--decisions", str(decisions)]
    assert run_cli(argv, "[[123|PER]] won.\n", monkeypatch=monkeypatch) == 0
    assert capsys.readouterr().out == "123 won.\n"
    assert decisions.read_text(encoding="utf-8") == "1\t0\t3\t123\tPER\tTRANSLITERATED\t123\t0.000000\n"


TRACE_WORDS = ["Radhika", "Kamala", "Xylophone", "Radhika", "José", "", "Pusaki", "Kamala"] + [
    line.split("\t")[0] for line in CORPUS_LINES[:6]
]

# SHA-256 of `transliterate --trace --fallback copy` stdout on TRACE_WORDS for
# a model trained on CORPUS_LINES at each smoothing constant, recorded when
# viterbi computed the per-position scores of every decoding.  The input has
# repeated words (memo hits), words that fall back (an unseen phoneme, a
# non-Latin letter) and, unsmoothed, a zero-probability path (Pusaki).  The
# "0" entry was recorded again when such a path became a fallback: only the
# Pusaki line changed, from `पूसाकी\t-inf\tपू:0 सा:0 की:0` to `Pusaki\t-`.
GOLDEN_TRACE_SHA256 = {
    "0": "6af4bdb20ef6eff16b94abb2c0bb0ad4465de5fc4aa30c04ca3dee2848621f8d",
    "0.25": "6006db0123a1c7cd55cb3d835f530ead0f5db1b491b6fc34c592a4d2f9301e26",
}
# Kamala twice, Xylophone and José fall back; unsmoothed, Pusaki too
TRACE_FALLBACKS = {"0": 5, "0.25": 4}


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
    assert sum(line.endswith("\t-") for line in lines) == TRACE_FALLBACKS[smoothing_k]
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
    assert traced == len([w for w in TRACE_WORDS if w]) - TRACE_FALLBACKS[smoothing_k]


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


def test_translate_refuses_a_decisions_path_that_is_its_in_file(tmp_path, model_file, capsys, monkeypatch):
    sentences = tmp_path / "sentences.txt"
    sentences.write_text("[[India|LOC]] is a great country.\n", encoding="utf-8")
    before = sentences.read_bytes()
    monkeypatch.chdir(tmp_path)
    argv = ["translate", "--model", str(model_file), "--in", "sentences.txt", "--decisions", "./sentences.txt"]
    assert main(argv) == 1
    assert sentences.read_bytes() == before
    assert capsys.readouterr() == ("", "ne-translit: error: output ./sentences.txt would overwrite the input sentences.txt\n")


@pytest.mark.parametrize("flag", ["--model", "--kb", "--config"])
def test_translate_refuses_a_decisions_path_that_is_another_input(flag, tmp_path, model_file, capsys, monkeypatch):
    kb = tmp_path / "kb.tsv"
    kb.write_text("India\tभारत\tLOC\n", encoding="utf-8")
    config = tmp_path / "config.ini"
    config.write_text("top_k = 3\n", encoding="utf-8")
    target = {"--model": model_file, "--kb": kb, "--config": config}[flag]
    before = target.read_bytes()
    # a symlink to the input is the same file
    link = tmp_path / "decisions.tsv"
    link.symlink_to(target)
    argv = ["--config", str(config), "translate", "--model", str(model_file), "--kb", str(kb), "--decisions", str(link)]
    assert run_cli(argv, "[[India|LOC]] is a great country.\n", monkeypatch=monkeypatch) == 1
    assert target.read_bytes() == before
    assert capsys.readouterr() == ("", f"ne-translit: error: output {link} would overwrite the input {target}\n")


def test_translate_refuses_a_decisions_path_that_is_its_standard_input(tmp_path, model_file):
    sentences = tmp_path / "sentences.txt"
    sentences.write_text("[[India|LOC]] is a great country.\n", encoding="utf-8")
    before = sentences.read_bytes()
    argv = [sys.executable, "-m", "ne_translit", "translate", "--model", str(model_file), "--decisions", str(sentences)]
    with open(sentences, "rb") as stdin:
        result = subprocess.run(argv, stdin=stdin, capture_output=True, env=child_env())
    assert (result.returncode, result.stdout) == (1, b"")
    assert result.stderr == f"ne-translit: error: output {sentences} would overwrite the input standard input\n".encode()
    assert sentences.read_bytes() == before
    # the same lines piped in are no file, so the decisions go to it
    result = subprocess.run(argv, input=before, capture_output=True, env=child_env())
    assert (result.returncode, result.stderr) == (0, b"")
    assert sentences.read_text(encoding="utf-8") == "1\t0\t5\tIndia\tLOC\tKB_HIT\tभारत\n"


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
def test_translate_may_write_decisions_to_the_device_it_reads(model_file):
    # /dev/null is not a regular file: writing it truncates nothing
    argv = [sys.executable, "-m", "ne_translit", "translate", "--model", str(model_file), "--decisions", "/dev/null"]
    with open("/dev/null", "rb") as stdin:
        result = subprocess.run(argv, stdin=stdin, capture_output=True, env=child_env())
    assert (result.returncode, result.stdout, result.stderr) == (0, b"", b"")


def test_train_refuses_to_write_its_model_over_its_corpus(corpus_file, capsys):
    before = corpus_file.read_bytes()
    assert main(["--quiet", "train", str(corpus_file), str(corpus_file.resolve())]) == 1
    assert corpus_file.read_bytes() == before
    assert capsys.readouterr() == (
        "",
        f"ne-translit: error: output {corpus_file.resolve()} would overwrite the input {corpus_file}\n",
    )


@pytest.mark.parametrize("command", ["phonify", "transliterate", "translate"])
def test_an_in_file_that_cannot_be_opened_is_a_one_line_error(command, model_file, tmp_path, capsys):
    argv = [command] if command == "phonify" else [command, "--model", str(model_file)]
    missing = tmp_path / "missing.txt"
    assert main(argv + ["--in", str(missing)]) == 1
    assert capsys.readouterr() == (
        "", f"ne-translit: error: cannot read {missing}: [Errno 2] No such file or directory: '{missing}'\n"
    )
    assert main(argv + ["--in", str(tmp_path)]) == 1
    assert capsys.readouterr() == (
        "", f"ne-translit: error: cannot read {tmp_path}: [Errno 21] Is a directory: '{tmp_path}'\n"
    )


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


ZERO_PROBABILITY_ERROR = "ne-translit: error: line 1: every transliteration of 'Pusaki' has probability 0 under this model\n"


def test_transliterate_zero_probability_word_falls_back(model_file, capsys, monkeypatch):
    # every path for Pusaki has a transition the unsmoothed model never saw
    argv = ["transliterate", "--model", str(model_file)]
    assert run_cli(argv + ["--fallback", "copy"], "Pusaki\n", monkeypatch=monkeypatch) == 0
    assert capsys.readouterr().out == "Pusaki\tPusaki\t-\n"
    assert run_cli(argv + ["--fallback", "unk"], "Pusaki\n", monkeypatch=monkeypatch) == 0
    assert capsys.readouterr().out == "Pusaki\t<unk>\t-\n"
    assert run_cli(argv, "Pusaki\n", monkeypatch=monkeypatch) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", ZERO_PROBABILITY_ERROR)


def test_translate_zero_probability_entity_falls_back(tmp_path, model_file, capsys, monkeypatch):
    decisions = tmp_path / "decisions.tsv"
    argv = ["translate", "--model", str(model_file), "--decisions", str(decisions)]
    code = run_cli(argv + ["--fallback", "copy"], "[[Pusaki|PER]] came.\n", monkeypatch=monkeypatch)
    assert code == 0
    assert capsys.readouterr().out == "Pusaki came.\n"
    assert decisions.read_text(encoding="utf-8") == "1\t0\t6\tPusaki\tPER\tFALLBACK\tPusaki\n"
    assert run_cli(argv, "[[Pusaki|PER]] came.\n", monkeypatch=monkeypatch) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", ZERO_PROBABILITY_ERROR)


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
    assert captured.err == BAD_LINE_ERROR + "\n"


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


def test_translate_reports_a_blank_entity_by_line(model_file, capsys, monkeypatch):
    lines = ["[[Radhika|PER]] sang.", "[[ |PER]] x", "[[Radhika|PER]] sang."]
    argv = ["translate", "--model", str(model_file), "--on-error", "passthrough"]
    code = run_cli(argv, "\n".join(lines) + "\n", monkeypatch=monkeypatch)
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["राधिका sang.", "[[ |PER]] x", "राधिका sang."]
    assert captured.err == "ne-translit: error: line 2: blank entity at offset 0\n"


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


def test_a_repeated_config_key_is_a_one_line_error(tmp_path, model_file):
    config = tmp_path / "config.ini"
    config.write_text("top_k = 3\ntop_k = 5\n", encoding="utf-8")
    argv = ["--config", str(config), "transliterate", "--model", str(model_file)]
    result = subprocess.run(
        [sys.executable, "-m", "ne_translit", *argv], input=b"Radhika\n", capture_output=True, env=child_env()
    )
    expected = f"ne-translit: error: {config}: line 2: duplicate key 'top_k'\n"
    assert (result.returncode, result.stdout, result.stderr.decode("utf-8")) == (1, b"", expected)


@pytest.mark.parametrize("how", ["flag", "config"])
def test_kb_persons_from_flag_or_config_loads_person_rows(how, tmp_path, model_file, capsys, monkeypatch):
    # a KB file's PER rows load with neither the flag nor the config key,
    # and person names then consult it; both ways of asking are refused
    kb = tmp_path / "kb.tsv"
    kb.write_text("Amitabh\tअमिताभ\tPER\n", encoding="utf-8")
    decisions = tmp_path / "decisions.tsv"
    argv = ["translate", "--model", str(model_file), "--kb", str(kb)]
    assert run_cli(argv + ["--decisions", str(decisions)], "[[Amitabh|PER]] spoke.\n", monkeypatch=monkeypatch) == 0
    assert capsys.readouterr().out == "अमिताभ spoke.\n"
    assert decisions.read_text(encoding="utf-8") == "1\t0\t7\tAmitabh\tPER\tKB_HIT\tअमिताभ\n"

    if how == "flag":
        with pytest.raises(SystemExit) as excinfo:
            run_cli(argv + ["--kb-persons"], "[[Amitabh|PER]] spoke.\n", monkeypatch=monkeypatch)
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --kb-persons" in capsys.readouterr().err
    else:
        config = tmp_path / "config.ini"
        config.write_text("kb_persons = true\n", encoding="utf-8")
        assert run_cli(["--config", str(config)] + argv, "[[Amitabh|PER]] spoke.\n", monkeypatch=monkeypatch) == 1
        assert capsys.readouterr().err == f"ne-translit: error: {config}: line 1: unknown key 'kb_persons'\n"


@pytest.mark.parametrize(
    "text, value",
    [("1", True), ("true", True), ("Yes", True), ("ON", True),
     ("0", False), ("false", False), ("no", False), ("Off", False)],
)
def test_config_kb_persons_reads_booleans(text, value, tmp_path, model_file, capsys, monkeypatch):
    # kb_persons is no longer a key, whatever it is set to.  What it did,
    # the KB's rows do: radhika as a PER row gives what `kb_persons = on`
    # gave, and radhika as a LOC row only gives what `kb_persons = off` gave
    config = tmp_path / "config.ini"
    config.write_text(f"kb_persons = {text}\n", encoding="utf-8")
    with pytest.raises(ConfigError) as excinfo:
        parse_config(config)
    assert str(excinfo.value) == f"{config}: line 1: unknown key 'kb_persons'"

    kb = tmp_path / "kb.tsv"
    kb.write_text(f"Radhika\tराधा\t{'PER' if value else 'LOC'}\n", encoding="utf-8")
    argv = ["translate", "--model", str(model_file), "--kb", str(kb)]
    assert run_cli(argv, "[[Radhika|PER]] sang.\n", monkeypatch=monkeypatch) == 0
    assert capsys.readouterr().out == ("राधा sang.\n" if value else "राधिका sang.\n")


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
    assert captured.err.splitlines() == [f"ne-translit: error: {config}: line 1: unknown key 'kb_persons'"]


def test_config_fallback_reads_each_policy(tmp_path):
    config = tmp_path / "config.ini"
    for policy in Fallback:
        config.write_text(f"fallback = {policy.value}\n", encoding="utf-8")
        assert parse_config(config) == {"fallback": policy}


@pytest.mark.parametrize("command", ["train", "transliterate", "translate"])
def test_config_fallback_is_checked_when_the_file_is_parsed(
    command, tmp_path, corpus_file, model_file, capsys, monkeypatch
):
    config = tmp_path / "config.ini"
    config.write_text("fallback = bogus\n", encoding="utf-8")
    model_out = tmp_path / "out.model"
    argv = {
        "train": ["train", str(corpus_file), str(model_out)],
        "transliterate": ["transliterate", "--model", str(model_file)],
        "translate": ["translate", "--model", str(model_file)],
    }[command]
    assert run_cli(["--config", str(config)] + argv, "Radhika\n", monkeypatch=monkeypatch) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"ne-translit: error: {config}: line 1: bad value for 'fallback': 'bogus'"]
    assert not model_out.exists()


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


def test_align_dump_prints_each_match_pair_with_its_count(tmp_path, capsys):
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text("Rama\tरामा\nMara\tमारा\n", encoding="utf-8")
    assert main(["align-dump", str(corpus), "--em-iterations", "5"]) == 0
    assert capsys.readouterr() == ("ma\tमा\t2\nra\tरा\t2\n", "")


# a value each setting's parser rejects, and a command that takes the setting
BAD_SETTINGS = [
    ("smoothing_k", "abc", "train"),
    ("smoothing_k", "nan", "train"),
    ("smoothing_k", "inf", "train"),
    ("smoothing_k", "-1", "train"),
    ("em_iterations", "0", "train"),
    ("em_iterations", "0", "align-dump"),
    ("top_k", "0", "transliterate"),
    ("top_k", "0", "translate"),
    ("fallback", "bogus", "transliterate"),
    ("fallback", "bogus", "translate"),
]


def command_argv(command, tmp_path, corpus_file, model_file):
    return {
        "align-dump": ["align-dump", str(corpus_file)],
        "train": ["train", str(corpus_file), str(tmp_path / "out.model")],
        "transliterate": ["transliterate", "--model", str(model_file)],
        "translate": ["translate", "--model", str(model_file)],
    }[command]


def flag_of(key):
    return "--" + key.replace("_", "-")


@pytest.mark.parametrize("key, value, command", BAD_SETTINGS)
def test_bad_setting_flag_is_a_usage_error_naming_the_flag(
    key, value, command, tmp_path, corpus_file, model_file, capsys
):
    with pytest.raises(SystemExit) as excinfo:
        main(command_argv(command, tmp_path, corpus_file, model_file) + [flag_of(key), value])
    assert excinfo.value.code == 2
    assert f"argument {flag_of(key)}: invalid" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, command", BAD_SETTINGS)
def test_bad_setting_in_config_names_the_file_line_and_key(
    key, value, command, tmp_path, corpus_file, model_file, capsys, monkeypatch
):
    config = tmp_path / "config.ini"
    config.write_text(f"{key} = {value}\n", encoding="utf-8")
    argv = ["--config", str(config)] + command_argv(command, tmp_path, corpus_file, model_file)
    assert run_cli(argv, "Radhika\n", monkeypatch=monkeypatch) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"ne-translit: error: {config}: line 1: bad value for {key!r}: {value!r}"]
    assert not (tmp_path / "out.model").exists()


def test_fallback_flag_beats_config_which_beats_default(tmp_path, model_file, capsys, monkeypatch):
    config = tmp_path / "config.ini"
    config.write_text("fallback = copy\n", encoding="utf-8")
    argv = ["transliterate", "--model", str(model_file)]
    assert run_cli(argv, "Xylophone\n", monkeypatch=monkeypatch) == 1
    assert capsys.readouterr().err == "ne-translit: error: line 1: no candidates for phoneme 'xylo' at position 0\n"
    assert run_cli(["--config", str(config)] + argv, "Xylophone\n", monkeypatch=monkeypatch) == 0
    assert capsys.readouterr().out == "Xylophone\tXylophone\t-\n"
    argv = ["--config", str(config)] + argv + ["--fallback", "unk"]
    assert run_cli(argv, "Xylophone\n", monkeypatch=monkeypatch) == 0
    assert capsys.readouterr().out == "Xylophone\t<unk>\t-\n"


def test_smoothing_flag_beats_config_which_beats_default(tmp_path, corpus_file):
    config = tmp_path / "config.ini"
    config.write_text("smoothing_k = 0\n", encoding="utf-8")
    model = tmp_path / "model.txt"
    train = ["--quiet", "train", str(corpus_file), str(model)]
    for argv, expected in [
        (train, 0.1),
        (["--config", str(config)] + train, 0.0),
        (["--config", str(config)] + train + ["--smoothing-k", "0.25"], 0.25),
    ]:
        assert main(argv) == 0
        assert load_model(model).smoothing_k == expected


# (function, parameter, setting) for each library function that repeats a
# setting's default
REPEATED_DEFAULTS = [
    (candidates, "top_k", "top_k"),
    (viterbi, "top_k", "top_k"),
    (decode_name, "top_k", "top_k"),
    (decode_name, "fallback", "fallback"),
    (process_sentence, "top_k", "top_k"),
    (process_sentence, "fallback", "fallback"),
    (estimate, "smoothing_k", "smoothing_k"),
    (em_train_alignment, "iterations", "em_iterations"),
    (align_corpus, "iterations", "em_iterations"),
]


def test_settings_defaults_equal_the_library_defaults():
    defaults = {key: default for key, (_, default) in SETTINGS.items()}
    estimator = HmmTransliterator().get_params()
    translator = NamedEntityTranslator().get_params()
    assert defaults == {key: estimator[key] for key in ("smoothing_k", "em_iterations", "top_k", "fallback")}
    for key in ("top_k", "fallback"):
        assert defaults[key] == translator[key]
    for function, parameter, key in REPEATED_DEFAULTS:
        default = inspect.signature(function).parameters[parameter].default
        assert default == defaults[key], (function.__name__, parameter)


# the setting flags each subcommand takes
SETTING_FLAGS = {
    "phonify": set(),
    "align-dump": {"--em-iterations"},
    "train": {"--smoothing-k", "--em-iterations"},
    "transliterate": {"--fallback", "--top-k"},
    "translate": {"--fallback", "--top-k"},
    "evaluate": set(),
}


@pytest.mark.parametrize("command", sorted(SETTING_FLAGS))
def test_help_lists_the_setting_flags_of_each_subcommand(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert {flag_of(key) for key in SETTINGS if flag_of(key) in out} == SETTING_FLAGS[command]
    assert ("--fallback {error,copy,unk}" in out) == ("--fallback" in SETTING_FLAGS[command])
    assert "--kb-persons" not in out


@pytest.mark.parametrize("k", ["nan", "inf", "-1"])
def test_train_rejects_a_bad_smoothing_constant_before_em(k, tmp_path, corpus_file, capsys, monkeypatch):
    def no_em(*args):
        raise AssertionError("EM ran")

    monkeypatch.setattr(alignment, "em_train_alignment", no_em)
    model = tmp_path / "model.txt"
    with pytest.raises(SystemExit) as excinfo:
        main(["--quiet", "train", str(corpus_file), str(model), "--smoothing-k", k])
    assert excinfo.value.code == 2
    assert f"argument --smoothing-k: invalid smoothing_k value: {k!r}" in capsys.readouterr().err
    assert not model.exists()


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
    env = child_env()
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text("\n".join(CORPUS_LINES) + "\n", encoding="utf-8")
    model = tmp_path / "model.txt"
    train = subprocess.run(
        [sys.executable, "-m", "ne_translit", "--quiet", "train", str(corpus), str(model)],
        capture_output=True,
        encoding="utf-8",
        env=env,
    )
    assert train.returncode == 0, train.stderr
    result = subprocess.run(
        [sys.executable, "-m", "ne_translit", "phonify"],
        input="Cherapunji\n",
        capture_output=True,
        encoding="utf-8",
        env=env,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "Cherapunji\t[Che][ra][pun][ji]"
    usage = subprocess.run(
        [sys.executable, "-m", "ne_translit", "nonsense"], capture_output=True, encoding="utf-8", env=env
    )
    assert usage.returncode == 2
