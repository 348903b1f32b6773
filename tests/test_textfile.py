import re

import pytest

from ne_translit.alignment import AlignedPair, load_corpus
from ne_translit.cli import parse_config
from ne_translit.errors import ConfigError, CorpusError, EvaluationError, KnowledgeBaseError, ModelFormatError
from ne_translit.evaluation import load_gold
from ne_translit.kb import load_kb
from ne_translit.model import estimate, load_model, save_model
from ne_translit.textfile import read_lines


@pytest.mark.parametrize(
    "loader, error, what",
    [
        (load_corpus, CorpusError, "corpus"),
        (load_kb, KnowledgeBaseError, "knowledge base"),
        (load_gold, EvaluationError, "gold file"),
        (parse_config, ConfigError, "config"),
        (load_model, ModelFormatError, "model"),
    ],
)
def test_an_unreadable_file_raises_the_loaders_own_error(loader, error, what, tmp_path):
    missing = tmp_path / "missing.tsv"
    with pytest.raises(error, match=f"^cannot read {what} {re.escape(str(missing))}: "):
        loader(missing)


def test_read_lines_skips_blanks_and_comments_and_keeps_line_numbers(tmp_path):
    path = tmp_path / "lines.txt"
    path.write_text("# comment\n\n  a\tb  \r\n\f\nc d\x85e\n   # indented comment\nlast", encoding="utf-8")
    assert read_lines(path, ValueError, "file") == [(3, "a\tb"), (5, "c d\x85e"), (7, "last")]


def test_config_line_numbers_count_newlines_only(tmp_path):
    path = tmp_path / "settings.conf"
    path.write_text("top_k = 3 \nnope\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"line 2: expected key = value"):
        parse_config(path)


def test_model_line_numbers_count_newlines_only(tmp_path):
    # str.splitlines would also end the version line at its form feed and
    # report the garbage line as line 5
    path = tmp_path / "model.txt"
    path.write_text("[meta]\nsmoothing_k\t0\nversion\t1\f\nnot a row\n", encoding="utf-8")
    with pytest.raises(ModelFormatError, match=r"line 4: expected key<TAB>value$"):
        load_model(path)


def test_model_blank_and_comment_lines_are_ignored(tmp_path):
    path = tmp_path / "model.txt"
    save_model(estimate([[AlignedPair("a", "अ"), AlignedPair("ma", "म")]], smoothing_k=0.1), path)
    lines = path.read_text(encoding="utf-8").split("\n")
    padded = ["# saved by a test", ""] + [f" {line}\t " if "\t" in line else line for line in lines]
    padded.insert(5, "   # indented comment")
    commented = tmp_path / "commented.txt"
    commented.write_text("\n".join(padded), encoding="utf-8")
    assert load_model(commented) == load_model(path)
