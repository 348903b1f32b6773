"""The benchmark's tracer patches package functions by module and name
(perfbench/spans.py); a refactor that drops or bypasses one of those names
must fail here, not only in the benchmark run."""

import importlib.util
from pathlib import Path

from ne_translit.cli import main
from ne_translit.model import save_model

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_patches_every_name_and_restores_it(tmp_path, memorization_model, capsys):
    spans = load_spans()
    places = [place for names, _, _ in spans.WRAPPED.values() for place in names]
    originals = [getattr(owner, attr) for owner, attr in places]
    model = tmp_path / "model.txt"
    save_model(memorization_model, model)
    words = tmp_path / "words.txt"
    words.write_text("Radhika\nRadhika\nJosé\n", encoding="utf-8")
    with spans.Tracer() as tracer:
        assert main(["transliterate", "--model", str(model), "--fallback", "copy", "--in", str(words)]) == 0
    assert [getattr(owner, attr) for owner, attr in places] == originals
    out = capsys.readouterr().out.splitlines()
    assert out[0] == out[1] and out[0].startswith("Radhika\tराधिका\t")
    assert out[2] == "José\tJosé\t-"
    # The repeated word comes from the memo, so it is segmented and decoded
    # once; José fails to segment, so it reaches phonify_latin only.
    names = [span[0] for span in tracer.spans]
    assert names.count("phonology.phonify_latin") == 2
    assert names.count("decoder.viterbi") == 1
    assert names.count("model.load_model") == 1
