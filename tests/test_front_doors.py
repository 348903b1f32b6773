"""Every front door decodes a name by one rule and handles a line the same.

Seeded random lines, mixing annotation markers, categories, spans with
whitespace at their edges, blank spans, letters outside the Latin script,
line and space separators, emoji, hyphens and digits, go through each front
door under every fallback policy and every --on-error choice:

- transliterate: the command (in-process `cli.main`), `HmmTransliterator.predict`
  and `decoder.transliterate`;
- translate: the command with --decisions, `NamedEntityTranslator.process_line`
  and `parse_annotations` plus `process_sentence`.

Each must give the same output, decisions, error class and message (the
command prefixes its message with `line N:`), and the commands one output
line per input line they handle.
"""

import random

import pytest

from ne_translit.cli import main
from ne_translit.decoder import Fallback, transliterate
from ne_translit.errors import (
    AnnotationError,
    NeTranslitError,
    ScriptError,
    UnseenPhonemeError,
    ZeroProbabilityError,
)
from ne_translit.estimator import HmmTransliterator, NamedEntityTranslator
from ne_translit.kb import EntityCategory, load_seed_kb
from ne_translit.model import save_model
from ne_translit.pipeline import EntitySpan, Route, parse_annotations, process_sentence

from helpers import make_memorization_corpus

CORPUS = make_memorization_corpus(n=20, seed=3)

# Names that decode, that miss a phoneme (Zuzu), that hit the seed KB, and
# pieces that are not Latin letters, or not letters at all, or whitespace
# that a line does not end at
NAMES = [entry.english for entry in CORPUS[:8]] + [
    "Zuzu", "India", "Indian  Railways", "finance ministry", "José", "İndia", "Straße",
]
PIECES = ["é", "İ", "ß", "\r", "\x85", "　", "\U0001f600", "-", "7", "123", "'", " ", "  "]
EDGES = ["", "", "", " ", "　", "\x85", "\t"]
CATEGORIES = ["PER", "PER", "ORG", "LOC", "per", "XYZ"]
TEXT = ["met", "is great.", ",", "7", "\U0001f600", "\r", "　", "[[", "]]", "[[|PER]]", "[[India]]"]

BATCHES = 24
BATCH_LINES = 5


def random_name(rng) -> str:
    if rng.random() < 0.08:
        return rng.choice([" ", "　", "\x85"])  # a blank span
    parts = [rng.choice(NAMES)]
    for _ in range(rng.choice([0, 0, 1, 2])):
        parts.append(rng.choice(PIECES + NAMES))
    return rng.choice(EDGES) + "".join(parts) + rng.choice(EDGES)


def random_line(rng) -> str:
    parts = []
    for _ in range(rng.randint(0, 4)):
        if rng.random() < 0.6:
            parts.append(f"[[{random_name(rng)}|{rng.choice(CATEGORIES)}]]")
        else:
            parts.append(rng.choice(TEXT))
    return rng.choice(["", " "]).join(parts)


def batches(seed, make):
    rng = random.Random(seed)
    return [[make(rng) for _ in range(BATCH_LINES)] for _ in range(BATCHES)]


def outcome(call):
    """call()'s result, or (class, message) of the package error it raised."""
    try:
        return call()
    except NeTranslitError as exc:
        return type(exc), str(exc)


def is_error(result) -> bool:
    return isinstance(result, tuple) and isinstance(result[0], type)


def run_command(argv, lines, tmp_path, capsys):
    """(exit status, stdout, stderr) of main(argv) reading lines with --in."""
    path = tmp_path / "in.txt"
    path.write_bytes("".join(f"{line}\n" for line in lines).encode("utf-8"))
    code = main([*argv, "--in", str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fitted(tmp_path, fallback="error"):
    """An estimator fitted on CORPUS, and its model saved for the command.
    Unsmoothed, so a path of probability 0 is among the fallbacks."""
    estimator = HmmTransliterator(smoothing_k=0, fallback=fallback).fit([(e.english, e.hindi) for e in CORPUS])
    path = tmp_path / "model.txt"
    save_model(estimator.model_, path)
    return estimator, path


def decision_record(lineno, decision) -> str:
    span = decision.span
    record = (
        f"{lineno}\t{span.start}\t{span.end}\t{span.surface}"
        f"\t{span.category.value}\t{decision.route.value}\t{decision.output}"
    )
    if decision.score is not None:
        record += f"\t{decision.score:.6f}"
    return record + "\n"


@pytest.mark.parametrize("policy", list(Fallback), ids=lambda policy: policy.value)
def test_the_transliterate_front_doors_agree(policy, tmp_path, capsys):
    predictor, model_path = fitted(tmp_path, policy.value)
    model = predictor.model_
    argv = ["transliterate", "--model", str(model_path), "--fallback", policy.value]
    seen = set()
    for lines in batches(101, lambda rng: rng.choice([random_name, random_line])(rng)):
        out, err, code = [], "", 0
        for lineno, line in enumerate(lines, 1):
            result = outcome(lambda: transliterate(model, line, policy))
            assert outcome(lambda: predictor.predict([line])[0]) == result
            word = line.strip()
            if not word:  # the command skips a blank line
                continue
            # the name as a translate span decodes to the same output or
            # error, and its decision gives the command's score column
            span = EntitySpan(0, len(word), word, EntityCategory.PERSON)
            processed = outcome(lambda: process_sentence(word, [span], None, model, policy))
            if is_error(result):
                assert processed == result
                seen.add(result[0])
                if not code:  # the command stops at its first error
                    err, code = f"ne-translit: error: line {lineno}: {result[1]}\n", 1
                continue
            (decision,) = processed.decisions
            assert decision.output == result
            seen.add(decision.route)
            if not code:
                score = "-" if decision.score is None else f"{decision.score:.6f}"
                out.append(f"{word}\t{result}\t{score}\n")
        assert run_command(argv, lines, tmp_path, capsys) == (code, "".join(out), err)
    if policy is Fallback.ERROR:
        assert seen == {Route.TRANSLITERATED, ScriptError, UnseenPhonemeError, ZeroProbabilityError}
    else:
        assert seen == {Route.TRANSLITERATED, Route.FALLBACK}


@pytest.mark.parametrize("on_error", ["abort", "skip", "passthrough"])
@pytest.mark.parametrize("policy", list(Fallback), ids=lambda policy: policy.value)
def test_the_translate_front_doors_agree(policy, on_error, tmp_path, capsys):
    estimator, model_path = fitted(tmp_path)
    model = estimator.model_
    kb = load_seed_kb()
    translator = NamedEntityTranslator(model=estimator, kb=kb, fallback=policy.value)
    decisions_path = tmp_path / "decisions.tsv"
    argv = [
        "translate", "--model", str(model_path), "--fallback", policy.value,
        "--on-error", on_error, "--decisions", str(decisions_path),
    ]
    seen = set()
    for lines in batches(202, random_line):
        out, err, records, code = [], [], [], 0
        for lineno, line in enumerate(lines, 1):
            processed = outcome(lambda: process_sentence(*parse_annotations(line), kb, model, policy))
            assert outcome(lambda: translator.process_line(line)) == processed
            if is_error(processed):
                seen.add(processed[0])
            else:
                seen.update(decision.route for decision in processed.decisions)
            if code and on_error == "abort":
                continue
            if is_error(processed):
                err.append(f"ne-translit: error: line {lineno}: {processed[1]}\n")
                code = 1
                if on_error != "abort":
                    out.append("" if on_error == "skip" else line)
                continue
            out.append(processed.substituted)
            records += [decision_record(lineno, decision) for decision in processed.decisions]
        got = run_command(argv, lines, tmp_path, capsys)
        assert got == (code, "".join(f"{line}\n" for line in out), "".join(err))
        assert decisions_path.read_bytes().decode("utf-8") == "".join(records)
        if on_error != "abort":  # one output line per input line
            assert got[1].count("\n") == len(lines)
    # every route, the annotation errors and, under --fallback error, every
    # decode error in place of the fallbacks
    routes = {Route.KB_HIT, Route.TRANSLITERATED, AnnotationError}
    if policy is Fallback.ERROR:
        assert seen == routes | {ScriptError, UnseenPhonemeError, ZeroProbabilityError}
    else:
        assert seen == routes | {Route.FALLBACK}
