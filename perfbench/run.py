"""Benchmark of the `ne-translit` command-line tool.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed generates the inputs (see gen.py), which are written to files
under .perfbench_work/.  A separate process (measure.py) then runs the
real CLI entry point, `ne_translit.cli.main(argv)` with `--in FILE`, over
those files in a closed loop, single-threaded, until S seconds are used.
The outputs are checked before anything is reported: line alignment,
byte-identical text outside entity spans, gold accuracy, a brute-force
score check, model reload, and identical output bytes on every repetition.

With --trace 0 the last stdout line reports the end-to-end metrics:
throughput from the sum of the fastest times of the repetitions' segments
between progress marks (see measure.py), and the fastest of the set-up
timings taken between repetitions.  With --trace 1
the command alternates untraced repetitions with repetitions that record
spans around the package's public functions (spans.py), and the per-layer
metrics and the tracing overhead are reported instead.  The line before
it records the machine, the seed, the input properties and the SHA-256 of
the outputs.  Metric names and units are those declared in BENCHMARK.json.
`python3 perfbench/selftest.py` checks that every wrapper still fires.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

sys.path.insert(0, str(Path(__file__).resolve().parent))
import gen  # noqa: E402
from measure import run_cli  # noqa: E402

WORK_DIR = ".perfbench_work"
# train-dup: 500 names in 1500 entries, so a third are distinct and a
# repetition is short enough for a run to hold a few dozen of them.
TRAIN_NAMES, TRAIN_ENTRIES = 500, 1500
# The words-zipf model sees 1000 names, which cover every Latin phoneme of
# the word pool, so no word falls back.
MODEL_NAMES, MODEL_ENTRIES = 1000, 3000
WORDS = 6000
SENTENCES = 3000
KB_ROWS = 4000
TOP_K = 10  # the CLI default, which the brute-force score check mirrors
SCORE_SAMPLE = 50  # short words searched exhaustively per run
SCORE_MAX_PHONEMES = 4


@dataclass
class Prepared:
    """A generated workload: the command to measure and how to check it."""

    argv: list[str]
    items: int
    loaders: list[tuple[str, str]]
    # check(stdout path) -> (accuracy, fallbacks per item list, problems)
    check: Callable[[Path], tuple[float, list[bool], list[str]]]
    properties: dict  # input properties recorded with the result
    model_out: str | None = None
    # Package modules whose functions mark progress in addition to the
    # output lines; for a command that writes no line per item.
    mark_modules: tuple[str, ...] = ()


def _write_lines(path: Path, lines) -> str:
    path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    return str(path)


def _h_vocab(model_path: str) -> int:
    from ne_translit.model import load_model

    return len(load_model(model_path).h_vocab)


def _train(corpus, work: Path, name: str) -> str:
    """Train a model the measured command needs, through the CLI."""
    corpus_path = _write_lines(work / f"{name}.tsv", (f"{e}\t{h}" for e, h in corpus))
    model_path = str(work / f"{name}.model")
    argv = ["--quiet", "train", corpus_path, model_path, "--em-iterations", str(gen.EM_ITERATIONS)]
    code, _ = run_cli(argv, work / f"{name}.out")
    if code != 0:
        raise RuntimeError(f"training the {name} model failed with exit code {code}")
    return model_path


# --- brute-force score check ----------------------------------------------

def brute_force(model, keys):
    """Best (Hindi sequence, log score) over every path of the candidate
    lattice, built from the emission table itself: the TOP_K Hindi phonemes
    with the highest observed P(e|h) per position, ties by code point.
    Larger score wins; equal scores pick the code-point-smallest sequence.
    None when some position has no candidate."""
    lattice = []
    for e in keys:
        column = sorted((-row[e], h) for h, row in model.emission.items() if e in row)[:TOP_K]
        if not column:
            return None
        lattice.append([(h, -neg) for neg, h in column])

    def log(p):
        return math.log(p) if p > 0.0 else float("-inf")

    best_seq, best_score = None, float("-inf")
    for path in itertools.product(*lattice):
        score = log(model.transition_prob("<s>", path[0][0])) + log(path[0][1])
        for (prev, _), (h, p) in zip(path, path[1:]):
            score = (score + log(model.transition_prob(prev, h))) + log(p)
        score = score + log(model.transition_prob(path[-1][0], "</s>"))
        seq = tuple(h for h, _ in path)
        if best_seq is None or score > best_score or (score == best_score and seq < best_seq):
            best_seq, best_score = seq, score
    return best_seq, best_score


def check_words(words, golds, out_path: Path, model_path: str):
    """Check `transliterate` output: one line per input word in order, gold
    accuracy, and the brute-force score check on a fixed sample."""
    from ne_translit import model as model_mod
    from ne_translit.phonology import phonify_latin

    problems: list[str] = []
    lines = out_path.read_text(encoding="utf-8").splitlines()
    if len(lines) != len(words):
        return 0.0, [], [f"{len(lines)} output lines for {len(words)} input words"]
    rows = [line.split("\t") for line in lines]
    correct, fallbacks = 0, []
    for lineno, (word, gold, cols) in enumerate(zip(words, golds, rows), start=1):
        if len(cols) != 3 or cols[0] != word:
            problems.append(f"output line {lineno} is not for input word {word!r}: {cols!r}")
            continue
        fallbacks.append(cols[2] == "-")
        correct += cols[1] == gold

    model = model_mod.load_model(model_path)
    sampled: set[str] = set()
    for word, cols in zip(words, rows):
        if len(sampled) == SCORE_SAMPLE:
            break
        keys = phonify_latin(word).keys()
        if word in sampled or len(keys) > SCORE_MAX_PHONEMES:
            continue
        sampled.add(word)
        best = brute_force(model, keys)
        expected = [word, word, "-"] if best is None else [word, "".join(best[0]), f"{best[1]:.6f}"]
        if cols != expected:
            problems.append(f"score check: {word!r} printed {cols!r}, exhaustive search gives {expected!r}")
    if len(sampled) < SCORE_SAMPLE:
        problems.append(f"score check found only {len(sampled)} short words")
    return correct / len(words), fallbacks, problems


# --- workloads ------------------------------------------------------------

_DECODE_SPANS = ["model.load_model", "phonology.phonify_latin", "decoder.viterbi", "decoder.candidates"]
# Span names that must fire at least once on each workload's traced run, so
# a refactor that moves a call fails loudly instead of reporting zeros.
EXPECTED_SPANS = {
    "train-dup": ["alignment.load_corpus", "alignment.em_train_alignment", "alignment.build_aligned_corpus",
                  "model.estimate", "model.save_model", "phonology.phonify_latin",
                  "phonology.phonify_devanagari"],
    "words-zipf": _DECODE_SPANS,
    "sentences-distinct": _DECODE_SPANS + ["kb.load_kb", "kb.lookup", "pipeline.parse_annotations",
                                           "pipeline.process_sentence"],
}


def prepare_train_dup(seed: int, work: Path) -> Prepared:
    corpus = gen.train_corpus(seed, TRAIN_NAMES, TRAIN_ENTRIES)
    corpus_path = _write_lines(work / "corpus.tsv", (f"{e}\t{h}" for e, h in corpus))
    model_path = str(work / "trained.model")
    distinct = dict(corpus)
    words_path = _write_lines(work / "distinct_words.txt", distinct)
    properties = {"entries": len(corpus), "distinct_frac": len(distinct) / len(corpus),
                  "em_iterations": gen.EM_ITERATIONS}

    def check(stdout: Path):
        # After the timer: decode the distinct training words with the
        # trained model through the CLI.  This also proves the model reloads.
        out = work / "distinct_words.out"
        code, _ = run_cli(["transliterate", "--model", model_path, "--fallback", "copy", "--in", words_path], out)
        if code != 0:
            return 0.0, [], [f"transliterate with the trained model exited {code}"]
        accuracy, fell_back, problems = check_words(list(distinct), list(distinct.values()), out, model_path)
        properties["h_vocab"] = _h_vocab(model_path)
        per_word = dict(zip(distinct, fell_back))
        return accuracy, [per_word.get(e, True) for e, _ in corpus], problems

    return Prepared(
        argv=["--quiet", "train", corpus_path, model_path, "--em-iterations", str(gen.EM_ITERATIONS)],
        items=len(corpus),
        loaders=[("load_corpus", corpus_path)],
        check=check,
        properties=properties,
        model_out=model_path,
        mark_modules=("alignment",),
    )


def prepare_words_zipf(seed: int, work: Path) -> Prepared:
    corpus = gen.train_corpus(seed, MODEL_NAMES, MODEL_ENTRIES)
    model_path = _train(corpus, work, "train-dup")
    stream = gen.word_stream(seed, WORDS)
    words = [e for e, _ in stream]
    words_path = _write_lines(work / "words.txt", words)
    trained = {e for e, _ in corpus}

    def check(stdout: Path):
        return check_words(words, [h for _, h in stream], stdout, model_path)

    return Prepared(
        argv=["transliterate", "--model", model_path, "--fallback", "copy", "--in", words_path],
        items=len(words),
        loaders=[("load_model", model_path)],
        check=check,
        properties={"words": len(words), "distinct_frac": len(set(words)) / len(words),
                    "seen_in_training_frac": sum(w in trained for w in words) / len(words),
                    "h_vocab": _h_vocab(model_path)},
    )


def prepare_sentences_distinct(seed: int, work: Path) -> Prepared:
    model_path = _train(gen.cv_training_corpus(), work, "cv-units")
    lines, gold, kb_rows, kb_mentions = gen.sentences(seed, SENTENCES, KB_ROWS)
    sentences_path = _write_lines(work / "sentences.txt", lines)
    kb_path = _write_lines(work / "kb.tsv", ("\t".join(row) for row in kb_rows))
    patterns = {
        pieces: re.compile("(.*?)".join(re.escape(p) for p in pieces), re.DOTALL)
        for pieces in gen.TEMPLATES
    }

    def check(stdout: Path):
        out = stdout.read_text(encoding="utf-8").split("\n")
        if out[-1] != "" or len(out) - 1 != len(lines):
            return 0.0, [], [f"{len(out) - 1} output lines for {len(lines)} input sentences"]
        problems, correct, fallbacks = [], 0, []
        for lineno, (line, (pieces, entities)) in enumerate(zip(out, gold), start=1):
            match = patterns[pieces].fullmatch(line)
            if match is None:
                problems.append(f"line {lineno}: text outside the entity spans changed: {line!r}")
                continue
            outputs = list(match.groups())
            correct += outputs == entities
            fallbacks.append(any("a" <= c.lower() <= "z" for o in outputs for c in o))
        accuracy = correct / len(lines)
        if accuracy != 1.0:
            problems.append(f"accuracy is {accuracy!r}; every sentence is exact by construction")
        return accuracy, fallbacks, problems

    return Prepared(
        argv=["translate", "--model", model_path, "--kb", kb_path, "--fallback", "copy", "--in", sentences_path],
        items=len(lines),
        loaders=[("load_model", model_path), ("load_kb", kb_path)],
        check=check,
        properties={"sentences": len(lines), "entities_per_sentence": 3, "kb_rows": len(kb_rows),
                    "kb_mention_frac": kb_mentions / (2 * len(lines)), "person_names_repeated": 0,
                    "h_vocab": _h_vocab(model_path)},
    )


WORKLOADS = {
    "train-dup": prepare_train_dup,
    "words-zipf": prepare_words_zipf,
    "sentences-distinct": prepare_sentences_distinct,
}


# --- running and reporting ------------------------------------------------

def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu}


def declared_metrics(root: Path, trace: bool) -> dict:
    with open(root / "BENCHMARK.json", encoding="utf-8") as stream:
        declared = json.load(stream)
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def measure(workload: str, prepared: Prepared, src: Path, work: Path, seconds: int, trace: bool) -> dict:
    spec = {
        "src": str(src), "argv": prepared.argv, "seconds": seconds, "trace": trace,
        "loaders": prepared.loaders, "expect": EXPECTED_SPANS[workload], "model_out": prepared.model_out,
        "mark_modules": list(prepared.mark_modules),
        "stdout": str(work / "stdout.txt"), "result": str(work / "result.json"),
        "spans": str(work / "spans.tsv"),
    }
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve().with_name("measure.py")), str(spec_path)],
        capture_output=True, text=True, timeout=seconds + 150,
    )
    if child.returncode != 0:
        raise RuntimeError(f"measured process exited {child.returncode}:\n{child.stderr}")
    return json.loads(Path(spec["result"]).read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "ne_translit" / "cli.py").is_file():
        print(f"perfbench: no package source at {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    trace = bool(args.trace)
    units = declared_metrics(root, trace)

    work = root / WORK_DIR / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    prepared = WORKLOADS[args.workload](args.seed, work)
    result = measure(args.workload, prepared, src, work, args.seconds, trace)

    reps = result["traced"] if trace else result["reps"]
    problems = [f"repetition exited {rep['code']}" for rep in result["reps"] + result["traced"] if rep["code"]]
    digests = {tuple(rep["sha256"]) for rep in result["reps"] + result["traced"]}
    if len(digests) != 1:
        problems.append(f"repetitions of one run wrote different outputs: {sorted(digests)}")
    problems += [f"wrapper never fired: {name}" for name in result["missing_wrappers"]]
    accuracy, fallbacks, check_problems = prepared.check(work / "stdout.txt")
    problems += check_problems

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, **machine(),
        "repetitions": len(reps), "items_per_repetition": prepared.items,
        "segments": result["segments"], "fastest_of_repetitions": result["fastest_reps"],
        "sha256": dict(zip(["stdout", "model"], next(iter(digests)))),
        "inputs": prepared.properties,
    }
    print(json.dumps({"run": record}, ensure_ascii=False))
    attempted, failed = prepared.items * len(reps), sum(fallbacks) * len(reps)
    if problems:
        for problem in problems[:20]:
            print(f"perfbench: check failed: {problem}", file=sys.stderr)
        if len(problems) > 20:
            print(f"perfbench: {len(problems) - 20} more checks failed", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
        return 1

    if trace:
        values = {name: statistics.median_low(m[name] for m in result["layer_metrics"])
                  for name in result["layer_metrics"][0]}
        values["alignment.em.usable_frac"] = result["usable_frac"]
        # Fastest repetitions on each side, as for the end-to-end timings.
        traced_wall = min(rep["wall_s"] for rep in result["traced"])
        untraced_wall = min(rep["wall_s"] for rep in result["reps"])
        values["trace.overhead_s"] = traced_wall - untraced_wall
        values["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
    else:
        values = {
            "items_per_s": prepared.items / result["fastest_s"],
            # Set-up takes milliseconds, so each timing falls in a single
            # burst of the shared host's slowdowns; the fastest of the run's
            # timings moves far less from run to run than their median.
            "setup_s": min(result["setup_s"]),
            "peak_rss_mb": result["peak_rss_mb"],
            "accuracy": accuracy,
            "decoded_frac": 1.0 - sum(fallbacks) / len(fallbacks),
        }
    if set(values) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
