"""Measured process: runs one `ne-translit` command in a closed loop.

Usage: python3 perfbench/measure.py SPEC.json

The spec (written by run.py) names the package source directory, the CLI
arguments, the loaders to time for set-up, and whether to trace.  The
command is repeated in this one process until the time is up; each
repetition handles its input file line by line.  The result goes to the
JSON file the spec names, so this process's peak resident memory is the
command's own.

Untraced repetitions note progress marks: the end of every line the
command writes (one per finished item) and, for the modules the spec
names, the return of every module-level function.  Every repetition does
the same work, so the k-th segment between marks is the same stretch of
work in each; the fastest time any repetition took for it is kept.  On a
shared host whose cores run a third to half slower in bursts that last
from milliseconds to seconds, the sum of those fastest segments moves far
less from run to run than the repetitions' wall time.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import inspect
import json
import resource
import statistics
import sys
import time
from array import array
from collections import Counter

MIN_REPS = 3
SETUP_REPEATS = 3  # loader timings after each repetition


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as stream:
        for block in iter(lambda: stream.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


class MarkedStdout:
    """Forwards the command's stdout to a file and marks the time each line
    ends, which is when the command has finished an item."""

    def __init__(self, out, marks):
        self._out, self._marks = out, marks

    def write(self, text):
        self._out.write(text)
        if text.endswith("\n"):
            self._marks.append(time.perf_counter())
        return len(text)

    def __getattr__(self, name):
        return getattr(self._out, name)


@contextlib.contextmanager
def marking_calls(module_names, marks):
    """Mark the return of every module-level function of the named package
    modules, patched where the module looks it up, restored on exit."""
    saved = []
    for module_name in module_names:
        module = importlib.import_module(f"ne_translit.{module_name}")
        for name, fn in list(vars(module).items()):
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                saved.append((module, name, fn))
                setattr(module, name, _marked(fn, marks))
    try:
        yield
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)


def _marked(fn, marks):
    clock, append = time.perf_counter, marks.append

    @functools.wraps(fn)
    def marked(*args, **kwargs):
        result = fn(*args, **kwargs)
        append(clock())
        return result

    return marked


def run_cli(argv, stdout_path, marks=None, mark_modules=()) -> tuple[int, float]:
    """Run `ne-translit argv` in this process with stdout sent to a file;
    return its exit code and wall time.  The start, every progress mark and
    the end are appended to `marks` when it is given."""
    from ne_translit import cli

    if marks is None:
        marks = array("d")
    with open(stdout_path, "w", encoding="utf-8") as out, \
            contextlib.redirect_stdout(MarkedStdout(out, marks)), marking_calls(mark_modules, marks):
        start = time.perf_counter()
        marks.append(start)
        code = cli.main(argv)
        end = time.perf_counter()
        marks.append(end)
    return code, end - start


class FastestSegments:
    """For each segment between consecutive marks, the fastest time any
    repetition took.  Repetitions are grouped by their number of marks, and
    the group with the most repetitions is reported."""

    def __init__(self):
        self.groups: dict[int, list] = {}  # segments -> [repetitions, fastest times]

    def add(self, marks) -> None:
        count = len(marks) - 1
        group = self.groups.get(count)
        if group is None:
            self.groups[count] = [1, array("d", (b - a for a, b in zip(marks, marks[1:])))]
            return
        group[0] += 1
        fastest = group[1]
        for i in range(count):
            segment = marks[i + 1] - marks[i]
            if segment < fastest[i]:
                fastest[i] = segment

    def result(self) -> dict:
        reps, fastest = max(self.groups.values(), key=lambda group: group[0])
        return {"fastest_s": sum(fastest), "fastest_reps": reps, "segments": len(fastest)}


def time_loaders(loaders) -> float:
    """Wall time of the loaders a command runs before its first item."""
    from ne_translit import alignment, kb, model

    functions = {"load_model": model.load_model, "load_kb": kb.load_kb, "load_corpus": alignment.load_corpus}
    start = time.perf_counter()
    for name, path in loaders:
        functions[name](path)
    return time.perf_counter() - start


def _rep(spec, marks=None, mark_modules=()) -> dict:
    code, wall = run_cli(spec["argv"], spec["stdout"], marks, mark_modules)
    digests = [sha256_file(spec["stdout"])]
    if spec.get("model_out"):
        digests.append(sha256_file(spec["model_out"]))
    return {"code": code, "wall_s": wall, "sha256": digests}


def _untraced_rep(spec, setup: list, segments: FastestSegments) -> dict:
    """One marked repetition of the command, then a few loader timings, so
    that set-up is sampled across the same window as the command."""
    marks = array("d")
    rep = _rep(spec, marks, spec["mark_modules"])
    segments.add(marks)
    del marks
    setup.extend(time_loaders(spec["loaders"]) for _ in range(SETUP_REPEATS))
    return rep


def layer_metrics(summary) -> dict:
    """The per-layer metrics of one traced repetition."""
    from ne_translit.phonology import PhonemeSequence

    from spans import RAISED

    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": [], "args": [], "results": []}
    layers = summary["layers"]

    def get(name):
        return layers.get(name, empty)

    def share(part, whole):
        return part / whole if whole else 0.0

    m = {
        "phonology.phonify_latin.calls": get("phonology.phonify_latin")["calls"],
        "phonology.phonify_latin.s": get("phonology.phonify_latin")["s"],
        "phonology.phonify_devanagari.s": get("phonology.phonify_devanagari")["s"],
    }

    em = get("alignment.em_train_alignment")
    m["alignment.em_train_alignment.s"] = em["s"]
    if em["calls"]:
        corpus, iterations = em["args"][0]
        m["alignment.em.s_per_iter"] = em["s"] / iterations
        m["alignment.em.entries"] = len(corpus)
        m["alignment.em.distinct_frac"] = share(len(set(corpus)), len(corpus))
    else:
        m["alignment.em.s_per_iter"] = m["alignment.em.entries"] = m["alignment.em.distinct_frac"] = 0
    for name in ("alignment.build_aligned_corpus", "alignment.load_corpus", "model.estimate",
                 "model.save_model", "model.load_model", "kb.load_kb",
                 "pipeline.parse_annotations"):
        m[f"{name}.s"] = get(name)["s"]

    sizes = [r for r in get("model.estimate")["results"] + get("model.load_model")["results"] if r != RAISED]
    m["model.h_vocab"], m["model.e_vocab"] = sizes[0] if sizes else (0, 0)

    cand = get("decoder.candidates")
    m["decoder.candidates.calls"] = cand["calls"]
    m["decoder.candidates.s"] = cand["s"]
    m["decoder.candidates.mean_returned"] = share(sum(cand["results"]), cand["calls"])

    vit = get("decoder.viterbi")
    m["decoder.viterbi.calls"] = vit["calls"]
    m["decoder.viterbi.self_s"] = vit["self_s"]
    if vit["calls"] > 1:
        m["decoder.viterbi.p50_us"] = 1e6 * statistics.median(vit["durations"])
        m["decoder.viterbi.p99_us"] = 1e6 * statistics.quantiles(vit["durations"], n=100)[98]
    else:
        m["decoder.viterbi.p50_us"] = m["decoder.viterbi.p99_us"] = 0.0
    m["decoder.unseen_frac"] = share(vit["results"].count(RAISED), vit["calls"])
    seen, repeats = set(), 0
    for seq in vit["args"]:
        key = tuple(seq.keys()) if isinstance(seq, PhonemeSequence) else tuple(seq)
        repeats += key in seen
        seen.add(key)
    m["decoder.repeat_frac"] = share(repeats, vit["calls"])

    lookup = get("kb.lookup")
    m["kb.lookup.calls"] = lookup["calls"]
    m["kb.lookup.s"] = lookup["s"]
    m["kb.hit_frac"] = share(sum(lookup["results"]), lookup["calls"])

    m["pipeline.process_sentence.self_s"] = get("pipeline.process_sentence")["self_s"]
    routes = [route for decided in get("pipeline.process_sentence")["results"] for route in decided]
    for route in ("KB_HIT", "TRANSLITERATED", "FALLBACK"):
        m[f"pipeline.route.{route}"] = routes.count(route)
    m["cli.self_s"] = summary["cli_self_s"]
    return m


def usable_frac(corpus, costs) -> float:
    """Share of entries whose total alignment probability under the final
    costs is above 0, one entry at a time through corpus_log_likelihood."""
    from ne_translit.alignment import corpus_log_likelihood

    counts = Counter(corpus)
    usable = sum(n for entry, n in counts.items() if corpus_log_likelihood([entry], costs) > float("-inf"))
    return usable / len(corpus)


def main(spec_path) -> int:
    with open(spec_path, encoding="utf-8") as stream:
        spec = json.load(stream)
    sys.path.insert(0, spec["src"])

    setup: list[float] = []
    segments = FastestSegments()
    result = {"setup_s": setup, "reps": [], "traced": [], "layer_metrics": [], "missing_wrappers": []}
    deadline = time.perf_counter() + spec["seconds"]
    if spec["trace"]:
        from spans import Tracer, summarize

        em_record = None
        while len(result["traced"]) < 1 or time.perf_counter() < deadline:
            result["reps"].append(_untraced_rep(spec, setup, segments))
            with Tracer() as tracer:
                rep = _rep(spec)
            result["traced"].append(rep)
            summary = summarize(tracer.spans, rep["wall_s"])
            result["layer_metrics"].append(layer_metrics(summary))
            missing = [name for name in spec["expect"] if name not in summary["layers"]]
            result["missing_wrappers"] = sorted(set(result["missing_wrappers"]) | set(missing))
            em = summary["layers"].get("alignment.em_train_alignment")
            if em and em_record is None:
                em_record = (em["args"][0][0], em["results"][0])
        tracer.write(spec["spans"])
        result["usable_frac"] = usable_frac(*em_record) if em_record else 0.0
    else:
        while len(result["reps"]) < MIN_REPS or time.perf_counter() < deadline:
            result["reps"].append(_untraced_rep(spec, setup, segments))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result.update(segments.result())

    with open(spec["result"], "w", encoding="utf-8") as out:
        json.dump(result, out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
