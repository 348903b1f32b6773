"""In-memory spans around the package's public functions.

The benchmark patches each function where the calling module looks it up,
so the package itself is unchanged.  Every call appends one span
(name, start, end, parent, from_args, from_result) to a list; the last two
are small records taken from the call's arguments and result, for counts.
Everything else is worked out after the traced command has returned.
"""

from __future__ import annotations

import time
from collections import defaultdict

from ne_translit import alignment, cli, decoder, kb, model, phonology, pipeline

RAISED = "raised"  # from_result of a call that raised


def _vocab(result):
    return len(result.h_vocab), len(result.e_vocab)


# span name -> (places the function is looked up, record from the
# arguments, record from the result)
WRAPPED = {
    "phonology.phonify_latin": (
        [(phonology, "phonify_latin"), (pipeline, "phonify_latin"), (alignment, "phonify_latin")],
        None,
        None,
    ),
    "phonology.phonify_devanagari": (
        [(phonology, "phonify_devanagari"), (alignment, "phonify_devanagari")],
        None,
        None,
    ),
    "alignment.load_corpus": ([(alignment, "load_corpus")], None, None),
    "alignment.em_train_alignment": (
        [(alignment, "em_train_alignment")],
        lambda a, k: (a[0], a[1] if len(a) > 1 else k.get("iterations", 10)),
        lambda r: r,
    ),
    "alignment.build_aligned_corpus": ([(alignment, "build_aligned_corpus")], None, None),
    "model.estimate": ([(model, "estimate")], None, _vocab),
    "model.save_model": ([(model, "save_model")], None, None),
    "model.load_model": ([(model, "load_model")], None, _vocab),
    "decoder.candidates": ([(decoder, "candidates")], None, len),
    "decoder.viterbi": (
        [(decoder, "viterbi"), (pipeline, "viterbi"), (cli, "viterbi")],
        lambda a, k: a[1],
        None,
    ),
    "kb.load_kb": ([(kb, "load_kb")], None, None),
    "kb.lookup": ([(kb.KnowledgeBase, "lookup")], None, lambda r: r is not None),
    "pipeline.parse_annotations": (
        [(pipeline, "parse_annotations"), (cli, "parse_annotations")],
        None,
        None,
    ),
    "pipeline.process_sentence": (
        [(pipeline, "process_sentence"), (cli, "process_sentence")],
        None,
        lambda r: [d.route.value for d in r.decisions],
    ),
}


class Tracer:
    """Patches every function in WRAPPED on entry and restores it on exit."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, name, fn, from_args, from_result):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            kept = from_args(args, kwargs) if from_args else None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (name, start, clock(), parent, kept, RAISED)
                raise
            finally:
                stack.pop()
            end = clock()
            spans[index] = (name, start, end, parent, kept, from_result(result) if from_result else None)
            return result

        return traced

    def __enter__(self):
        wrappers: dict = {}
        for name, (places, from_args, from_result) in WRAPPED.items():
            for owner, attr in places:
                original = getattr(owner, attr)
                if id(original) not in wrappers:
                    wrappers[id(original)] = self._wrap(name, original, from_args, from_result)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrappers[id(original)])
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def write(self, path) -> None:
        """One tab-separated line per span: name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, _, _ in self.spans:
                out.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def summarize(spans, wall_s: float) -> dict:
    """Per span name: calls, inclusive and self seconds, durations and the
    kept records.  Self time is a span's duration minus the time its child
    spans cover; `cli_self_s` is the command's wall time minus its
    top-level spans."""
    child = [0.0] * len(spans)
    top = 0.0
    for name, start, end, parent, _, _ in spans:
        if parent < 0:
            top += end - start
        else:
            child[parent] += end - start
    layers: dict = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": [], "args": [], "results": []}
    )
    for index, (name, start, end, _, from_args, from_result) in enumerate(spans):
        entry = layers[name]
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - child[index]
        entry["durations"].append(end - start)
        entry["args"].append(from_args)
        entry["results"].append(from_result)
    return {"layers": dict(layers), "cli_self_s": wall_s - top}
