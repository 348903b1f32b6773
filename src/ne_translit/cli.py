"""Command-line interface: one executable for the whole workflow.

Subcommands: phonify, align-dump, train, transliterate, translate,
evaluate.  Batch commands read one item per line and write one line per
item, in input order, UTF-8 everywhere.  Usage errors exit 2; runtime
failures print a single-line diagnostic and exit 1.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import stat
import sys
from collections import Counter

from . import alignment, evaluation, kb as kb_mod, model as model_mod, phonology
from .decoder import Fallback, decode_name
from .errors import ConfigError, NeTranslitError
from .model import BOS, EOS
from .pipeline import ANNOTATION_FORMATS, parse_annotations, process_sentence
from .settings import SETTINGS, check
from .textfile import decoded_lines, read_lines

# Not called here (decode_name makes the call), but the benchmark's
# tracer patches this name on this module.
from .decoder import viterbi  # noqa: F401

PROG = "ne-translit"


def parse_config(path) -> dict:
    values: dict = {}
    for lineno, line in read_lines(path, ConfigError, "config"):
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno}: expected key = value")
        key, _, value = (part.strip() for part in line.partition("="))
        if key in values:
            raise ConfigError(f"{path}: line {lineno}: duplicate key {key!r}")
        try:
            values[key] = check(key, value)
        except ConfigError as exc:
            raise ConfigError(f"{path}: line {lineno}: {exc}") from exc
    return values


def _add_setting(parser, key, **kwargs):
    """A --flag for SETTINGS[key], parsed as a config value is."""
    parser.add_argument("--" + key.replace("_", "-"), dest=key, type=SETTINGS[key][0], **kwargs)


@contextlib.contextmanager
def _input_lines(args):
    """(line number, line) for each line of the --in file or of stdin
    (left open on exit), decoded one line at a time (see
    textfile.decoded_lines), as a context manager.  An --in file that
    cannot be opened raises NeTranslitError("cannot read <path>: <reason>")."""
    path = getattr(args, "infile", None)
    try:
        source = open(path, "rb") if path else contextlib.nullcontext(sys.stdin.buffer)
    except OSError as exc:
        raise NeTranslitError(f"cannot read {path}: {exc}") from exc
    with source as stream:
        yield decoded_lines(stream, NeTranslitError, path or "standard input")


# the parsed arguments that name a file a command reads, and those that
# name a file it writes
_INPUT_ARGS = ("config", "corpus", "model", "kb", "infile")
_OUTPUT_ARGS = ("model_out", "decisions")


def _refuse_to_overwrite_an_input(args):
    """Raise NeTranslitError if an output path is the same file as one of
    the command's inputs, standard input included when the command reads
    it, before anything is opened for writing.  Stats are compared as
    os.path.samefile compares them, but each output is statted once: one
    that does not exist yet, or is not a regular file (such as /dev/null),
    overwrites nothing."""
    sources = list(filter(None, (getattr(args, name, None) for name in _INPUT_ARGS)))
    if hasattr(args, "infile") and not args.infile:
        sources.append(None)  # standard input
    for output in filter(None, (getattr(args, name, None) for name in _OUTPUT_ARGS)):
        try:
            output_stat = os.stat(output)
        except OSError:
            continue
        if not stat.S_ISREG(output_stat.st_mode):
            continue
        for source in sources:
            try:
                source_stat = os.fstat(sys.stdin.fileno()) if source is None else os.stat(source)
            except (OSError, ValueError):
                # a missing input is reported where it is read, and a
                # standard input with no file descriptor is no file
                continue
            if os.path.samestat(output_stat, source_stat):
                raise NeTranslitError(f"output {output} would overwrite the input {source or 'standard input'}")


def _info(args, message, file=None):
    if not args.quiet:
        print(message, file=file)


def cmd_phonify(args) -> int:
    failed = False
    with _input_lines(args) as lines:
        for lineno, raw in lines:
            word = raw.strip()
            if not word:
                continue
            try:
                seq = phonology.phonify(word)
            except NeTranslitError as exc:
                # report the word and go on, as translate --on-error does
                print(f"{PROG}: error: line {lineno}: {exc}", file=sys.stderr)
                failed = True
                continue
            print(f"{word}\t{seq.bracketed()}")
    return 1 if failed else 0


def _align_corpus(args) -> tuple[list, int]:
    """Load and align the corpus, warning about each line or entry left
    out; returns the aligned entries and how many were left out."""
    entries, warnings = alignment.load_corpus(args.corpus)
    for warning in warnings:
        _info(args, f"{PROG}: warning: {args.corpus}: {warning}", file=sys.stderr)
    _, usable, skipped = alignment.align_corpus(entries, args.em_iterations)
    for record in skipped:
        _info(args, f"{PROG}: warning: skipped {record}", file=sys.stderr)
    return usable, len(skipped) + len(warnings)


def cmd_align_dump(args) -> int:
    usable, _ = _align_corpus(args)
    counts = Counter(pair for pairs in usable for pair in pairs)
    for (e, h), count in sorted(counts.items()):
        print(f"{e}\t{h}\t{count}")
    return 0


def cmd_train(args) -> int:
    usable, skipped_count = _align_corpus(args)
    trained = model_mod.estimate(usable, args.smoothing_k)
    model_mod.save_model(trained, args.model_out)
    _info(args, f"trained on {len(usable)} entries ({skipped_count} skipped)")
    _info(
        args,
        f"vocabulary: {len(trained.e_vocab)} english phonemes, "
        f"{len(trained.h_vocab)} hindi phonemes",
    )
    _info(args, f"model written to {args.model_out}")
    return 0


def cmd_transliterate(args) -> int:
    trained = model_mod.load_model(args.model)
    with _input_lines(args) as lines:
        for lineno, raw in lines:
            # the name as decoded: its words joined by single spaces, so a tab
            # inside it cannot add a column
            word = " ".join(raw.split())
            if not word:
                continue
            try:
                hindi, score, runs = decode_name(trained, word, args.fallback, args.top_k)
            except NeTranslitError as exc:  # only under --fallback error
                print(f"{PROG}: error: line {lineno}: {exc}", file=sys.stderr)
                return 1
            if score is None:
                print(f"{word}\t{hindi}\t-")
                continue
            line = f"{word}\t{hindi}\t{score:.6f}"
            if args.trace:
                # each position's composite score, run by run, over the path
                # and the keys that each run's Decoding carries
                items = []
                for _, (hindi_sequence, _, english) in runs:
                    path = (BOS, *hindi_sequence, EOS)
                    items += (
                        f"{h}:{trained.position_score(path[i], h, path[i + 2], e):.6g}"
                        for i, (h, e) in enumerate(zip(hindi_sequence, english))
                    )
                line += "\t" + " ".join(items)
            print(line)
    return 0


def cmd_translate(args) -> int:
    trained = model_mod.load_model(args.model)
    knowledge = kb_mod.load_kb(args.kb) if args.kb else kb_mod.load_seed_kb()
    failed = False
    # the input opens first, so a missing input leaves no decisions file behind
    with (
        _input_lines(args) as lines,
        open(args.decisions, "w", encoding="utf-8") if args.decisions else contextlib.nullcontext() as decisions_out,
    ):
        for lineno, raw in lines:
            line = raw.rstrip("\n")
            try:
                sentence, spans = parse_annotations(line, args.format)
                processed = process_sentence(sentence, spans, knowledge, trained, args.fallback, args.top_k)
            except NeTranslitError as exc:
                print(f"{PROG}: error: line {lineno}: {exc}", file=sys.stderr)
                if args.on_error == "abort":
                    return 1
                # one output line per input line, so later lines stay aligned
                print("" if args.on_error == "skip" else line)
                failed = True
                continue
            print(processed.substituted)
            if decisions_out:
                for decision in processed.decisions:
                    span = decision.span
                    record = (
                        f"{lineno}\t{span.start}\t{span.end}\t{span.surface}"
                        f"\t{span.category.value}\t{decision.route.value}\t{decision.output}"
                    )
                    if decision.score is not None:
                        record += f"\t{decision.score:.6f}"
                    decisions_out.write(record + "\n")
    return 1 if failed else 0


def cmd_evaluate(args) -> int:
    gold = evaluation.load_gold(args.gold)
    system = evaluation.load_system(args.system)
    report = evaluation.evaluate(gold, system)
    sys.stdout.write(evaluation.render_report(report, args.format))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Translate or transliterate English named entities into Hindi.",
    )
    parser.add_argument("--config", help="flat key = value configuration file")
    parser.add_argument("--quiet", action="store_true", help="suppress informational output")
    sub = parser.add_subparsers(dest="command", required=True)
    # the flags transliterate and translate share, listed first in both
    decode = argparse.ArgumentParser(add_help=False)
    decode.add_argument("--model", required=True)
    _add_setting(decode, "fallback", metavar="{" + ",".join(f.value for f in Fallback) + "}")
    _add_setting(decode, "top_k")

    p = sub.add_parser("phonify", help="segment words (one per line) into phonemes")
    p.add_argument("--in", dest="infile", help="read words from a file instead of stdin")
    p.set_defaults(func=cmd_phonify)

    p = sub.add_parser("align-dump", help="train the aligner and dump pair counts")
    p.add_argument("corpus", help="parallel corpus: english<TAB>hindi per line")
    _add_setting(p, "em_iterations")
    p.set_defaults(func=cmd_align_dump)

    p = sub.add_parser("train", help="train a transliteration model from a parallel corpus")
    p.add_argument("corpus", help="parallel corpus: english<TAB>hindi per line")
    p.add_argument("model_out", help="where to write the model file")
    _add_setting(p, "smoothing_k")
    _add_setting(p, "em_iterations")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("transliterate", parents=[decode], help="transliterate words (one per line)")
    p.add_argument("--trace", action="store_true", help="append per-position scores")
    p.add_argument("--in", dest="infile", help="read words from a file instead of stdin")
    p.set_defaults(func=cmd_transliterate)

    p = sub.add_parser("translate", parents=[decode], help="substitute entities in annotated sentences")
    p.add_argument("--kb", help="knowledge base file (default: the packaged seed)")
    p.add_argument("--format", choices=list(ANNOTATION_FORMATS), default="inline")
    p.add_argument("--in", dest="infile", help="read sentences from a file instead of stdin")
    p.add_argument("--decisions", help="write one record per entity to this file")
    p.add_argument(
        "--on-error",
        dest="on_error",
        choices=["abort", "skip", "passthrough"],
        default="abort",
        help="for a line that fails: stop (default), print an empty line, or print it "
        "unchanged; skip and passthrough report each such line and exit 1 at the end",
    )
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("evaluate", help="score system outputs against gold translations")
    p.add_argument("--gold", required=True, help="english<TAB>category<TAB>hindi per line")
    p.add_argument("--system", required=True, help="one output per line, index-aligned")
    p.add_argument("--format", choices=["text", "tsv"], default="text")
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    # output is UTF-8 with no byte-order mark; input is read as bytes (see _input_lines)
    for stream in (sys.stdout, sys.stderr):
        if hasattr(stream, "reconfigure"):
            try:
                stream.reconfigure(encoding="utf-8")
            except (ValueError, OSError):
                pass
    args = build_parser().parse_args(argv)
    try:
        _refuse_to_overwrite_an_input(args)
        config = parse_config(args.config) if args.config else {}
        for key, (_, default) in SETTINGS.items():
            if hasattr(args, key) and getattr(args, key) is None:
                setattr(args, key, config.get(key, default))
        return args.func(args)
    except (NeTranslitError, OSError) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
