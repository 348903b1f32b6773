"""The one reader of the package's text input: whole files and line streams."""

from __future__ import annotations

import codecs
from pathlib import Path


def read_text(path, error, what: str) -> str:
    """The text of a UTF-8 file, a leading byte-order mark dropped.  A file
    that cannot be read, or is not UTF-8, raises
    `error`("cannot read <what> <path>: <reason>")."""
    try:
        data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise error(f"cannot read {what} {path}: line {lineno} is not UTF-8 ({exc.reason})") from exc


def read_lines(path, error, what: str) -> list[tuple[int, str]]:
    """(line number, stripped line) for each line of a UTF-8 file (see
    read_text) that is neither blank nor a '#' comment.  Lines end at a
    newline only: unlike str.splitlines or universal newlines, a lone
    carriage return, form feed, U+0085 or U+2028 stays inside its line
    (the CR of a CRLF is stripped with the other whitespace).
    """
    return [
        (lineno, line)
        for lineno, raw in enumerate(read_text(path, error, what).split("\n"), start=1)
        if (line := raw.strip()) and line[0] != "#"
    ]


def decoded_lines(stream, error, what: str):
    """(line number, line) for each line of a binary stream, decoded as
    UTF-8 one line at a time, a byte-order mark at the start of line 1
    dropped.  Lines end at a newline only, which each line keeps.  A line
    that is not UTF-8 raises `error`("cannot read <what>: line N is not
    UTF-8 (<reason>)"), after every earlier line has been yielded."""
    for lineno, raw in enumerate(stream, start=1):
        if lineno == 1:
            raw = raw.removeprefix(codecs.BOM_UTF8)
        try:
            yield lineno, raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise error(f"cannot read {what}: line {lineno} is not UTF-8 ({exc.reason})") from exc
