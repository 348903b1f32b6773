"""The one reader of the package's line-oriented text files."""

from __future__ import annotations

from pathlib import Path


def read_lines(path, error, what: str) -> list[tuple[int, str]]:
    """(line number, stripped line) for each line of a UTF-8 file that is
    neither blank nor a '#' comment.  A leading byte-order mark is dropped.
    Lines end at a newline only: unlike str.splitlines or universal
    newlines, a lone carriage return, form feed, U+0085 or U+2028 stays
    inside its line (the CR of a CRLF is stripped with the other
    whitespace).  An unreadable file raises
    `error`("cannot read <what> <path>: <reason>").
    """
    try:
        text = Path(path).read_bytes().decode("utf-8-sig")
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    return [
        (lineno, line)
        for lineno, raw in enumerate(text.split("\n"), start=1)
        if (line := raw.strip()) and line[0] != "#"
    ]
