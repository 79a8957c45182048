"""The one reader of JSON text from outside the program. Bytes are decoded as UTF-8
only (RFC 8259, section 8.1), never sniffed for UTF-16 or UTF-32, and text nested
past the recursion limit fails like any other malformed text, as the caller's error.
A text is read with ``json.loads``' semantics, its values and its errors, in one scan
when it is one JSON value alone or before one final newline, as each record of a log is."""

from __future__ import annotations

import json
import os
from typing import Any, Iterator

# json.loads' defaults; its own decode adds two whitespace matches to the scan.
_DECODER = json.JSONDecoder()


def _decode(text: str) -> Any:
    """``json.loads(text)``: one ``raw_decode`` scan if it ends the text or its one
    final newline; any other text, a failing one included, goes to ``json.loads``."""
    try:
        value, end = _DECODER.raw_decode(text)
        if end == len(text) or (end == len(text) - 1 and text[end] == "\n"):
            return value
    except (ValueError, RecursionError):
        pass
    return json.loads(text)


def read_json(text: bytes | str, error: type[Exception], prefix: str) -> Any:
    """The value of one JSON text. Any failure raises ``error(f"{prefix}: {reason}")``."""
    try:
        return _decode(text if isinstance(text, str) else str(text, "utf-8"))
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise error(f"{prefix}: {exc}") from exc


def read_jsonl(source: str | os.PathLike[str] | int, error: type[Exception]) -> Iterator[tuple[int, Any]]:
    """``(line number, value)`` for each line that is not blank of ``source``, a path or an open descriptor
    (read from its offset, left open), counting from 0. A line that is not one JSON text, a bad byte included,
    raises ``error``, which tells a torn last line, one that a crash cut before its newline, from a bad one."""
    with open(source, "rb", closefd=not isinstance(source, int)) as handle:
        for number, line in enumerate(handle):
            try:
                value = _decode(str(line, "utf-8"))
            except (ValueError, RecursionError) as exc:
                if not line.strip():  # a blank line never parses, so it is skipped only here
                    continue
                fault = "not valid JSON" if line.endswith(b"\n") else "torn final line (no newline)"
                raise error(f"line {number}: {fault}: {exc}") from exc
            yield number, value
