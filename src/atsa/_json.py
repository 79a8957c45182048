"""The one reader of JSON text from outside the program. Bytes are decoded as UTF-8
only (RFC 8259, section 8.1), never sniffed for UTF-16 or UTF-32, and text nested
past the recursion limit fails like any other malformed text, as the caller's error."""

from __future__ import annotations

import json
import os
from typing import Any, Iterator


def read_json(text: bytes | str, error: type[Exception], prefix: str) -> Any:
    """The value of one JSON text. Any failure raises ``error(f"{prefix}: {reason}")``."""
    try:
        return json.loads(text if isinstance(text, str) else str(text, "utf-8"))
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise error(f"{prefix}: {exc}") from exc


def read_jsonl(source: str | os.PathLike[str] | int, error: type[Exception]) -> Iterator[tuple[int, Any]]:
    """``(line number, value)`` for each line that is not blank of ``source``, a path or an open descriptor
    (read from its offset, left open), counting from 0. A line that is not one JSON text, a bad byte included,
    raises ``error``, which tells a torn last line, one that a crash cut before its newline, from a bad one."""
    with open(source, "rb", closefd=not isinstance(source, int)) as handle:
        for number, line in enumerate(handle):
            if line.strip():
                fault = "not valid JSON" if line.endswith(b"\n") else "torn final line (no newline)"
                yield number, read_json(line, error, f"line {number}: {fault}")
