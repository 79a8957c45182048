"""Test doubles for the injectable seams: a fetcher serving a fixed mapping
and an in-memory audit sink. Tests import them like ``reference_impl``."""

from __future__ import annotations

from typing import Mapping

from atsa import AuditRecord


class StaticFetcher:
    """Test fetcher serving a fixed URL-to-bytes mapping; everything else 404s.
    Requested URLs are recorded so tests can assert fetch counts."""

    def __init__(self, responses: Mapping[str, bytes]) -> None:
        self.responses = dict(responses)
        self.requests: list[str] = []

    def __call__(self, url: str) -> tuple[int, bytes]:
        self.requests.append(url)
        body = self.responses.get(url)
        if body is None:
            return 404, b""
        return 200, body


class RecordingSink:
    """In-memory audit sink."""

    def __init__(self) -> None:
        self.records: list[AuditRecord] = []

    def write(self, record: AuditRecord) -> None:
        self.records.append(record)
