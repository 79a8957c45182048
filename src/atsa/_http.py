"""HTTP/1.1 head framing: ``admission.exchange`` reads a peer's reply with ``_Reply.read``,
and the stub each request head with ``_Reply.line`` and ``_Reply.fields``, under the same
limits. Standard library only, so the stub loads neither ``ssl`` nor the verifier."""

from __future__ import annotations

import time

# Discovery order: the generic path first, the legacy path on 404.
WELL_KNOWN_PATHS = ("/.well-known/mcp-attestation", "/.well-known/enclawed-clearance.json")

_MAX_LINE_BYTES, _MAX_FIELDS = 65536, 100  # the longest head line, the most fields in a head


def _left(deadline: float) -> float:
    """Seconds left before an exchange's ``deadline``; a TimeoutError once none are."""
    if (left := deadline - time.monotonic()) > 0:
        return left
    raise TimeoutError("timed out")  # the words a socket timeout gives


class _TooLarge(ValueError):
    """A head line or field count over its limit, which a server answers with 431."""


class _Reply:
    """A reply on ``sock``, read by the rules of ``exchange`` until its ``deadline``; bytes
    after it stay in ``buffer``. The stub reads a request head with ``line`` and ``fields``."""

    def __init__(self, sock, deadline: float) -> None:
        self.sock, self.deadline = sock, deadline
        self.buffer = bytearray(self.recv())

    def recv(self) -> bytes:
        self.sock.settimeout(_left(self.deadline))
        return self.sock.recv(65536)

    def line(self) -> bytes:
        while (end := self.buffer.find(b"\n", 0, _MAX_LINE_BYTES)) < 0:
            if len(self.buffer) >= _MAX_LINE_BYTES:
                raise _TooLarge(f"a head line is over {_MAX_LINE_BYTES} bytes")
            if not (chunk := self.recv()):
                raise ValueError("a head line is cut short")
            self.buffer += chunk
        line, self.buffer[: end + 1] = bytes(self.buffer[:end]), b""
        return line.removesuffix(b"\r")

    def take(self, size: int, framing: str = "") -> bytes:
        """``size`` bytes; with no ``framing``, as many as come before EOF."""
        while len(self.buffer) < size and (chunk := self.recv()):
            self.buffer += chunk
        if framing and len(self.buffer) < size:
            raise ValueError(f"the reply ended {size - len(self.buffer)} bytes short of its {framing}")
        body, self.buffer[:size] = bytes(self.buffer[:size]), b""
        return body

    def fields(self) -> dict[bytes, bytes]:
        """Fields up to the blank line by lowercased name, a repeated name's values joined by commas."""
        fields: dict[bytes, bytes] = {}
        for _ in range(_MAX_FIELDS + 1):
            if not (line := self.line()):
                return fields
            name, colon, value = line.partition(b":")
            if not colon or not name or name.strip() != name:  # an obs-fold line starts with a space
                raise ValueError(f"obs-fold or a malformed header line: {line[:64]!r}")
            name, value = name.lower(), value.strip()
            fields[name] = fields[name] + b", " + value if name in fields else value
        raise _TooLarge(f"more than {_MAX_FIELDS} header fields")

    def read(self, limit: int) -> tuple[int, bytes, bool]:
        version, _, rest = self.line().partition(b" ")
        if version not in (b"HTTP/1.1", b"HTTP/1.0") or not rest[:3].isdigit() or rest[3:4] not in (b"", b" "):
            raise ValueError(f"bad status line {version + b' ' + rest[:64]!r}")
        if (status := int(rest[:3])) < 200:
            raise ValueError(f"status {status}: an interim reply is refused")
        fields = self.fields()
        if status == 204 or not 200 <= status < 300:
            return status, b"", False
        length, coding = fields.get(b"content-length"), fields.get(b"transfer-encoding")
        keep = version == b"HTTP/1.1" and b"close" not in fields.get(b"connection", b"").lower()
        if coding is not None:
            if coding.lower() != b"chunked":
                raise ValueError(f"transfer coding {coding!r} is refused")
            return status, self.chunked(limit), keep and length is None and not self.buffer
        if length is None:
            if len(body := self.take(limit + 1)) > limit:
                raise ValueError(f"the body is over {limit} bytes")
            return status, body, False
        sizes = {size.strip() for size in length.split(b",")}
        if len(sizes) > 1 or not (size := sizes.pop()).isdigit() or int(size) > limit:
            raise ValueError(f"Content-Length {length!r} is not one length of at most {limit} bytes")
        return status, self.take(int(size), "Content-Length"), keep and not self.buffer

    def chunked(self, limit: int) -> bytes:
        chunks, total = [], 0
        while True:
            digits = self.line().partition(b";")[0].rstrip(b" \t")
            if not digits or digits.strip(b"0123456789abcdefABCDEF") or (total := total + int(digits, 16)) > limit:
                raise ValueError(f"chunk size {digits[:64]!r} is not hex, or the body is over {limit} bytes")
            if not (size := int(digits, 16)):
                self.fields()  # the trailer section, read and dropped
                return b"".join(chunks)
            chunks.append(self.take(size, "chunk"))
            if self.take(2, "chunk") != b"\r\n":
                raise ValueError("a chunk is not followed by CRLF")
