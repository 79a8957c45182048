"""The fetcher, transport and stub peer the benchmark injects into atsa.

The two in-process doubles are built on the public protocols alone: a
fetcher is a callable ``url -> (status, body)``, and a transport offers
``next_id``, ``request`` and ``bearer_provider``. They do not use the test
doubles that ship inside ``atsa``, so the benchmark keeps working when those
move out of the package.
"""

from __future__ import annotations

import itertools
import os
import select
import signal
import subprocess
import sys
import time
from typing import Any, Mapping


class DictFetcher:
    """Serves fixed document bytes by URL; every other URL is a 404."""

    def __init__(self, documents: Mapping[str, bytes]) -> None:
        self.documents = dict(documents)

    def __call__(self, url: str) -> tuple[int, bytes]:
        body = self.documents.get(url)
        if body is None:
            return 404, b""
        return 200, body


class DictTransport:
    """Answers ``tools/call`` from a name -> result map, in process.

    Unknown tools get a JSON-RPC error, the same as the loopback stub. The
    benchmark counts calls through ``next_id``, which the gateway calls once
    per request, so the check is the same for this and ``HttpTransport``.
    """

    def __init__(self, results: Mapping[str, Any]) -> None:
        self.results = dict(results)
        self.bearer_provider = None
        self._ids = itertools.count(1)

    def next_id(self) -> int:
        return next(self._ids)

    def request(self, payload: Mapping[str, Any], headers: Mapping[str, str]) -> Any:
        name = payload["params"]["name"]
        if name in self.results:
            return {"jsonrpc": "2.0", "id": payload["id"], "result": self.results[name]}
        return {
            "jsonrpc": "2.0",
            "id": payload["id"],
            "error": {"code": -32602, "message": f"unknown tool: {name!r}"},
        }


def _die_with_parent() -> None:
    """Ask Linux to SIGTERM the child when the benchmark dies, even by SIGKILL."""
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGTERM)  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):
        pass


class StubPeer:
    """``python -m atsa.cli serve CONFIG`` as a child process on 127.0.0.1:0.

    The constructor returns once the child has printed its bound URL. ``close``
    stops the child and waits for it; callers use ``with`` so that every exit
    path, failures included, ends the child.
    """

    def __init__(self, config_path: str, src_dir: str, timeout: float = 30.0) -> None:
        env = dict(os.environ, PYTHONPATH=src_dir, PYTHONUNBUFFERED="1")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "atsa.cli", "serve", config_path],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
            preexec_fn=_die_with_parent,
        )
        try:
            self.url = self._read_url(timeout)
        except BaseException:
            self.close()
            raise

    def _read_url(self, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        stdout = self.process.stdout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError("stub peer did not report its URL in time")
            ready, _, _ = select.select([stdout], [], [], remaining)
            if ready:
                line = stdout.readline().decode("utf-8", "replace").strip()
                if line.startswith("serving at http://127.0.0.1:"):
                    return line.split("serving at ", 1)[1]
                if not line and self.process.poll() is not None:
                    raise RuntimeError(f"stub peer exited with code {self.process.returncode}")

    def close(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()

    def __enter__(self) -> "StubPeer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
