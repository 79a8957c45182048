"""Spans and counters for the traced run (``--trace 1``).

Nothing in ``src/`` is changed. While a ``Patch`` is active, the public
functions in ``TARGETS`` are replaced, at the attribute their caller looks
up, by wrappers that record one span per call; leaving the ``Patch``
restores the originals. TCP connects and well-known GETs are counted, not
timed, and each count is charged to the innermost open span, so a connect
made inside a fetch is told apart from one made inside a transport call.

A span is ``[name, parent, root, start_ns, end_ns, child_ns, tag]``. Spans
stay in memory and are written out once, at the end of the run. A layer's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import http.client
import importlib
import statistics
from collections import Counter
from time import perf_counter_ns
from typing import Any, Callable, Iterable

NAME, PARENT, ROOT, START, END, CHILD, TAG = range(7)

# (module or class path, attribute, span name). A function is wrapped in the
# namespace its caller reads it from: admission looks up parse_document and
# verify_signature in its own globals, sad's verify_signature looks up
# canonical_body in sad, and audit's compute_record_hash looks up
# canonical_json_bytes in audit. The lattice and trust-root calls cost about
# 1 us, below the cost of a wrapper, so they stay inside admission.checks.
TARGETS = (
    ("atsa.gateway.Gateway", "invoke", "gateway.invoke"),
    ("atsa.admission.AdmissionGate", "connect", "admission.connect"),
    ("atsa.admission", "verify_server_clearance", "admission.checks"),
    ("atsa.conformance", "verify_server_clearance", "admission.checks"),
    ("atsa.admission", "fetch_attestation", "admission.fetch"),
    ("atsa.admission", "parse_document", "sad.parse"),
    ("atsa.admission", "verify_signature", "sad.verify_signature"),
    ("atsa.sad", "canonical_body", "sad.canonical_body"),
    ("atsa.gateway", "jsonrpc_tools_call", "gateway.transport"),
    ("atsa.audit.AuditLog", "append", "audit.append"),
    ("atsa.audit", "compute_record_hash", "audit.hash"),
    ("atsa.audit", "canonical_json_bytes", "audit.canonical"),
    ("atsa.audit.JsonlAuditSink", "write", "audit.sink"),
)

# Layers that run inside an op; each reports its self time and its share.
LAYERS = (
    "gateway.invoke",
    "admission.connect",
    "admission.checks",
    "admission.fetch",
    "sad.parse",
    "sad.verify_signature",
    "sad.canonical_body",
    "gateway.transport",
    "audit.append",
    "audit.hash",
    "audit.canonical",
    "audit.sink",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.stack: list[int] = []
        self.counts: Counter[tuple[str, str]] = Counter()

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        root = self.spans[parent][ROOT] if parent >= 0 else index
        self.spans.append([name, parent, root, perf_counter_ns(), 0, 0, None])
        self.stack.append(index)
        return index

    def close(self, index: int, tag: Any = None) -> None:
        end = perf_counter_ns()
        span = self.spans[index]
        span[END] = end
        span[TAG] = tag
        self.stack.pop()
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][CHILD] += end - span[START]

    def count(self, event: str) -> None:
        self.counts[(event, self.spans[self.stack[-1]][NAME] if self.stack else "")] += 1

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id\tparent\tname\tstart_ns\tend_ns\ttag\n")
            for index, span in enumerate(self.spans):
                handle.write(
                    f"{index}\t{span[PARENT]}\t{span[NAME]}\t{span[START]}\t{span[END]}\t{span[TAG]}\n"
                )


def _span_wrapper(tracer: Tracer, function: Callable[..., Any], name: str) -> Callable[..., Any]:
    tag_status = name == "gateway.invoke"

    def traced(*args: Any, **kwargs: Any) -> Any:
        index = tracer.open(name)
        try:
            result = function(*args, **kwargs)
        except BaseException:
            tracer.close(index, "error")
            raise
        tracer.close(index, result.status.value if tag_status else None)
        return result

    return traced


def _count_wrapper(tracer: Tracer, function: Callable[..., Any], event: str) -> Callable[..., Any]:
    def counted(*args: Any, **kwargs: Any) -> Any:
        tracer.count(event)
        return function(*args, **kwargs)

    return counted


def _resolve(path: str) -> Any:
    module_path, _, class_name = path.rpartition(".")
    if class_name[:1].isupper():
        return getattr(importlib.import_module(module_path), class_name)
    return importlib.import_module(path)


class Patch:
    """Installs the wrappers on enter and restores every original on exit.

    ``gates`` are the AdmissionGate objects whose ``fetcher`` is counted per
    call (one call is one well-known GET).
    """

    def __init__(self, tracer: Tracer, gates: Iterable[Any] = ()) -> None:
        self.tracer = tracer
        self.gates = tuple(gates)
        self._saved: list[tuple[Any, str, Any]] = []

    def _swap(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._saved.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def __enter__(self) -> "Patch":
        for path, attribute, name in TARGETS:
            owner = _resolve(path)
            self._swap(owner, attribute, _span_wrapper(self.tracer, getattr(owner, attribute), name))
        connect = http.client.HTTPConnection.connect
        self._swap(http.client.HTTPConnection, "connect", _count_wrapper(self.tracer, connect, "tcp.connect"))
        for gate in self.gates:
            self._swap(gate, "fetcher", _count_wrapper(self.tracer, gate.fetcher, "admission.get"))
        return self

    def __exit__(self, *exc: object) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)


class Span:
    """``with Span(tracer, name):`` around a call the benchmark makes itself.
    A ``None`` tracer records nothing."""

    def __init__(self, tracer: Tracer | None, name: str, tag: Any = None) -> None:
        self.tracer = tracer
        self.name = name
        self.tag = tag

    def __enter__(self) -> "Span":
        if self.tracer is not None:
            self.index = self.tracer.open(self.name)
        return self

    def __exit__(self, *exc: object) -> None:
        if self.tracer is not None:
            self.tracer.close(self.index, self.tag)


def _p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, int]]:
    """Per-layer figures, each with its sample count, from the spans of the
    traced blocks.

    An op is a root span named ``op.*`` whose tag is the number of unit ops
    it holds (one invoke, or the cases of one campaign). Self times and
    shares count only spans inside ops; ``audit.load`` and
    ``audit.verify_chain`` are root spans of their own, tagged with the
    number of records, and ``conformance.*`` spans are the benchmark's own
    calls into the conformance module.
    """
    spans = tracer.spans
    ops = 0
    op_ns = 0
    self_us: dict[str, list[float]] = {name: [] for name in LAYERS}
    calls: Counter[str] = Counter()
    tagged: Counter[tuple[str, Any]] = Counter()
    invoke_status: dict[int, str] = {}
    transport_under: Counter[str] = Counter()
    tool_case_us: list[float] = []
    forged_verify_us: list[float] = []
    whole: dict[str, list[tuple[int, int]]] = {"audit.load": [], "audit.verify_chain": []}
    conformance_s: dict[str, list[float]] = {
        "conformance.generate_corpus": [],
        "conformance.run_campaign": [],
    }

    for index, span in enumerate(spans):
        name = span[NAME]
        duration = span[END] - span[START]
        if name in conformance_s:
            conformance_s[name].append(duration / 1e9)
            continue
        if name in whole and span[PARENT] < 0:
            whole[name].append((duration, span[TAG]))
            continue
        root = spans[span[ROOT]]
        if not root[NAME].startswith("op."):
            continue
        if span[PARENT] < 0:
            ops += span[TAG]
            op_ns += duration
            continue
        calls[name] += 1
        tagged[(name, span[TAG])] += 1
        if name in self_us:
            self_us[name].append((duration - span[CHILD]) / 1e3)
        if name == "gateway.invoke":
            invoke_status[index] = span[TAG]
            if span[TAG] == "denied":
                tool_case_us.append(duration / 1e3)
        elif name == "gateway.transport":
            status = invoke_status.get(span[PARENT])
            transport_under["denied" if status == "denied" else "allowed"] += 1
        elif name == "admission.checks" and spans[span[PARENT]][NAME] == "conformance.run_campaign":
            forged_verify_us.append(duration / 1e3)

    counts = tracer.counts
    gets = sum(n for (event, _), n in counts.items() if event == "admission.get")
    connects = calls["admission.connect"]
    transports = calls["gateway.transport"]
    invokes = calls["gateway.invoke"]
    denied = tagged[("gateway.invoke", "denied")]
    metrics: dict[str, tuple[float, int]] = {}
    for name in LAYERS:
        key = "audit.sink.us_p50" if name == "audit.sink" else f"{name}.self_us_p50"
        metrics[key] = (_p50(self_us[name]), len(self_us[name]))
        metrics[f"{name}.share"] = (_ratio(sum(self_us[name]) * 1e3, op_ns), len(self_us[name]))
    for name in ("sad.parse", "sad.canonical_body", "sad.verify_signature"):
        metrics[f"{name}.calls_per_op"] = (_ratio(calls[name], ops), ops)
    metrics["admission.fetch.gets_per_connect"] = (_ratio(gets, connects), connects)
    metrics["admission.fetch.tcp_connects_per_get"] = (_ratio(counts[("tcp.connect", "admission.fetch")], gets), gets)
    metrics["admission.fetch.failed"] = (tagged[("admission.fetch", "error")], calls["admission.fetch"])
    metrics["gateway.transport.tcp_connects_per_call"] = (
        _ratio(counts[("tcp.connect", "gateway.transport")], transports),
        transports,
    )
    metrics["gateway.transport.errors"] = (tagged[("gateway.transport", "error")], transports)
    metrics["gateway.transport.calls_per_allowed"] = (_ratio(transport_under["allowed"], invokes - denied), invokes - denied)
    metrics["gateway.transport.calls_per_denied"] = (_ratio(transport_under["denied"], denied), denied)
    metrics["audit.records_per_op"] = (_ratio(calls["audit.append"], invokes), invokes)
    for name, samples in whole.items():
        records = sum(n for _, n in samples)
        metrics[f"{name}.us_per_record"] = (_ratio(sum(d for d, _ in samples) / 1e3, records), records)
    for name, seconds in conformance_s.items():
        metrics[f"{name}.s"] = (_p50(seconds), len(seconds))
    metrics["conformance.forged_verify.us_p50"] = (_p50(forged_verify_us), len(forged_verify_us))
    metrics["conformance.tool_case.us_p50"] = (_p50(tool_case_us), len(tool_case_us))
    return metrics
