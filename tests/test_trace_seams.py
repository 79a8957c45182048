"""The benchmark's tracer (``perfbench/tracer.py``) wraps named functions at
the attribute their caller looks them up from. Every traced layer must still
see a call, so a refactor that inlines one of those functions, or changes the
namespace it is read from, fails here instead of reporting zero for a layer."""

from __future__ import annotations

from pathlib import Path

from atsa import (
    AdmissionGate,
    AuditLog,
    DispatchStatus,
    Gateway,
    JsonlAuditSink,
    RegistryEntry,
    ServerRegistry,
    ToolCall,
)
from conftest import FIXED_NOW, SERVER_URL
from doubles import CountingTransport

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_layer_records_a_span(monkeypatch, tmp_path, scheme, trust_root, fetcher):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import LAYERS, NAME, Patch, Tracer

    sink = JsonlAuditSink(tmp_path / "audit.jsonl")
    audit = AuditLog(sink, clock=lambda: FIXED_NOW)
    gate = AdmissionGate(scheme=scheme, trust_root=trust_root, fetcher=fetcher, audit=audit)
    registry = ServerRegistry()
    registry.register(
        RegistryEntry(
            endpoint=SERVER_URL,
            bridge_id="bridge-1",
            required_clearance="restricted-plus",
            allowed_tools=frozenset({"list_labels"}),
            transport=CountingTransport(),
        )
    )
    registry.freeze()
    gateway = Gateway(registry, gate, audit)
    tracer = Tracer()
    try:
        # Entering the patch looks up every TARGETS entry and fails if one is gone.
        with Patch(tracer, gates=[gate]):
            allowed = gateway.invoke(SERVER_URL, ToolCall("list_labels"))
            denied = gateway.invoke(SERVER_URL, ToolCall("delete_everything"))
    finally:
        sink.close()
    assert allowed.status is DispatchStatus.ok
    assert denied.status is DispatchStatus.denied
    assert set(LAYERS) - {span[NAME] for span in tracer.spans} == set()
