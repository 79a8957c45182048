"""The three benchmark workloads and the checks they make on every output.

All three are closed loops with one client thread: the gateway is
synchronous and every agent waits for its reply. Each workload runs a
sequence of operations fixed by ``--seed`` and sized by ``--seconds``, so a
faster build does the same work in less time and ``peak_rss_mb`` stays
comparable between builds.

* ``inproc-mix``: 16 endpoints in process, no I/O. Admission CPU work only.
* ``loopback-durable``: the production wiring against a stub peer child
  process, with a JSONL audit sink that fsyncs every decision.
* ``campaign-audit``: ``generate_corpus`` plus ``run_campaign`` (the ``atsa
  fuzz`` path), then ``load_audit_jsonl`` plus ``verify_chain`` over the
  campaign's log (the ``atsa audit-verify`` path).

A run is cut into blocks: a slice of the invokes, or one small campaign.
Every block ends with VERIFY_PASSES timed ``load_audit_jsonl`` plus
``verify_chain`` passes over the workload's own log. Untraced invokes are
kept in the order they ran, so that ``run.py`` can take its figures from
the short stretches of the run when the host ran at full speed (see
``fastest_windows`` and ``fastest``).
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
import os
import random
import re
import statistics
from array import array
from dataclasses import dataclass, field
from datetime import datetime, timezone
from time import perf_counter_ns
from typing import Any, Callable, Sequence

from atsa import (
    WELL_KNOWN_PATHS,
    AdmissionGate,
    AttestationDocument,
    AuditError,
    AuditLog,
    DenyReason,
    DispatchResult,
    DispatchStatus,
    Flavor,
    Gateway,
    HttpFetcher,
    JsonlAuditSink,
    RegistryEntry,
    ServerRegistry,
    SignerRecord,
    ToolCall,
    TrustRoot,
    generate_corpus,
    get_builtin_scheme,
    keypair_from_seed,
    levels_up_to,
    load_audit_jsonl,
    load_registry_file,
    run_campaign,
    serialize_document,
    sign_document,
    verify_chain,
)
from atsa.audit import EVENT_CONNECT_ALLOW, EVENT_TOOL_DENY, record_to_wire
from atsa.cli import DEFAULT_FUZZ_ALLOWLIST
from atsa.conformance import KIND_TOOL, campaign_setup

from peers import DictFetcher, DictTransport, StubPeer
from tracer import Patch, Span, Tracer

SETUP_REPEATS = 5
BLOCKS = 100
ALLOWED_SHARE = 0.8
# Work per second of --seconds. On the 2-vCPU x86 host with Python 3.11
# where this benchmark was written, a run measures about --seconds at that
# commit while the host is slow and less while it is fast; a faster build
# does the same work in less time.
INPROC_OPS_PER_S = 2500
LOOPBACK_OPS_PER_S = 250
CAMPAIGNS_PER_S = 16
CAMPAIGN_PER_CATEGORY = 4
CONTROL_CALLS_PER_CAMPAIGN = 16
# Records in the log prefix that invoke blocks load and verify, and the
# timed passes over it (or over a campaign's log) after each block.
PREFIX_RECORDS = 100
VERIFY_PASSES = 5
# The mean length of a window of consecutive invokes; the share of a run's
# windows, verify passes or campaigns that its end-to-end figures are taken
# over; and the fewest invokes of one kind a latency figure is taken over.
WINDOW_NS = 8_000_000
BEST_SHARE = 0.05
MIN_SAMPLES = 500

SCHEME = get_builtin_scheme("default")
TOP_APPROVED = levels_up_to(SCHEME, "restricted-plus")
CLEARANCES = ("confidential", "restricted", "restricted-plus")
FAR_FUTURE = datetime(2100, 1, 1, tzinfo=timezone.utc)
CAMPAIGN_NOW = datetime(2026, 1, 1, tzinfo=timezone.utc)
TOKEN_ENV = "ATSA_BENCH_BEARER_TOKEN"

TOOL_NAMES = (
    "list_labels", "create_draft", "send_message", "search_messages", "read_file",
    "write_file", "list_directory", "move_file", "get_weather", "query_database",
    "run_report", "fetch_url", "create_issue", "close_issue", "list_commits",
    "open_pull_request", "translate_text", "summarize_document", "schedule_meeting",
    "list_calendars", "get_contact", "update_contact", "upload_blob", "download_blob",
    "resize_image", "transcribe_audio", "lookup_invoice", "refund_payment",
    "list_tickets", "assign_ticket", "deploy_service", "rollback_service",
)


@dataclass
class Op:
    endpoint: str
    call: ToolCall
    transport: Any
    expected: Any  # the configured result for an allowed call, None for a denied one
    key: int  # 2 * server index + 1 for an allowed call, + 0 for a denied one


class Samples:
    """Invoke latencies in the order they ran, each with its op's key."""

    def __init__(self) -> None:
        self.keys = array("H")
        self.ns = array("q")

    def add(self, key: int, ns: int) -> None:
        self.keys.append(key)
        self.ns.append(ns)

    def allowed_ns(self) -> list[int]:
        return [ns for key, ns in zip(self.keys, self.ns) if key & 1]


def fastest_windows(samples: Samples, allowed: bool) -> list[range]:
    """The fastest windows of consecutive invokes that hold at least
    MIN_SAMPLES allowed (or denied) invokes and at least BEST_SHARE of all
    windows.

    The hosts this runs on switch between full speed and about two thirds
    of it every few milliseconds, in proportions that drift from minute to
    minute. A window holds as many invokes as take WINDOW_NS on average in
    this run, so that it mostly falls in one state. A window is ranked by
    its ops' latencies over the run's median for the same endpoint and
    outcome, so that the mix of allowed and denied calls does not choose it.
    Where the latency of a kind depends less on that state than on the
    disk (a denied call's fsync), the sample floor takes in most windows.
    """
    by_key: dict[int, list[int]] = {}
    for key, ns in zip(samples.keys, samples.ns):
        by_key.setdefault(key, []).append(ns)
    median = {key: statistics.median(values) for key, values in by_key.items()}
    size = max(1, round(WINDOW_NS * len(samples.ns) / sum(samples.ns)))
    windows = [range(start, start + size) for start in range(0, len(samples.ns) - size + 1, size)]
    windows = windows or [range(len(samples.ns))]
    cost = {window: sum(samples.ns[i] / median[samples.keys[i]] for i in window) for window in windows}
    chosen, found = [], 0
    for window in sorted(windows, key=cost.__getitem__):
        if found >= MIN_SAMPLES and len(chosen) >= BEST_SHARE * len(windows):
            break
        chosen.append(window)
        found += sum(1 for i in window if samples.keys[i] & 1 == allowed)
    return chosen


def invokes_per_s(samples: Samples, allowed_windows: Sequence[range], denied_windows: Sequence[range]) -> tuple[float, int]:
    """Closed-loop invokes per second at the run's own mix of endpoints and
    outcomes, from each op kind's mean latency in its fastest windows."""
    in_windows: dict[int, list[int]] = {}
    for windows, allowed in ((allowed_windows, 1), (denied_windows, 0)):
        for window in windows:
            for i in window:
                if samples.keys[i] & 1 == allowed:
                    in_windows.setdefault(samples.keys[i], []).append(samples.ns[i])
    share = {key: samples.keys.count(key) / len(samples.keys) for key in in_windows}
    mean_ns = sum(share[key] * statistics.fmean(values) for key, values in in_windows.items()) / sum(share.values())
    return 1e9 / mean_ns, sum(len(values) for values in in_windows.values())


def fastest(passes: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """The BEST_SHARE (at least one) of ``(units, ns)`` passes with the
    fewest nanoseconds per unit."""
    return sorted(passes, key=lambda unit_ns: unit_ns[1] / unit_ns[0])[: max(1, math.ceil(BEST_SHARE * len(passes)))]


@dataclass
class Run:
    """Measurements and check results of one benchmark run."""

    tracer: Tracer | None
    setup_s: list[float] = field(default_factory=list)
    # Untraced invokes, and those of the traced blocks of a traced run.
    calls: Samples = field(default_factory=Samples)
    traced_calls: Samples = field(default_factory=Samples)
    # Untraced (records, ns) of load_audit_jsonl plus verify_chain, and
    # (cases, ns) of generate_corpus plus run_campaign.
    verify_passes: list[tuple[int, int]] = field(default_factory=list)
    campaigns: list[tuple[int, int]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(message)

    def invoke(self, gateway: Gateway, ops: Sequence[Op], samples: Samples, expected_events: list, traced: bool = False) -> None:
        """Run ops closed loop, timing each invoke and checking its outcome.

        Transport calls are counted through ``next_id``, which the gateway
        calls once per request, read before and after the timed call.
        """
        tracer = self.tracer if traced else None
        for op in ops:
            allowed = op.expected is not None
            before = op.transport.next_id()
            root = tracer.open("op.allowed" if allowed else "op.denied") if tracer else 0
            start = perf_counter_ns()
            try:
                result: Any = gateway.invoke(op.endpoint, op.call)
            except Exception as exc:  # counted as a failed op, never fatal
                result = exc
            elapsed = perf_counter_ns() - start
            if tracer:
                tracer.close(root, 1)
            sent = op.transport.next_id() - before - 1
            self.attempted += 1
            samples.add(op.key, elapsed)
            if allowed:
                expected_events.append((EVENT_CONNECT_ALLOW, None))
                good = (
                    isinstance(result, DispatchResult)
                    and result.status is DispatchStatus.ok
                    and result.payload == op.expected
                    and sent == 1
                )
            else:
                expected_events.append((EVENT_TOOL_DENY, op.call.tool_name))
                good = (
                    isinstance(result, DispatchResult)
                    and result.status is DispatchStatus.denied
                    and result.reason is DenyReason.tool_not_admitted
                    and sent == 0
                )
            if not good:
                self.fail(1, f"{op.call.tool_name!r} at {op.endpoint}: {result!r}, {sent} transport calls")

    def timed_verify(self, path: str, traced: bool) -> list[Any]:
        """Time VERIFY_PASSES of ``load_audit_jsonl`` plus ``verify_chain``
        over a log, check each time that the chain is intact, and return
        the records."""
        tracer = self.tracer if traced else None
        for _ in range(VERIFY_PASSES):
            with Patch(tracer) if tracer else contextlib.nullcontext():
                start = perf_counter_ns()
                with Span(tracer, "audit.load") as span:
                    records = load_audit_jsonl(path)
                    span.tag = len(records)
                with Span(tracer, "audit.verify_chain", len(records)):
                    first_bad = verify_chain(records)
                elapsed = perf_counter_ns() - start
            if not traced:
                self.verify_passes.append((len(records), elapsed))
            if first_bad is not None:
                self.fail(1, f"{path}: verify_chain reports record {first_bad}")
        return records

    def check_log(self, records: Sequence[Any], expected: Sequence[tuple[str, str | None]]) -> None:
        """One record per decision, in order, of the right kind."""
        if len(records) != len(expected):
            self.fail(abs(len(records) - len(expected)), f"{len(records)} audit records for {len(expected)} decisions")
        for record, (event, tool) in zip(records, expected):
            if record.event != event or (tool is not None and record.payload.get("toolName") != tool):
                self.fail(1, f"audit record {record.seq} is {record.event} {dict(record.payload)!r}, expected {event} {tool!r}")

    def run_blocks(self, fixture: "InvokeFixture", ops: Sequence[Op], prefix_path: str) -> None:
        """Run ops in BLOCKS equal blocks, each followed by timed verifies
        of the log's first PREFIX_RECORDS records (all of it while it is
        shorter). In a traced run every second block is traced."""
        size = -(-len(ops) // BLOCKS)
        prefix = 0
        for number, first in enumerate(range(0, len(ops), size)):
            traced = self.tracer is not None and number % 2 == 1
            samples = self.traced_calls if traced else self.calls
            with Patch(self.tracer, [fixture.gate]) if traced else contextlib.nullcontext():
                self.invoke(fixture.gateway, ops[first : first + size], samples, fixture.expected_events, traced)
            if prefix < PREFIX_RECORDS:
                records = fixture.audit.records[:PREFIX_RECORDS]
                write_wire_jsonl(records, prefix_path)
                prefix = len(records)
            self.timed_verify(prefix_path, traced)


def setup_repeated(run: Run, build: Callable[[], Any]) -> Any:
    """Build the fixture SETUP_REPEATS times, timing each, and keep the last.
    Earlier fixtures are closed at once."""
    fixture = None
    for _ in range(SETUP_REPEATS):
        if fixture is not None:
            fixture.close()
        start = perf_counter_ns()
        fixture = build()
        run.setup_s.append((perf_counter_ns() - start) / 1e9)
    return fixture


def write_wire_jsonl(records: Sequence[Any], path: str) -> None:
    """Write records as JsonlAuditSink does, without its per-line fsync."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record_to_wire(record), ensure_ascii=False, separators=(",", ":")) + "\n")


def signer(rng: random.Random, key_id: str, expires: bool = False) -> tuple[Any, SignerRecord]:
    key = keypair_from_seed(key_id, rng.randbytes(32))
    return key, SignerRecord(key_id, key.public_key, TOP_APPROVED, FAR_FUTURE if expires else None)


def evasion_names(run: Run, rng: random.Random, allowlist: Sequence[str], per_category: int) -> list[str]:
    with Span(run.tracer, "conformance.generate_corpus"):
        cases = generate_corpus(rng.randrange(2**31), allowlist, per_category)
    return [case.input for case in cases if case.kind == KIND_TOOL]


Server = tuple[str, Any, dict[str, Any], list[str]]  # endpoint, transport, results, evasions


def make_ops(rng: random.Random, count: int, servers: Sequence[Server], allowed_share: float = ALLOWED_SHARE) -> list[Op]:
    """``count`` ops over ``servers``: allowed calls with probability
    ``allowed_share``, otherwise an evasion name the endpoint's allowlist
    does not hold."""
    ops = []
    for _ in range(count):
        index = rng.randrange(len(servers))
        endpoint, transport, results, evasions = servers[index]
        arguments = {"limit": rng.randrange(1, 100)}
        if rng.random() < allowed_share:
            name = rng.choice(sorted(results))
            ops.append(Op(endpoint, ToolCall(name, arguments), transport, results[name], 2 * index + 1))
        else:
            ops.append(Op(endpoint, ToolCall(rng.choice(evasions), arguments), transport, None, 2 * index))
    return ops


def tool_results(server: int, allowlist: Sequence[str]) -> dict[str, Any]:
    return {
        name: {"server": server, "tool": name, "content": [{"type": "text", "text": f"{name} done"}]}
        for name in allowlist
    }


@dataclass
class InvokeFixture:
    gateway: Gateway
    gate: AdmissionGate
    audit: AuditLog
    servers: list[Server]
    expected_events: list[tuple[str, str | None]] = field(default_factory=list)
    close: Callable[[], None] = lambda: None

    def warm_up(self, run: Run) -> None:
        """One allowed and one denied call per endpoint, checked but not kept."""
        ops = []
        for index, (endpoint, transport, results, evasions) in enumerate(self.servers):
            name = sorted(results)[0]
            ops.append(Op(endpoint, ToolCall(name), transport, results[name], 2 * index + 1))
            ops.append(Op(endpoint, ToolCall(evasions[0]), transport, None, 2 * index))
        run.invoke(self.gateway, ops, Samples(), self.expected_events)


# --------------------------------------------------------------------------
# inproc-mix
# --------------------------------------------------------------------------

INPROC_ENDPOINTS = 16
INPROC_SIGNERS = 4


def build_inproc(run: Run, seed: int) -> InvokeFixture:
    rng = random.Random(f"inproc-mix-{seed}")
    keys, records = zip(*(signer(rng, f"bench-signer-{k}", expires=k % 2 == 1) for k in range(INPROC_SIGNERS)))
    trust_root = TrustRoot(records)
    trust_root.lock_trust_root()
    documents: dict[str, bytes] = {}
    registry = ServerRegistry()
    servers = []
    for index in range(INPROC_ENDPOINTS):
        host = f"svc{index}.tools.example"
        endpoint = f"https://{host}/mcp"
        clearance = rng.choice(CLEARANCES)
        required = rng.choice(levels_up_to(SCHEME, clearance))
        hosts = (f"mirror.{host}", host) if rng.random() < 0.5 else None
        document = sign_document(
            AttestationDocument(
                id=f"mcp.bench.svc{index}",
                publisher=f"bench-publisher-{index % 5}",
                version=f"1.{index}.{rng.randrange(10)}",
                clearance=clearance,
                capabilities=("mcp-server", "tools"),
                net_allowed_hosts=hosts,
            ),
            rng.choice(keys),
        )
        documents[f"https://{host}{WELL_KNOWN_PATHS[0]}"] = serialize_document(document).encode("utf-8")
        allowlist = rng.sample(TOOL_NAMES, rng.randint(2, 8))
        results = tool_results(index, allowlist)
        transport = DictTransport(results)
        registry.register(RegistryEntry(endpoint, f"bridge-{index}", required, frozenset(allowlist), transport))
        servers.append((endpoint, transport, results, evasion_names(run, rng, allowlist, 3)))
    registry.freeze()
    audit = AuditLog()
    gate = AdmissionGate(SCHEME, trust_root, DictFetcher(documents), audit)
    fixture = InvokeFixture(Gateway(registry, gate, audit, flavor=Flavor.enclaved), gate, audit, servers)
    fixture.warm_up(run)
    return fixture


def inproc_mix(run: Run, seed: int, seconds: int, workdir: str, src_dir: str) -> None:
    fixture = setup_repeated(run, lambda: build_inproc(run, seed))
    ops = make_ops(random.Random(f"inproc-mix-ops-{seed}"), seconds * INPROC_OPS_PER_S, fixture.servers)
    run.run_blocks(fixture, ops, os.path.join(workdir, "audit-prefix.jsonl"))
    records = fixture.audit.records
    first_bad = verify_chain(records)
    if first_bad is not None:
        run.fail(1, f"in-memory audit log breaks at record {first_bad}")
    run.check_log(records, fixture.expected_events)


# --------------------------------------------------------------------------
# loopback-durable
# --------------------------------------------------------------------------


def build_loopback(run: Run, seed: int, workdir: str, src_dir: str, audit_path: str) -> InvokeFixture:
    rng = random.Random(f"loopback-durable-{seed}")
    key, record = signer(rng, "bench-loopback-signer", expires=True)
    trust_root = TrustRoot([record])
    trust_root.lock_trust_root()
    document = sign_document(
        AttestationDocument(
            id="mcp.bench.loopback",
            publisher="bench-publisher",
            version="1.0.0",
            clearance="restricted-plus",
            capabilities=("mcp-server", "tools"),
            net_allowed_hosts=("127.0.0.1",),
        ),
        key,
    )
    allowlist = rng.sample(TOOL_NAMES, rng.randint(2, 8))
    results = tool_results(0, allowlist)
    with open(os.path.join(workdir, "loopback.sad.json"), "w", encoding="utf-8") as handle:
        handle.write(serialize_document(document))
    config_path = os.path.join(workdir, "loopback.stub.json")
    with open(config_path, "w", encoding="utf-8") as handle:
        json.dump({"sad": "loopback.sad.json", "tools": results, "host": "127.0.0.1", "port": 0}, handle)
    evasions = evasion_names(run, rng, allowlist, 3)
    os.environ[TOKEN_ENV] = rng.randbytes(16).hex()
    if os.path.exists(audit_path):
        os.remove(audit_path)

    with contextlib.ExitStack() as cleanup:
        peer = cleanup.enter_context(StubPeer(config_path, src_dir))
        endpoint = peer.url + "/mcp"
        registry_file = [
            {
                "endpoint": endpoint,
                "bridgeId": "loopback-bridge",
                "requiredClearance": rng.choice(CLEARANCES),
                "allowedTools": allowlist,
                "transport": {"url": endpoint, "bearerTokenEnv": TOKEN_ENV},
            }
        ]
        registry = ServerRegistry()
        for entry in load_registry_file(json.dumps(registry_file)):
            registry.register(entry)
        registry.freeze()
        sink = JsonlAuditSink(audit_path)
        cleanup.callback(sink.close)
        audit = AuditLog(sink)
        gate = AdmissionGate(SCHEME, trust_root, HttpFetcher(), audit)
        servers = [(endpoint, registry.get(endpoint).transport, results, evasions)]
        fixture = InvokeFixture(Gateway(registry, gate, audit, flavor=Flavor.enclaved), gate, audit, servers)
        fixture.warm_up(run)
        fixture.close = cleanup.pop_all().close
    return fixture


def loopback_durable(run: Run, seed: int, seconds: int, workdir: str, src_dir: str) -> None:
    audit_path = os.path.join(workdir, "loopback-audit.jsonl")
    fixture = setup_repeated(run, lambda: build_loopback(run, seed, workdir, src_dir, audit_path))
    try:
        ops = make_ops(random.Random(f"loopback-durable-ops-{seed}"), seconds * LOOPBACK_OPS_PER_S, fixture.servers)
        run.run_blocks(fixture, ops, os.path.join(workdir, "audit-prefix.jsonl"))
    finally:
        fixture.close()
    records = load_audit_jsonl(audit_path)
    first_bad = verify_chain(records)
    if first_bad is not None:
        run.fail(1, f"{audit_path}: verify_chain reports record {first_bad}")
    run.check_log(records, fixture.expected_events)


# --------------------------------------------------------------------------
# campaign-audit
# --------------------------------------------------------------------------

FUZZ_ALLOWLIST = tuple(name.strip() for name in DEFAULT_FUZZ_ALLOWLIST.split(","))


def build_control(run: Run, seed: int) -> InvokeFixture:
    """A gateway wired like the campaign's (enclaved, the locked campaign
    signers, the fuzz allowlist) that the benchmark can time call by call.
    It is the positive control: the allowlisted names must still pass."""
    fixture_setup = campaign_setup(seed)
    trust_root = TrustRoot(fixture_setup.signers)
    trust_root.lock_trust_root()
    document = sign_document(
        AttestationDocument(
            id="mcp.bench.campaign-control",
            publisher="bench-publisher",
            version="1.0.0",
            clearance=fixture_setup.required_level,
            capabilities=("mcp-server",),
        ),
        fixture_setup.high_key,
    )
    host = "control.tools.example"
    endpoint = f"https://{host}/mcp"
    results = tool_results(0, FUZZ_ALLOWLIST)
    transport = DictTransport(results)
    registry = ServerRegistry()
    registry.register(
        RegistryEntry(endpoint, "control-bridge", fixture_setup.required_level, frozenset(FUZZ_ALLOWLIST), transport)
    )
    registry.freeze()
    audit = AuditLog()
    fetcher = DictFetcher({f"https://{host}{WELL_KNOWN_PATHS[0]}": serialize_document(document).encode("utf-8")})
    gate = AdmissionGate(SCHEME, trust_root, fetcher, audit)
    warm_cases = generate_corpus(seed, FUZZ_ALLOWLIST, 2)
    run_campaign(warm_cases, seed=seed, allowlist=FUZZ_ALLOWLIST, audit=AuditLog(clock=lambda: CAMPAIGN_NOW))
    servers = [(endpoint, transport, results, [case.input for case in warm_cases if case.kind == KIND_TOOL])]
    fixture = InvokeFixture(Gateway(registry, gate, audit, flavor=Flavor.enclaved), gate, audit, servers)
    fixture.warm_up(run)
    return fixture


def flip_one_digit(path: str, copy_path: str, record: int, rng: random.Random) -> None:
    """Copy a JSONL log, changing one ASCII digit of one record's line to
    another digit. The copy stays valid UTF-8, and the change lands in the
    seq, timestamp, hash or payload of exactly that record."""
    with open(path, "rb") as handle:
        lines = handle.readlines()
    line = bytearray(lines[record])
    position = rng.choice([i for i, byte in enumerate(line) if 0x30 <= byte <= 0x39])
    line[position] = 0x30 + (line[position] - 0x30 + 1 + rng.randrange(9)) % 10
    lines[record] = bytes(line)
    with open(copy_path, "wb") as handle:
        handle.writelines(lines)


def tamper_canary(run: Run, path: str, records: int, rng: random.Random, workdir: str) -> None:
    """A copy of the log with one changed byte must be reported at exactly
    the changed record, by verify_chain or by load_audit_jsonl."""
    target = rng.randrange(records)
    copy_path = os.path.join(workdir, "campaign-tampered.jsonl")
    flip_one_digit(path, copy_path, target, rng)
    run.attempted += 1
    try:
        reported: Any = verify_chain(load_audit_jsonl(copy_path))
    except AuditError as exc:
        match = re.match(r"line (\d+):", str(exc))
        reported = int(match.group(1)) if match else str(exc)
    if reported != target:
        run.fail(1, f"tamper canary: byte changed in record {target}, reported {reported!r}")


def campaign_audit(run: Run, seed: int, seconds: int, workdir: str, src_dir: str) -> None:
    rng = random.Random(f"campaign-audit-{seed}")
    control = setup_repeated(run, lambda: build_control(run, seed))
    endpoint, transport, results, _ = control.servers[0]
    path = os.path.join(workdir, "campaign-audit.jsonl")
    for number in range(max(2, round(seconds * CAMPAIGNS_PER_S))):
        traced = run.tracer is not None and number % 2 == 1
        tracer = run.tracer if traced else None
        corpus_seed = rng.randrange(2**31)
        audit = AuditLog(clock=lambda: CAMPAIGN_NOW)
        gc.collect()  # so neither phase pays for the other's garbage
        with Patch(tracer, [control.gate]) if tracer else contextlib.nullcontext():
            start = perf_counter_ns()
            with Span(tracer, "op.campaign") as root:
                with Span(tracer, "conformance.generate_corpus"):
                    cases = generate_corpus(corpus_seed, FUZZ_ALLOWLIST, CAMPAIGN_PER_CATEGORY)
                with Span(tracer, "conformance.run_campaign"):
                    report = run_campaign(cases, seed=corpus_seed, allowlist=FUZZ_ALLOWLIST, audit=audit)
                root.tag = len(cases)
            elapsed = perf_counter_ns() - start
        if not traced:
            run.campaigns.append((len(cases), elapsed))
        run.attempted += len(cases)
        wrong = sum(category.total - category.denied for category in report.categories)
        if wrong or not report.passed:
            run.fail(
                max(wrong, 1),
                f"campaign seed {corpus_seed}: {len(report.mismatches)} mismatches, {report.network_writes} network writes",
            )

        write_wire_jsonl(audit.records, path)
        tool_names = [case.input for case in cases if case.kind == KIND_TOOL]
        run.check_log(run.timed_verify(path, traced), [(EVENT_TOOL_DENY, name) for name in tool_names])
        if number == 0:
            tamper_canary(run, path, len(tool_names), rng, workdir)

        ops = make_ops(rng, 2 * CONTROL_CALLS_PER_CAMPAIGN, [(endpoint, transport, results, tool_names)], 0.5)
        del cases, report, audit
        with Patch(tracer, [control.gate]) if tracer else contextlib.nullcontext():
            run.invoke(control.gateway, ops, run.traced_calls if traced else run.calls, control.expected_events, traced)
    run.check_log(control.audit.records, control.expected_events)


WORKLOADS: dict[str, Callable[[Run, int, int, str, str], None]] = {
    "inproc-mix": inproc_mix,
    "loopback-durable": loopback_durable,
    "campaign-audit": campaign_audit,
}
