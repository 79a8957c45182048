#!/usr/bin/env python3
"""Mutation gate: every kept mutant of the source is killed by the tests named for it.

A catalogue entry is a name, a file, an exact text that occurs in that file exactly
once, the text that replaces it, and the pytest node ids that must fail once it is
replaced. First the node ids of every entry run on an unedited copy of the tree and
must pass, so a kill is never a test that fails anyway. Then, for each entry, the
tree is copied to a fresh temporary directory (without ``.git``, caches or a
Hypothesis database), the edit is applied there, and ``pytest -x -q`` runs the
entry's node ids against that copy's ``src``.

The exit code is 1 if an entry is stale (its text occurs in its file other than
exactly once), the unedited run fails, or a mutant survives (its tests pass, or
pytest cannot run them); otherwise 0. It takes no options:

    python scripts/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple, Sequence

ROOT = Path(__file__).resolve().parent.parent

# Seconds one pytest run may take; a mutant that hangs its tests is killed.
RUN_TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the root of the tree
    old: str
    new: str
    kills: tuple[str, ...]


FLAVOR_RULE = "tests/test_flavor_rule.py::test_the_flavor_picks_only_the_record_of_a_failure"
BOUND_CASES = "tests/test_untrusted_input.py::test_text_is_kept_whole_up_to_the_bound_in_the_bytes_the_log_writes"
BOUNDED_RECORDS = "tests/test_untrusted_input.py::test_every_record_is_bounded_for_any_tool_name_endpoint_and_document"
CONCURRENT = "tests/test_audit.py::test_concurrent_decisions_keep_every_audit_contract"
WRONG_TYPE = "tests/test_audit.py::test_a_record_member_of_the_wrong_type_is_refused_by_the_loader_the_cli_and_a_sink"
TLS_DEADLINE = (
    "tests/test_outbound_http.py::"
    "test_a_tcp_connect_that_spends_the_deadline_ends_the_exchange_before_its_tls_handshake"
)
JSON_READERS = "tests/test_untrusted_input.py::test_the_json_readers_read_each_text_as_json_loads_does"
ONE_SCAN = "tests/test_untrusted_input.py::test_a_line_that_is_one_value_is_read_in_one_scan_and_tested_for_nothing_else"
LINE_LOOP = "        for number, line in enumerate(handle):\n            try:\n"
EXACT_TYPES = "tests/test_sad.py::test_canonical_json_takes_exact_types_only_and_refuses_a_subclass_or_another_mapping"
ADMISSION = "tests/test_admission.py::"
CAMPAIGN = "tests/test_conformance.py::test_campaign_denies_everything_and_writes_nothing"
UNREGISTERED = "tests/test_gateway.py::test_invoke_unregistered_endpoint"
STUB = "tests/test_wellknown.py::"
EXPIRY = (
    "    if signer.not_after is not None and signer.not_after < now:\n"
    "        return Verdict.deny(\n"
    "            DenyReason.signer_expired,\n"
    '            f"signer {signer.key_id!r} expired at {signer.not_after.isoformat()}",\n'
    "        )\n"
)
SIGNATURE = (
    "    if (valid := verified.get(signer.public_key)) is None:\n"
    "        valid = verified[signer.public_key] = verify_signature(document, signer.public_key)\n"
    "    if not valid:\n"
    "        return Verdict.deny(\n"
    '            DenyReason.bad_signature, "signature does not verify over the canonical body"\n'
    "        )\n"
)
DOMINATION = (
    "    if not scheme.meets(document.clearance, required_level):\n"
    "        return Verdict.deny(\n"
    "            DenyReason.below_required,\n"
    '            f"clearance {document.clearance!r} is below required {required_level!r}",\n'
    "        )\n"
)
NOT_FLAT = "tests/test_audit.py::test_content_that_is_not_flat_raises_type_error_from_both_templates"
APPROVAL = (
    "    if not signer.approves(scheme, document.clearance):\n"
    "        return Verdict.deny(\n"
    "            DenyReason.signer_not_approved,\n"
    '            f"signer {signer.key_id!r} is not approved to assert {document.clearance!r}",\n'
    "        )\n"
)

MUTANTS = (
    # The flavor picks only the record: each entry point holds the rule.
    Mutant(
        "failure-events-swapped", "src/atsa/admission.py",
        "event = EVENT_CONNECT_DENY if flavor is Flavor.enclaved else EVENT_CONNECT_WARN",
        "event = EVENT_CONNECT_WARN if flavor is Flavor.enclaved else EVENT_CONNECT_DENY",
        (FLAVOR_RULE,),
    ),
    Mutant("invoke-dispatches-a-failed-gate", "src/atsa/gateway.py", "if not verdict.allowed:", "if False:", (FLAVOR_RULE,)),
    Mutant(
        "verify-status-words-swapped", "src/atsa/cli.py",
        'EVENT_CONNECT_DENY: "denied", EVENT_CONNECT_WARN: "warn"',
        'EVENT_CONNECT_DENY: "warn", EVENT_CONNECT_WARN: "denied"',
        (FLAVOR_RULE,),
    ),
    # Outside text is bounded in the bytes the log writes, and read back as the record holds it.
    Mutant(
        "bounded-counts-utf8-not-escapes", "src/atsa/audit.py",
        "    fits = len(text) * 6 <= MAX_TEXT_BYTES or (len(text) <= MAX_TEXT_BYTES and _logged_size(text) <= MAX_TEXT_BYTES)",
        '    fits = len(text.encode("utf-8", "backslashreplace")) <= MAX_TEXT_BYTES',
        (BOUND_CASES,),
    ),
    Mutant(
        "bounded-off-by-one", "src/atsa/audit.py",
        "and _logged_size(text) <= MAX_TEXT_BYTES)", "and _logged_size(text) < MAX_TEXT_BYTES)", (BOUND_CASES,),
    ),
    Mutant(
        "bounded-cut-counts-utf8-not-escapes", "src/atsa/audit.py",
        "key=lambda size: _logged_size(prefix[:size])", "key=lambda size: len(prefix[:size].encode())", (BOUND_CASES,),
    ),
    Mutant(
        "bounded-keeps-text-joined-on-read", "src/atsa/audit.py",
        "if fits and (text.isascii() or not _JOINED_ON_READ.search(text)):", "if fits:", (BOUNDED_RECORDS,),
    ),
    Mutant(
        "bounded-cut-keeps-surrogates", "src/atsa/audit.py",
        'prefix = data[:room].decode("utf-8", "ignore")', "prefix = text[:room]", (BOUNDED_RECORDS,),
    ),
    Mutant(
        "bounded-digest-of-the-prefix", "src/atsa/audit.py",
        "hashlib.sha256(data).hexdigest()", "hashlib.sha256(data[:MAX_TEXT_BYTES]).hexdigest()", (BOUND_CASES,),
    ),
    Mutant("bounded-prefix-past-its-room", "src/atsa/audit.py", "prefix[: end - 1]", "prefix[:end]", (BOUND_CASES,)),
    # Appends are one at a time, and an allow is durable before its action.
    Mutant(
        "append-without-its-mutex", "src/atsa/audit.py",
        "        with self._mutex:\n            if self._sink_failed:",
        "        if True:\n            if self._sink_failed:",
        (CONCURRENT,),
    ),
    Mutant(
        "sink-write-after-the-head-advances", "src/atsa/audit.py",
        "            if self._sink is not None:\n"
        "                self._sink_failed = True  # stays set if the write raises\n"
        "                self._sink.write(record)\n"
        "                self._sink_failed = False\n"
        "            self._records.append(record)\n"
        "            self._head = (seq + 1, digest)\n",
        "            self._records.append(record)\n"
        "            self._head = (seq + 1, digest)\n"
        "        if self._sink is not None:\n"
        "            self._sink_failed = True\n"
        "            self._sink.write(record)\n"
        "            self._sink_failed = False\n",
        (CONCURRENT,),
    ),
    Mutant(
        "allow-not-fsynced", "src/atsa/audit.py",
        "if record.event == EVENT_CONNECT_ALLOW or self._unsynced >= _MAX_UNSYNCED:",
        "if self._unsynced >= _MAX_UNSYNCED:",
        (CONCURRENT,),
    ),
    Mutant(
        "append-without-its-required-fields", "src/atsa/audit.py",
        "            if name not in payload:", "            if False:",
        ("tests/test_audit.py::test_an_incomplete_payload_is_refused_naming_every_missing_field_in_order",),
    ),
    Mutant(
        "sink-reads-by-path", "src/atsa/audit.py",
        "records = load_audit_jsonl(descriptor)", "records = load_audit_jsonl(self._handle.name)",
        ("tests/test_audit.py::test_a_sink_continues_the_file_it_locked_when_its_path_is_rotated_meanwhile",),
    ),
    # record_from_wire refuses each member of the wrong type.
    Mutant(
        "wire-seq-unchecked", "src/atsa/audit.py",
        "        if isinstance(seq, bool) or not isinstance(seq, int):", "        if False:",
        (WRONG_TYPE + "[string-seq]",),
    ),
    Mutant(
        "wire-fast-path-takes-a-bool-seq", "src/atsa/audit.py",
        "exact = type(seq) is int and", "exact = isinstance(seq, int) and", (WRONG_TYPE + "[bool-seq]",),
    ),
    Mutant(
        "wire-event-unchecked", "src/atsa/audit.py",
        "        if not isinstance(timestamp, str) or not isinstance(event, str):", "        if False:",
        (WRONG_TYPE + "[non-string-event]",),
    ),
    Mutant(
        "wire-payload-unchecked", "src/atsa/audit.py",
        "        if not isinstance(payload, dict):", "        if False:", (WRONG_TYPE + "[list-payload]",),
    ),
    Mutant(
        "wire-hash-length-unchecked", "src/atsa/audit.py",
        "        if len(prev_hash) != 32 or len(digest) != 32:", "        if False:",
        (WRONG_TYPE + "[31-byte-hash]",),
    ),
    # The record encoder and the sink's line template take flat content only, and append refuses any other.
    Mutant(
        "record-encoder-takes-a-str-subclass", "src/atsa/audit.py",
        "elif type(member) is str:", "elif isinstance(member, str):", (NOT_FLAT + "[str-subclass-value]",),
    ),
    Mutant(
        "line-template-writes-a-non-string-value", "src/atsa/audit.py",
        "type(timestamp) is not str", "not isinstance(timestamp, str)", (NOT_FLAT + "[str-subclass-timestamp]",),
    ),
    Mutant(
        "append-lets-a-non-flat-payload-through", "src/atsa/audit.py",
        'raise AuditError(f"event {event!r} payload is not flat: {exc}") from exc', "raise",
        ("tests/test_audit.py::test_append_refuses_a_payload_that_is_not_flat_and_writes_nothing",),
    ),
    # Canonical JSON takes exact types only, and sorts an array by its members' escaped bytes.
    Mutant(
        "canonical-accepts-subclasses", "src/atsa/sad.py", "if kind is str:", "if isinstance(value, str):",
        (EXACT_TYPES + "[str]",),
    ),
    Mutant(
        "canonical-keys-unchecked", "src/atsa/sad.py", "            if type(key) is not str:", "            if False:",
        (EXACT_TYPES + "[str-key]",),
    ),
    Mutant(
        "canonical-arrays-by-code-point", "src/atsa/sad.py",
        'texts.sort(key=lambda text: text.encode("utf-8", "backslashreplace"))', "texts.sort()",
        ("tests/test_untrusted_input.py::test_surrogates_are_written_and_sorted_as_their_escapes",),
    ),
    # Each denial reason is the verdict of its own clause, in the documented order.
    Mutant(
        "fetch-past-a-non-404", "src/atsa/admission.py", "if status != 404:", "if False:",
        (ADMISSION + "test_fetch_non_404_error_is_terminal",),
    ),
    Mutant(
        "manifest-of-another-version-read", "src/atsa/sad.py", "    if version != DOCUMENT_VERSION:", "    if False:",
        (ADMISSION + "test_reason_manifest_invalid",),
    ),
    Mutant(
        "capability-unchecked", "src/atsa/admission.py",
        "if MCP_SERVER_CAPABILITY not in document.capabilities:", "if False:",
        (ADMISSION + "test_reason_not_mcp_server",),
    ),
    Mutant(
        "unsigned-without-its-signature-test", "src/atsa/admission.py",
        "if document.signer_key_id is None or document.signature is None:", "if document.signer_key_id is None:",
        (ADMISSION + "test_reason_unsigned",),
    ),
    Mutant(
        "unknown-signer-takes-the-first-trusted", "src/atsa/trustroot.py",
        "return self._signers.get(key_id)", "return self._signers.get(key_id) or next(iter(self._signers.values()))",
        (ADMISSION + "test_reason_signer_not_trusted",),
    ),
    Mutant(
        "expiry-unchecked", "src/atsa/admission.py",
        "if signer.not_after is not None and signer.not_after < now:", "if False:",
        (ADMISSION + "test_reason_signer_expired",),
    ),
    Mutant(
        "expiry-excludes-not-after", "src/atsa/admission.py", "signer.not_after < now", "signer.not_after <= now",
        (ADMISSION + "test_a_signer_is_valid_through_its_not_after_inclusive[at-notAfter]",),
    ),
    Mutant(
        "approval-unchecked", "src/atsa/admission.py",
        "if not signer.approves(scheme, document.clearance):", "if False:",
        (ADMISSION + "test_reason_signer_not_approved",),
    ),
    Mutant(
        "signature-unchecked", "src/atsa/admission.py", "if not valid:", "if False:",
        (ADMISSION + "test_reason_bad_signature",),
    ),
    Mutant(
        "domination-unchecked", "src/atsa/admission.py",
        "if not scheme.meets(document.clearance, required_level):", "if False:",
        (ADMISSION + "test_reason_below_required",),
    ),
    Mutant(
        "host-binding-unchecked", "src/atsa/admission.py",
        "if origin not in {candidate.casefold() for candidate in hosts}:", "if False:",
        (ADMISSION + "test_reason_host_not_bound",),
    ),
    Mutant(
        "host-binding-case-sensitive", "src/atsa/admission.py",
        "{candidate.casefold() for candidate in hosts}", "set(hosts)",
        (ADMISSION + "test_host_binding_matches_case_insensitively",),
    ),
    Mutant(
        "memo-without-its-public-key", "src/atsa/admission.py",
        "if (valid := verified.get(signer.public_key)) is None:\n        valid = verified[signer.public_key] =",
        "if (valid := verified.get(None)) is None:\n        valid = verified[None] =",
        (ADMISSION + "test_the_signature_memo_is_per_public_key",),
    ),
    Mutant(
        "expiry-after-approval", "src/atsa/admission.py", EXPIRY + "\n" + APPROVAL, APPROVAL + "\n" + EXPIRY,
        (ADMISSION + "test_clause_order_first_failure_wins",),
    ),
    Mutant(
        "signature-after-domination", "src/atsa/admission.py",
        SIGNATURE + "\n" + DOMINATION, DOMINATION + "\n" + SIGNATURE,
        (ADMISSION + "test_clause_order_first_failure_wins",),
    ),
    Mutant(
        "memo-stores-the-expiry", "src/atsa/admission.py",
        "if signer.not_after is not None and signer.not_after < now:",
        'if verified.setdefault("expired", signer.not_after is not None and signer.not_after < now):',
        (ADMISSION + "test_memo_keeps_clock_and_config_clauses_live",),
    ),
    Mutant(
        "tool-allowlist-unchecked", "src/atsa/gateway.py", "or call.tool_name not in entry.allowed_tools:", "or False:",
        (CAMPAIGN,),
    ),
    Mutant(
        "tool-name-type-unchecked", "src/atsa/gateway.py", "named = type(call.tool_name) is str", "named = True",
        ("tests/test_untrusted_input.py::test_a_tool_name_that_is_not_exactly_a_str_is_denied_with_one_record",),
    ),
    Mutant(
        "registry-entry-types-unchecked", "src/atsa/gateway.py",
        "            if type(value := getattr(self, name)) is not str:\n"
        '                raise RegistryError(f"entry {name} must be a str, not {type(value).__name__}")\n',
        "            value = getattr(self, name)\n",
        ("tests/test_gateway.py::test_a_registry_entry_field_that_is_not_exactly_a_str_is_refused",),
    ),
    Mutant(
        "unregistered-endpoint-as-a-failed-fetch", "src/atsa/gateway.py",
        "return DispatchResult.denied(DenyReason.no_registered_bridge, detail)",
        "return DispatchResult.denied(DenyReason.fetch_failed, detail)",
        (UNREGISTERED,),
    ),
    # The chain, the poisoned log, the lock, and one record per decision.
    Mutant(
        "chain-seq-unchecked", "src/atsa/audit.py",
        "if seq != index or link != prev_hash:", "if link != prev_hash:",
        ("tests/test_audit.py::test_a_log_rechained_from_genesis_past_a_dropped_record_breaks_at_its_first_seq",),
    ),
    Mutant(
        "chain-prev-hash-unchecked", "src/atsa/audit.py",
        "if seq != index or link != prev_hash:", "if seq != index:",
        ("tests/test_audit.py::test_a_record_rehashed_after_its_payload_changed_breaks_the_link_to_the_next",),
    ),
    Mutant(
        "poisoned-log-appends", "src/atsa/audit.py", "            if self._sink_failed:", "            if False:",
        ("tests/test_audit.py::test_a_failed_fsync_refuses_later_appends_and_leaves_a_file_that_verifies",),
    ),
    Mutant(
        "sink-without-its-flock", "src/atsa/audit.py", "fcntl.flock(self._handle, fcntl.LOCK_EX)", "pass",
        ("tests/test_audit.py::test_eight_processes_resuming_one_file_extend_one_chain",),
    ),
    Mutant(
        "tool-deny-unrecorded", "src/atsa/gateway.py",
        "            self.audit.append(\n"
        "                EVENT_TOOL_DENY,\n"
        '                {"server": endpoint, "bridge": entry.bridge_id, "toolName": bounded(call.tool_name) if named else None,\n'
        '                 "reason": TOOL_DENY_DETAIL},\n'
        "            )\n",
        "",
        (CAMPAIGN,),
    ),
    Mutant(
        "skipped-preflight-unrecorded", "src/atsa/admission.py",
        "self.audit.append(EVENT_CONNECT_ALLOW, skipped)", "pass",
        (ADMISSION + "test_skip_preflight_skips_fetch_but_not_audit",),
    ),
    Mutant(
        "unregistered-endpoint-unrecorded", "src/atsa/gateway.py",
        "            self.audit.append(\n"
        '                EVENT_CONNECT_DENY, {"reason": DenyReason.no_registered_bridge.value, "detail": bounded(detail)}\n'
        "            )\n",
        "",
        (UNREGISTERED,),
    ),
    # A peer's reply is read within its limit and its deadline.
    Mutant(
        "read-to-close-without-its-limit", "src/atsa/_http.py",
        "            if len(body := self.take(limit + 1)) > limit:\n"
        '                raise ValueError(f"the body is over {limit} bytes")\n',
        "            body = self.take(limit + 1)\n",
        ("tests/test_outbound_http.py::test_a_body_read_to_close_is_refused_past_the_limit",),
    ),
    Mutant(
        "tls-handshake-without-the-deadline", "src/atsa/admission.py",
        "    try:\n        sock.settimeout(_left(deadline))\n    except TimeoutError:\n        sock.close()\n        raise\n",
        "",
        (TLS_DEADLINE,),
    ),
    Mutant(
        "tls-deadline-keeps-the-socket-open", "src/atsa/admission.py",
        "    except TimeoutError:\n        sock.close()\n        raise\n", "    except TimeoutError:\n        raise\n",
        (TLS_DEADLINE,),
    ),
    # The stub reads a request head by the field rules of a reply, and refuses what breaks them.
    Mutant(
        "head-field-limit-removed", "src/atsa/_http.py",
        "for _ in range(_MAX_FIELDS + 1):", "for _ in iter(int, 1):", (STUB + "test_a_head_over_its_limits_is_431",),
    ),
    Mutant(
        "refused-head-keeps-the-connection", "src/atsa/wellknown.py",
        """return 400, b'{"error": "malformed request"}', False""",
        """return 400, b'{"error": "malformed request"}', True""",
        (STUB + "test_a_malformed_field_line_or_content_length_is_400",),
    ),
    Mutant(
        "oversized-body-read", "src/atsa/wellknown.py",
        '            raise _Refused(413, "request body too large")\n',
        '            requests.take(length)\n            raise _Refused(413, "request body too large")\n',
        (STUB + "test_an_over_long_body_is_413_before_a_byte_of_it_is_sent",),
    ),
    Mutant(
        "content-length-digits-unchecked", "src/atsa/wellknown.py",
        "not (size := sizes.pop()).isdigit()", "not (size := sizes.pop())",
        (STUB + "test_a_malformed_field_line_or_content_length_is_400",),
    ),
    # Each command imports what it runs, so ``atsa serve`` loads no verifier.
    Mutant(
        "cli-imports-conformance-at-its-top", "src/atsa/cli.py",
        "from ._json import read_json\n", "from ._json import read_json\nfrom .conformance import build_vectors\n",
        ("tests/test_cli.py::test_each_command_loads_only_what_it_runs",),
    ),
    # A JSON text is read as json.loads reads it, a log line in one scan.
    Mutant(
        "json-end-unchecked", "src/atsa/_json.py",
        '        if end == len(text) or (end == len(text) - 1 and text[end] == "\\n"):', "        if True:",
        (JSON_READERS,),
    ),
    Mutant(
        "json-any-trailing-whitespace", "src/atsa/_json.py",
        '(end == len(text) - 1 and text[end] == "\\n")', "text[end:].isspace()", (JSON_READERS,),
    ),
    Mutant(
        "jsonl-blank-test-before-the-scan", "src/atsa/_json.py",
        LINE_LOOP, LINE_LOOP.replace("try:", "if not line.strip():\n                continue\n            try:"),
        (ONE_SCAN,),
    ),
    Mutant(
        "jsonl-fault-built-for-every-line", "src/atsa/_json.py",
        LINE_LOOP,
        LINE_LOOP.replace(
            "try:", 'fault = "not valid JSON" if line.endswith(b"\\n") else "torn final line (no newline)"\n            try:'
        ),
        (ONE_SCAN,),
    ),
)


def stale(root: Path) -> list[str]:
    """The names of the entries whose old text occurs in their file under ``root`` other than exactly once."""
    return [mutant.name for mutant in MUTANTS if (root / mutant.path).read_text(encoding="utf-8").count(mutant.old) != 1]


def _pytest(tree: Path, node_ids: Sequence[str]) -> int | None:
    """pytest's exit code for ``node_ids`` run on ``tree``'s sources; None if the run timed out."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *node_ids]
    try:
        return subprocess.run(
            command, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=RUN_TIMEOUT_S
        ).returncode
    except subprocess.TimeoutExpired:
        return None


def _run_on_copy(mutant: Mutant | None, node_ids: Sequence[str]) -> int | None:
    """``_pytest`` on a fresh copy of the tree, with ``mutant`` applied if one is given."""
    with tempfile.TemporaryDirectory(prefix="atsa-mutant-") as scratch:
        tree = Path(scratch) / "tree"
        ignored = shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache", ".benchmarks", "__pycache__", ".work")
        shutil.copytree(ROOT, tree, ignore=ignored)
        if mutant is not None:
            target = tree / mutant.path
            target.write_text(target.read_text(encoding="utf-8").replace(mutant.old, mutant.new), encoding="utf-8")
        return _pytest(tree, node_ids)


def main() -> int:
    if names := stale(ROOT):
        print(f"stale: {', '.join(names)}")
        return 1
    every = list(dict.fromkeys(node for mutant in MUTANTS for node in mutant.kills))
    if (code := _run_on_copy(None, every)) != 0:
        print(f"the unedited tree fails its own kill tests (pytest exit {code})")
        return 1
    survivors = []
    for mutant in MUTANTS:
        code = _run_on_copy(mutant, mutant.kills)
        # 1: a test failed. A timeout is a kill too; 0 or any other code is not.
        verdict = "killed" if code == 1 else "killed (timed out)" if code is None else f"SURVIVED (pytest exit {code})"
        print(f"{verdict}: {mutant.name}", flush=True)
        if code not in (1, None):
            survivors.append(mutant.name)
    print(f"{len(MUTANTS) - len(survivors)}/{len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
