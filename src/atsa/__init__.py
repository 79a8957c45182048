"""Attested tool-server admission for MCP hosts.

Servers publish signed clearance assertions at a well-known URI; hosts verify
them against a lockable trust root and a totally ordered classification
scheme before any connection, gate every tool call through a byte-exact
allowlist, and hash-chain every decision into an audit log.
"""

from .admission import (
    OPEN_FLAVOR_NOTE,
    WELL_KNOWN_PATHS,
    AdmissionGate,
    ConnectResult,
    ConnectStatus,
    DenyReason,
    FetchError,
    Flavor,
    HttpFetcher,
    Verdict,
    fetch_attestation,
    host_of,
    verify_server_clearance,
)
from .audit import (
    EVENT_CONNECT_ALLOW,
    EVENT_CONNECT_DENY,
    EVENT_CONNECT_WARN,
    EVENT_TOOL_DENY,
    AuditError,
    AuditLog,
    AuditRecord,
    JsonlAuditSink,
    load_audit_jsonl,
    verify_chain,
)
from .conformance import (
    FORGERY_CATEGORIES,
    TOOL_CATEGORIES,
    CampaignReport,
    ConformanceVector,
    CorpusCase,
    CountingTransport,
    VectorReport,
    build_vectors,
    dump_corpus_jsonl,
    generate_corpus,
    load_corpus_jsonl,
    run_campaign,
    run_vectors,
)
from .gateway import (
    DispatchResult,
    DispatchStatus,
    Gateway,
    HttpTransport,
    JsonRpcError,
    RegistryEntry,
    RegistryError,
    RegistryFrozenError,
    ServerRegistry,
    ToolCall,
    TransportError,
    jsonrpc_tools_call,
    load_registry_file,
)
from .lattice import (
    BUILTIN_SCHEME_NAMES,
    ClassificationLevel,
    ClassificationScheme,
    LevelNotFoundError,
    SchemeError,
    builtin_schemes,
    get_builtin_scheme,
    levels_up_to,
    load_scheme,
    serialize_scheme,
)
from .sad import (
    AttestationDocument,
    DocumentError,
    KeyPair,
    UnsupportedVersionError,
    canonical_body,
    canonical_json_bytes,
    generate_keypair,
    keypair_from_seed,
    parse_document,
    serialize_document,
    sign_document,
    verify_signature,
)
from .trustroot import (
    SignerRecord,
    TrustRoot,
    TrustRootError,
    TrustRootLockedError,
    dev_bundle,
    load_trust_root_file,
    serialize_trust_root,
)
from .wellknown import StubServer, StubServerConfig, serve

__version__ = "0.1.0"
