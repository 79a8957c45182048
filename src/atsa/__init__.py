"""Attested tool-server admission for MCP hosts.

Servers publish signed clearance assertions at a well-known URI; hosts verify
them against a lockable trust root and a totally ordered classification
scheme before any connection, gate every tool call through a byte-exact
allowlist, and hash-chain every decision into an audit log.

Every name in a module's ``__all__`` is the package's too, but the module is
imported only when one of its names is first asked for (PEP 562), so each
``atsa`` command loads only what it runs. A star import loads every module.
"""

import importlib

_MODULES = ("admission", "audit", "conformance", "gateway", "lattice", "sad", "trustroot", "wellknown")

__version__ = "0.1.0"


def __getattr__(name: str):
    """A submodule, the first export called ``name``, or, for ``__all__``, every export."""
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    exports = []
    for module in (importlib.import_module(f"{__name__}.{module}") for module in _MODULES):
        if name in module.__all__:
            globals()[name] = value = getattr(module, name)
            return value
        exports += module.__all__
    if name == "__all__":  # a star import binds the submodules too
        return [*exports, *_MODULES]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
