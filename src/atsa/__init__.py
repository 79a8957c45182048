"""Attested tool-server admission for MCP hosts.

Servers publish signed clearance assertions at a well-known URI; hosts verify
them against a lockable trust root and a totally ordered classification
scheme before any connection, gate every tool call through a byte-exact
allowlist, and hash-chain every decision into an audit log.
"""

from .admission import *
from .audit import *
from .conformance import *
from .gateway import *
from .lattice import *
from .sad import *
from .trustroot import *
from .wellknown import *

__version__ = "0.1.0"
