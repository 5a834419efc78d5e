"""The provenance service daemon: live sessions behind a wire protocol.

The paper's pipeline — evaluate once, answer many provenance requests —
is the shape of a long-lived server, and this package is that server.
It turns the three session-era subsystems
(:class:`~repro.core.session.ProvenanceSession` warm caches,
:mod:`repro.core.parallel` batch sharding, :mod:`repro.core.incremental`
view maintenance) into one serving stack:

* :mod:`repro.service.registry` — live sessions keyed by a
  ``(program, database)`` content digest, LRU-evicted under a session
  count cap and a byte budget;
* :mod:`repro.service.protocol` — the newline-delimited JSON wire
  format (requests ``why`` / ``decide`` / ``smallest`` / ``minimal`` /
  ``batch`` / ``update`` / ``stats`` and friends);
* :mod:`repro.service.server` — the dispatcher plus the stdio
  transport and the one TCP front-end, a thread per connection
  (``python -m repro serve``);
* :mod:`repro.service.shard` — the multi-process tier
  (``python -m repro serve --workers N``): a router behind the same TCP
  front-end, sending sessions to supervised worker processes by
  consistent-hashed content digest, byte-identical to the
  single-process daemon;
* :mod:`repro.service.client` — the synchronous client
  (``python -m repro client``) and the :func:`local_service` /
  :func:`local_sharded_service` fixtures.

See ``docs/SERVICE.md`` for the protocol reference and a worked
walkthrough.
"""

from .client import (
    ServiceClient,
    local_service,
    local_sharded_service,
    parse_address,
)
from .protocol import OPS, PROTOCOL_VERSION, ServiceError
from .registry import SessionEntry, SessionRegistry, content_digest, routing_digest
from .server import ProvenanceService, TCPServiceServer, serve_stdio
from .shard import HashRing, ShardRouter, WorkerSupervisor, worker_slots

__all__ = [
    "OPS",
    "PROTOCOL_VERSION",
    "HashRing",
    "ProvenanceService",
    "ServiceClient",
    "ServiceError",
    "SessionEntry",
    "SessionRegistry",
    "ShardRouter",
    "TCPServiceServer",
    "WorkerSupervisor",
    "content_digest",
    "local_service",
    "local_sharded_service",
    "parse_address",
    "routing_digest",
    "serve_stdio",
    "worker_slots",
]
