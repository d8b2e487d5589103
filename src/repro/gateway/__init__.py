"""Public ingress gateway: the cluster's front door.

``repro.gateway`` is the first subsystem where backpressure, overload,
and recovery interact.  A :class:`~repro.gateway.server.GatewayServer`
accepts thousands of concurrent external TCP clients speaking the
length-prefixed gateway frames of :mod:`repro.net.codec` (tags 8–12),
defends itself with per-client token buckets and a global admission
controller (:mod:`repro.gateway.admission`), stamps each admitted
payload with virtual time via the stable
:class:`~repro.runtime.external.ExternalIngress` contract, and forwards
it into the cluster over the existing exactly-once channels — so an
engine failover is invisible to connected clients.

``python -m repro.gateway.cluster`` runs the end-to-end acceptance
harness: an open-loop client fleet, steady or a synchronized overload
burst, checked against the replay oracle.  See ``docs/gateway.md``.
"""

from repro.gateway.admission import AdmissionController, TokenBucket
from repro.gateway.server import GatewayConfig, GatewayServer

__all__ = [
    "AdmissionController",
    "GatewayConfig",
    "GatewayServer",
    "TokenBucket",
]
