"""A real multi-process networked runtime for TART deployments.

Everything else in this repository runs inside the single-process
discrete-event kernel; :mod:`repro.net` is the first layer that is not
simulation.  It runs a deployment as cooperating OS processes over
asyncio TCP while sharing — not forking — the virtual-time machinery:

* :mod:`repro.net.codec` — canonical length-prefixed binary wire format
  for every message type, reusing the deterministic encoder in
  :mod:`repro.runtime.checkpoint`;
* :mod:`repro.net.channel` — framed, reconnecting socket channels with
  sequence numbers, acknowledgements, and backpressure, mirroring the
  delivery guarantees of :mod:`repro.runtime.link`;
* :mod:`repro.net.clock` — the real-time clock adapter that pumps the
  unmodified :class:`~repro.sim.kernel.Simulator` against the wall
  clock, so the existing engine scheduling loop runs unchanged;
* :mod:`repro.net.topology` — the cluster spec shared by every process
  (each process derives identical wire ids from the same spec);
* :mod:`repro.net.node` / :mod:`repro.net.server` — the TCP transport
  and the process that builds its share of the
  :class:`~repro.runtime.app.Deployment` on it: an engine, or a follower
  whose stock detector and :class:`~repro.runtime.recovery.RecoveryManager`
  promote it in place;
* :mod:`repro.net.cluster` — the ``python -m repro.net.cluster`` CLI
  that launches an N-process cluster, kills the active engine
  mid-stream, and verifies the promoted replica replays to the
  identical output sequence.

See ``docs/net.md`` for the wire format and protocol state machines.
"""

from repro.net.codec import WIRE_VERSION, decode_message, encode_message
from repro.net.topology import ClusterSpec

__all__ = [
    "WIRE_VERSION",
    "encode_message",
    "decode_message",
    "ClusterSpec",
]
