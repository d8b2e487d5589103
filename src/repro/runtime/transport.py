"""Inter-node transport.

The :class:`Network` connects *nodes*: execution engines, external
ingresses, external consumers, and passive replicas.  Every node exposes
``node_id`` (str), ``alive`` (bool), and ``receive(item)``.

Delivery semantics:

* between two distinct nodes — through a lazily created
  :class:`~repro.runtime.link.ReliableChannel` with the link parameters
  configured for that pair (delay distribution, loss/duplication faults).
  A pair whose link cannot fault gets a *perfect* channel, one kernel
  event per frame and no protocol, until :meth:`Network.link_fault`
  hands its knobs out and the protocol takes over exactly;
* within one node (component to component on the same engine) — direct,
  after ``local_delay`` ticks (default 0);
* to a dead node — dropped: messages in transit to a failed engine are
  lost, exactly the paper's fail-stop model; TART's replay recovers
  them.

Control messages (probes, silence advances) may be given their own
fixed one-way delay via ``control_delay`` so experiments can charge the
paper's 20 µs curiosity-probe cost even between co-located components.

:class:`Transport` is the part of this that :mod:`repro.runtime` and
:mod:`repro.core` objects may use; :class:`Network` implements it in
simulation and :class:`repro.net.node.NetTransport` over TCP.
"""

from __future__ import annotations

import copy
from functools import partial
from typing import Any, Dict, Optional, Protocol, Tuple, runtime_checkable

from repro.core.message import CuriosityProbe, SilenceAdvance
from repro.errors import TransportError
from repro.runtime.link import LinkFault, ReliableChannel
from repro.sim.distributions import Constant, Distribution
from repro.sim.kernel import Simulator


class LinkParams:
    """Per-node-pair link configuration."""

    def __init__(self, delay: Optional[Distribution] = None,
                 loss_prob: float = 0.0, dup_prob: float = 0.0,
                 reorder_extra: Optional[Distribution] = None,
                 rto: Optional[int] = None,
                 serialize_ticks: int = 0):
        self.delay = delay if delay is not None else Constant(0)
        self.fault = LinkFault(loss_prob, dup_prob, reorder_extra)
        self.rto = rto
        self.serialize_ticks = int(serialize_ticks)


@runtime_checkable
class Transport(Protocol):
    """What a deployment's nodes may ask of the thing they send through.

    Link configuration, fault knobs and node lookup (``set_link``,
    ``link_fault``, ``node``, ``channels``) are simulation-only extras
    of :class:`Network`, not part of this.
    """

    sim: Simulator
    #: Whether an external ingress stamps with the clock of the engine it
    #: feeds.  Only then may the engine's scheduler bound future external
    #: arrivals by its local clock (the ``external`` in-wire flag);
    #: otherwise ingress silence travels as explicit
    #: :class:`~repro.core.message.SilenceAdvance` facts answered to
    #: curiosity probes — sound on any transport, and exactly the
    #: paper's pessimistic baseline.
    ingress_shares_clock: bool

    def send(self, src_id: str, dst_id: str, item: Any) -> None:
        """Deliver ``item`` to node ``dst_id`` unless it is dead."""

    def register(self, node) -> None:
        """Host ``node`` under its ``node_id``, replacing any previous
        holder (failover, and the new identity after a self-heal)."""

    def fail_node(self, node_id: str) -> None:
        """Discard channel state toward a node declared failed."""


class Network:
    """The simulated :class:`Transport`: routes items between nodes."""

    ingress_shares_clock = True

    def __init__(self, sim: Simulator, rng_registry,
                 default_link: Optional[LinkParams] = None,
                 local_delay: int = 0,
                 control_delay: int = 0):
        self.sim = sim
        self.rng_registry = rng_registry
        self.default_link = default_link or LinkParams()
        self.local_delay = int(local_delay)
        self.control_delay = int(control_delay)
        self._nodes: Dict[str, Any] = {}
        self._links: Dict[Tuple[str, str], LinkParams] = {}
        self._channels: Dict[Tuple[str, str], ReliableChannel] = {}

    # -- topology ----------------------------------------------------------
    def register(self, node) -> None:
        """Add or replace a node (failover replaces the dead engine)."""
        self._nodes[node.node_id] = node

    def node(self, node_id: str):
        """Look up a node by id."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise TransportError(f"unknown node {node_id!r}") from None

    def set_link(self, src_id: str, dst_id: str, params: LinkParams) -> None:
        """Configure the link used for src -> dst traffic."""
        self._links[(src_id, dst_id)] = params
        # A live channel keeps its construction-time parameters; drop it
        # so the next send rebuilds with the new ones.
        self._channels.pop((src_id, dst_id), None)

    def link_fault(self, src_id: str, dst_id: str) -> LinkFault:
        """The fault knobs of the (possibly lazily created) channel.

        The channel runs the reliability protocol from then on; a
        perfect one with frames in flight raises
        :class:`~repro.errors.TransportError` instead
        (:meth:`ReliableChannel.link_fault`).
        """
        return self._channel(src_id, dst_id).link_fault()

    # -- delivery ----------------------------------------------------------
    def send(self, src_id: str, dst_id: str, item: Any) -> None:
        """Send ``item`` from node to node."""
        control = isinstance(item, (CuriosityProbe, SilenceAdvance))
        if src_id == dst_id:
            self.sim.after(self.control_delay if control else self.local_delay,
                           partial(self._deliver, dst_id, item),
                           f"local:{dst_id}")
        elif control and self.control_delay:
            self.sim.after(self.control_delay,
                           partial(self._channel_send, src_id, dst_id, item),
                           f"ctl:{src_id}->{dst_id}")
        else:
            self._channel_send(src_id, dst_id, item)

    def _channel_send(self, src_id: str, dst_id: str, item: Any) -> None:
        self._channel(src_id, dst_id).send(item)

    def _channel(self, src_id: str, dst_id: str) -> ReliableChannel:
        key = (src_id, dst_id)
        channel = self._channels.get(key)
        if channel is None:
            params = self._links.get(key, self.default_link)
            # Each channel owns its fault knobs: an outage or impairment
            # on one pair must not reach every pair sharing the params.
            # Clean params hand in none, so the channel makes its own,
            # reachable only through link_fault(), and may start perfect.
            fault = params.fault
            rng = self.rng_registry.stream(f"link:{src_id}->{dst_id}")
            channel = ReliableChannel(
                self.sim, rng, f"{src_id}->{dst_id}",
                deliver=partial(self._deliver, dst_id),
                delay=params.delay,
                fault=None if fault.clean else copy.copy(fault),
                rto=params.rto,
                serialize_ticks=params.serialize_ticks,
            )
            self._channels[key] = channel
        return channel

    def _deliver(self, dst_id: str, item: Any) -> None:
        node = self._nodes.get(dst_id)
        if node is None or not node.alive:
            return  # fail-stop: traffic to a dead node is lost
        node.receive(item)

    # -- failure handling ---------------------------------------------------
    def fail_node(self, node_id: str) -> None:
        """Reset every channel touching a failed node (new epoch).

        In-flight and unacked frames of the old epoch are discarded —
        the volatile channel state died with the engine.
        """
        for (src, dst), channel in self._channels.items():
            if src == node_id or dst == node_id:
                channel.reset()

    def channels(self) -> Dict[Tuple[str, str], ReliableChannel]:
        """Live channels (diagnostic)."""
        return dict(self._channels)
