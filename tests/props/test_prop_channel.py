"""Property tests: both ends of every wire of a 2 x 1 cluster, sans I/O.

One hypothesis state machine runs the pure decisions of
:mod:`repro.net.channel` the way the live processes perform them: a
:class:`~repro.net.channel.ChannelState` per outbound channel (as
``OutboundChannel`` and ``NetTransport`` drive it), an
:class:`~repro.net.channel.InboundState` per process (as
``ProcessRuntime`` drives it), a :class:`~repro.net.channel.CrashProbe`
per ended connection it names, and a follower's stock
:class:`~repro.runtime.detector.HeartbeatDetector` on a simulated
clock.  The model plays the sockets, the listeners and the processes.

The cluster is the coordinator, ``e0`` and ``e1``, one follower each.
Nodes: ``c`` (coordinator), ``e0``/``e1`` (hosted by their primary, or
by the follower once promoted), ``r0``/``r1`` (the followers' replica
nodes, re-armed by every item from their engine) and each process's
``proc:<name>`` control node, which receives the promoted follower's
fence.  Items carry their *token* (enqueue order) in their source field.

Invariants:

* every stream is delivered exactly once and in order, across
  failovers: per receiving stream gap-free sequence numbers, per
  sending channel increasing tokens, no token twice, and no first
  transmission discarded as a duplicate;
* no item is accepted by a fenced incarnation;
* every enqueued item is delivered, still buffered, or was dropped at
  an epoch reset after its destination failed over or was declared
  failed — and once every fault heals and traffic flows again, every
  item is acked or its peer is dead (a stranded item is how a failover
  that never recovers looks from a channel);
* after a kill and a heal, exactly one process hosts each engine.

``test_model_finds_an_old_bug_put_back`` puts two bugs this protocol
once had back into the pure code and requires the model to fail on
each: without that, it has not shown that it can see this class of bug.
"""

import random
from collections import deque
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.core.message import SilenceAdvance
from repro.net import codec
from repro.net.channel import (
    CONTROL,
    DUPLICATE,
    HANG_UP,
    LOST,
    REFUSED,
    WELCOME,
    ChannelState,
    CrashProbe,
    InboundState,
    deposed,
)
from repro.net.topology import assign_addresses, pipeline_spec
from repro.runtime.detector import HeartbeatDetector
from repro.sim.kernel import Simulator

ENGINES = ("e0", "e1")
PROCESSES = ("coordinator", "engine-e0", "replica-e0", "engine-e1",
             "replica-e1")
PORTS = {process: ("127.0.0.1", 1 + n) for n, process in enumerate(PROCESSES)}
PROCESS_AT = {port: process for process, port in PORTS.items()}
#: (source node, destination node) of every data stream.
STREAMS = (("c", "e0"), ("e0", "c"), ("c", "e1"), ("e1", "c"),
           ("e0", "e1"), ("e1", "e0"), ("e0", "r0"), ("e1", "r1"),
           ("r0", "e0"), ("r1", "e1"))
#: Faults (kills, stalls, partitions, false declarations) per example:
#: few enough that the protocol gets the steps to react to them.
FAULTS = 3
#: Detector ticks: interval x miss limit is the timeout.
HEARTBEAT_INTERVAL, MISS_LIMIT = 10, 3


def cluster_spec():
    spec = pipeline_spec(engines=2, replicas=1)
    assign_addresses(spec, PORTS)
    for n, engine in enumerate(ENGINES):
        spec.addresses[f"r{n}"] = [PORTS[f"replica-{engine}"]]
    spec.addresses["c"] = [PORTS["coordinator"]]
    return spec


def engine_of(node):
    """The engine group a process name or node id belongs to."""
    return "e" + node[-1]


class Process:
    """One process: hosting table, receiver, senders, traffic sources."""

    def __init__(self, name):
        self.name = name
        self.peer = f"{name}:1"
        self.alive = True
        self.stalled = False
        self.inbound = InboundState()
        #: node -> [incarnation, alive]; NetTransport's hosting table.
        self.nodes = {}
        self._hosted = 0
        #: dst node -> its Link.
        self.links = {}
        #: node -> the peer its traffic last arrived from.
        self.hosts = {}

    def host(self, node):
        self._hosted += 1
        self.nodes[node] = [f"{self.peer}#{self._hosted}", True]

    def live_incarnation(self, node):
        entry = self.nodes.get(node)
        return entry[0] if entry is not None and entry[1] else None


class Link:
    """One outbound channel: its state and the connection it holds."""

    def __init__(self, owner, dst, addresses):
        self.owner = owner
        self.dst = dst
        self.state = ChannelState(dst, addresses, 0.02, 0.5,
                                  random.Random(0))
        #: (receiving process, stream key) while connected.
        self.conn = None
        #: (body, first transmission?) written, not yet read.
        self.wire = deque()
        #: Cumulative acks written, not yet read.
        self.acks = deque()
        #: Every token enqueued on this link -> its source incarnation.
        self.tokens = {}
        self.last_token = -1
        #: The window's frontier and epoch when last checked.
        self.frontier = self.epoch = 0

    def buffered(self):
        state = self.state
        bodies = list(state.window.unacked.values())
        return ({token_of_src(src) for src, _msg in state.pending}
                | {token_of_src(body["src"]) for body in bodies})


def token_of_src(src):
    return int(src.rsplit("|", 1)[1])


class ClusterMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.spec = cluster_spec()
        self.procs = {name: Process(name) for name in PROCESSES}
        for name, process in self.procs.items():
            process.host(f"proc:{name}")
        self.procs["coordinator"].host("c")
        for n, engine in enumerate(ENGINES):
            self.procs[f"engine-{engine}"].host(engine)
            self.procs[f"replica-{engine}"].host(f"r{n}")
        #: Incarnations killed, fenced or declared failed.
        self.failed = set()
        self.sim = Simulator()
        self.detectors = {}
        for engine in ENGINES:
            recovery = SimpleNamespace(
                in_progress=lambda engine_id: False,
                deployment=SimpleNamespace(engines={}),
                engine_failed=lambda engine_id, detection_delay: (
                    self.promote(engine_id)))
            detector = HeartbeatDetector(self.sim, recovery, engine,
                                         HEARTBEAT_INTERVAL, MISS_LIMIT)
            detector.watch()
            self.detectors[engine] = detector
        #: (follower process, engine) -> its crash probe in flight.
        self.probes = {}
        self.cuts = set()
        self.promoted = set()
        #: Groups that lost a process (one kill per group is survivable).
        self.killed = set()
        #: stream key -> seqs delivered on it, in order.
        self.delivered = {}
        self.delivered_tokens = set()
        self.excused = set()
        self.fenced = set()
        self.tokens = 0
        #: Faults injected so far (see FAULTS).
        self.faults = 0
        #: Engines declared failed whose follower is not hosting yet.
        self.rebuilding = set()

    # -- the model's transport -------------------------------------------
    def live_hosts(self, node):
        return [p for p in self.procs.values()
                if p.alive and p.live_incarnation(node) is not None]

    def blocked(self, a, b):
        """Whether bytes between processes ``a`` and ``b`` stall."""
        return a.stalled or b.stalled or frozenset((a.name, b.name)) in self.cuts

    def links(self):
        return [link for p in self.procs.values() if p.alive
                for link in p.links.values()]

    def link(self, process, dst):
        """``NetTransport.channel_to``: made on first use, redirected
        at once if traffic from ``dst`` was already seen."""
        link = process.links.get(dst)
        if link is None:
            link = process.links[dst] = Link(process, dst,
                                             self.spec.addresses[dst])
            host = process.hosts.get(dst)
            if host is not None:
                self.guard(link, link.state.redirect, host)
        return link

    def send(self, process, src, dst, msg=None):
        """``NetTransport.send``: local nodes directly, others by link."""
        if dst in process.nodes:
            return  # local: no wire (a dead local node drops it)
        token = self.tokens
        self.tokens += 1
        link = self.link(process, dst)
        link.state.pending.append(
            (f"{src}|{token}",
             msg or SilenceAdvance(wire_id=1, through_vt=token)))
        link.tokens[token] = process.live_incarnation(src)
        if link.conn is not None:
            self.burst(link)

    def burst(self, link):
        link.wire.extend((body, True) for body in link.state.take_burst())

    def guard(self, link, decide, *args, declared=False):
        """Perform one ChannelState decision that may drop the buffer:
        only a declared failure, or the failure of the incarnation the
        link had adopted, may drop anything."""
        before, adopted = link.buffered(), link.state.incarnation
        result = decide(*args)
        dropped = before - link.buffered() - self.delivered_tokens
        if dropped:
            assert declared or adopted in self.failed, (
                f"{link.owner.name} -> {link.dst} dropped {sorted(dropped)} "
                f"while {adopted} lives")
            self.excused |= dropped
        return result

    def end(self, link):
        """The connection ends at both sides (reset, EOF or hang-up)."""
        if link.conn is None:
            return
        receiver = self.procs[link.conn[0]]
        link.conn = None
        link.wire.clear()
        link.acks.clear()
        link.state.on_disconnect()
        self.connection_ended(receiver, link.owner.peer)

    def connection_ended(self, receiver, peer):
        """``ProcessRuntime._suspect``: probes for a follower."""
        if not receiver.alive or not receiver.name.startswith("replica"):
            return
        engine = engine_of(receiver.name)
        probing = {e for (name, e) in self.probes if name == receiver.name}
        for engine_id in CrashProbe.suspects(
                peer, {engine: receiver.hosts.get(engine)}, probing, False):
            self.probes[(receiver.name, engine_id)] = CrashProbe(
                self.spec, engine_id, 0)

    def note_source(self, process, src, peer):
        """``NetTransport.note_item_source``."""
        link = process.links.get(src)
        adopted = link.state.incarnation if link is not None else None
        if process.hosts.get(src) == peer and (
                link is None or (adopted or "").startswith(peer + "#")):
            return
        line = self.spec.succession_line(src) if src in ENGINES else ()
        if deposed(line, peer, process.hosts.get(src), adopted):
            return
        process.hosts[src] = peer
        if link is not None:
            pointed = ((adopted or "").startswith(peer + "#")
                       or link.state.expected_peer == peer)
            moved = self.guard(link, link.state.redirect, peer)
            assert moved or pointed, "a redirect with news was ignored"
            if moved:  # hang up (and end any backoff sleep)
                self.end(link)

    def dial(self, link):
        """One dial of the connect loop (after any backoff sleep)."""
        process = link.owner
        target = self.procs[PROCESS_AT[link.state.next_address()]]
        if target.alive and not self.blocked(process, target):
            answer, key = target.inbound.hello(
                codec.WIRE_VERSION, process.peer, link.dst,
                target.live_incarnation(link.dst))
            if answer is WELCOME:
                tail = self.guard(link, link.state.on_welcome, key[2])
                if tail is not None:
                    link.conn = (target.name, key)
                    link.wire.extend((body, False) for body in tail)
                    self.burst(link)
                    return
                self.connection_ended(target, process.peer)
        link.state.on_dial_failed()

    def deliver(self, link, count):
        """The receiver reads one frame of up to ``count`` items."""
        receiver = self.procs[link.conn[0]]
        key = link.conn[1]
        if not (count and link.wire):
            return
        for _ in range(count):
            if not link.wire:
                break
            body, first = link.wire.popleft()
            verdict = receiver.inbound.item(
                key, body["seq"], body["msg"]["k"],
                receiver.live_incarnation(link.dst))
            if verdict is HANG_UP:
                self.end(link)
                return
            if verdict is DUPLICATE:
                assert not first, (
                    f"{key} discarded the first transmission of seq "
                    f"{body['seq']} as a duplicate")
                continue
            assert key[2] not in self.fenced, f"fenced {key[2]} accepted"
            seqs = self.delivered.setdefault(key, [])
            assert body["seq"] == len(seqs), (key, seqs, body["seq"])
            seqs.append(body["seq"])
            token = token_of_src(body["src"])
            assert token not in self.delivered_tokens, token
            assert token > link.last_token, (link.dst, token, link.last_token)
            link.last_token = token
            self.delivered_tokens.add(token)
            if verdict is CONTROL:
                self.fence(receiver, codec.decode_message(body["msg"]))
            else:
                src = body["src"].rsplit("|", 1)[0]
                self.note_source(receiver, src, link.owner.peer)
                if link.dst in ("r0", "r1"):
                    self.detectors[engine_of(link.dst)].on_traffic()
            if link.conn is None:
                return  # the redirect hung up on this very link
        link.acks.append(receiver.inbound.ack_value(key))

    def fence(self, process, request):
        """The control node halts the engine (``node.halt()``)."""
        entry = process.nodes.get(request.engine_id)
        if entry is not None and entry[1]:
            entry[1] = False
            self.fenced.add(entry[0])
            self.failed.add(entry[0])

    def promote(self, engine):
        """``RecoveryManager.engine_failed`` on the follower: declare the
        engine failed and fence the primary; it hosts the engine once
        rebuilt (NOT_HERE until then)."""
        follower = self.procs[f"replica-{engine}"]
        if engine in self.promoted or not follower.alive:
            return
        self.promoted.add(engine)
        primary = self.procs[f"engine-{engine}"]
        self.failed.add(primary.nodes[engine][0])
        link = follower.links.get(engine)
        if link is not None:  # fail_node: epoch-reset the channel
            self.guard(link, link.state.reset, declared=True)
            self.end(link)
        self.rebuilding.add(engine)
        self.detectors[engine].stop()
        self.send(follower, f"proc:{follower.name}", f"proc:engine-{engine}",
                  codec.FenceRequest(engine))

    def probe_step(self, key):
        """One dial of a crash probe; its verdict once it has one."""
        follower = self.procs[key[0]]
        probe = self.probes[key]
        dial = probe.next_dial()
        if dial is not None:
            target = self.procs[PROCESS_AT[dial[0]]]
            if not target.alive:
                outcome = REFUSED
            elif self.blocked(follower, target):
                outcome = LOST
            else:  # answered; the handshake ends at once
                answer, _key = target.inbound.hello(
                    codec.WIRE_VERSION, follower.peer, key[1],
                    target.live_incarnation(key[1]))
                outcome = answer
                if answer is WELCOME:
                    self.connection_ended(target, follower.peer)
            probe.on_dial(outcome)
            if probe.next_dial() is not None:
                return
        del self.probes[key]
        if follower.alive and probe.confirms(False):
            self.detectors[key[1]].confirm_crash()

    def kill_process(self, process):
        process.alive = False
        self.killed.add(engine_of(process.name))
        self.failed |= {incarnation for incarnation, _alive
                        in process.nodes.values()}
        for link in self.links() + list(process.links.values()):
            if link.owner is process or (link.conn and
                                         link.conn[0] == process.name):
                self.end(link)
        for key in [key for key in self.probes if key[0] == process.name]:
            del self.probes[key]
        if process.name.startswith("replica"):
            self.detectors[engine_of(process.name)].stop()

    def heal_all(self):
        cut, self.cuts = self.cuts, set()
        for process in self.procs.values():
            process.stalled = False
        for link in self.links():
            if link.conn and frozenset((link.owner.name,
                                        link.conn[0])) in cut:
                self.end(link)  # the proxy kills stalled connections

    # -- rules -------------------------------------------------------------
    @rule(stream=st.sampled_from(STREAMS), n=st.integers(1, 3),
          which=st.integers(0, 1))
    def enqueue(self, stream, n, which):
        src, dst = stream
        hosts = [p for p in self.live_hosts(src) if not p.stalled]
        if hosts:
            for _ in range(n):
                self.send(hosts[which % len(hosts)], src, dst)

    def pick(self, data, links):
        return data.draw(st.sampled_from(sorted(
            links, key=lambda link: (link.owner.name, link.dst))))

    @precondition(lambda self: any(link.conn is None
                                   and not link.owner.stalled
                                   for link in self.links()))
    @rule(data=st.data())
    def dial_next(self, data):
        self.dial(self.pick(data, [link for link in self.links()
                                   if link.conn is None
                                   and not link.owner.stalled]))

    def flowing(self):
        return [link for link in self.links() if link.conn
                and not self.blocked(link.owner, self.procs[link.conn[0]])]

    @precondition(lambda self: any(link.wire for link in self.flowing()))
    @rule(data=st.data(), k=st.integers(1, 8))
    def deliver_items(self, data, k):
        self.deliver(self.pick(data, [link for link in self.flowing()
                                      if link.wire]), k)

    @precondition(lambda self: any(link.acks for link in self.flowing()))
    @rule(data=st.data())
    def ack(self, data):
        link = self.pick(data, [link for link in self.flowing()
                                if link.acks])
        assert link.state.on_ack(link.acks.popleft())

    @precondition(lambda self: self.flowing())
    @rule(data=st.data(), stale=st.booleans(), by=st.integers(1, 4))
    def bad_ack(self, data, stale, by):
        link = self.pick(data, self.flowing())
        window = link.state.window
        upto = window.frontier - by if stale else window.next_seq + by
        before = (dict(window.unacked), window.next_seq)
        assert not link.state.on_ack(upto)
        assert (dict(window.unacked), window.next_seq) == before

    def redial(self, link):
        """A channel that lost its connection dials again at once."""
        if not link.owner.stalled:
            self.dial(link)

    @precondition(lambda self: any(link.conn for link in self.links()))
    @rule(data=st.data())
    def drop(self, data):
        link = self.pick(data, [link for link in self.links() if link.conn])
        self.end(link)
        self.redial(link)

    def fault(self):
        self.faults += 1
        return True

    @rule(engine=st.sampled_from(ENGINES))
    def heartbeat(self, engine):
        """Each live host of ``engine`` beats to its follower's replica
        node; the beat goes out and arrives if the link lets it."""
        replica = f"r{engine[-1]}"
        for process in self.live_hosts(engine):
            if process.stalled:
                continue
            self.send(process, engine, replica)
            link = process.links.get(replica)
            if link is None:
                continue  # the follower: it beats for itself now
            if link.conn is None:
                self.dial(link)
            if link in self.flowing():
                self.deliver(link, len(link.wire))

    def declarable(self):
        """Engines with traffic flowing to them and no failover yet."""
        return sorted({link.dst for link in self.links()
                       if link.conn and link.dst in ENGINES}
                      - self.promoted - self.killed)

    @precondition(lambda self: self.faults < FAULTS and self.declarable())
    @rule(data=st.data())
    def reset(self, data):
        """A false positive: an engine is declared failed while traffic
        flows to it.  Its follower promotes and fences, and every channel
        toward it is epoch-reset (``fail_node``)."""
        engine = data.draw(st.sampled_from(self.declarable()))
        self.fault()
        self.promote(engine)
        for link in self.links():
            if link.dst == engine:
                self.guard(link, link.state.reset, declared=True)
                self.end(link)
                self.redial(link)

    @rule(process=st.sampled_from(PROCESSES[1:]), which=st.integers(0, 1))
    def redirect(self, process, which):
        """Traffic from a node arrives via one of its live hosts."""
        process = self.procs[process]
        node = ENGINES[which]
        hosts = self.live_hosts(node)
        if process.alive and hosts and process is not hosts[0]:
            self.note_source(process, node, hosts[-1].peer)

    @precondition(lambda self: self.faults < FAULTS)
    @rule(process=st.sampled_from(PROCESSES[1:]))
    def kill(self, process):
        process = self.procs[process]
        group = engine_of(process.name)
        if (not process.alive or group in self.killed
                or (process.name.startswith("replica")
                    and group in self.promoted)):
            return
        self.fault()
        self.kill_process(process)

    @precondition(lambda self: self.faults < FAULTS)
    @rule(engine=st.sampled_from(ENGINES))
    def stall(self, engine):
        """SIGSTOP the primary: it neither reads, writes nor answers."""
        self.procs[f"engine-{engine}"].stalled = self.fault()

    @precondition(lambda self: self.probes)
    @rule(data=st.data())
    def refuse(self, data):
        """One crash-probe dial: a dead candidate refuses."""
        self.probe_step(data.draw(st.sampled_from(sorted(self.probes))))

    @precondition(lambda self: self.faults < FAULTS)
    @rule(a=st.sampled_from(PROCESSES), b=st.sampled_from(PROCESSES))
    def partition(self, a, b):
        if a != b and self.fault():
            self.cuts.add(frozenset((a, b)))

    @precondition(lambda self: self.rebuilding)
    @rule(data=st.data())
    def rebuild(self, data):
        """A promotion completes: the follower hosts the engine."""
        engine = data.draw(st.sampled_from(sorted(self.rebuilding)))
        self.rebuilding.discard(engine)
        follower = self.procs[f"replica-{engine}"]
        if follower.alive:
            follower.host(engine)

    @rule()
    def heal(self):
        self.heal_all()

    @rule(ticks=st.integers(1, 5))
    def tick(self, ticks):
        self.sim.run(until=self.sim.now + ticks)

    # -- invariants ----------------------------------------------------------
    @invariant()
    def every_item_is_delivered_buffered_or_excused(self):
        for link in self.links():
            owed = link.tokens.keys() - link.buffered()
            assert owed <= self.delivered_tokens | self.excused, (
                link.owner.name, link.dst,
                sorted(owed - self.delivered_tokens - self.excused))

    @invariant()
    def the_frontier_only_moves_forward_within_an_epoch(self):
        for link in self.links():
            state = link.state
            if state.epoch_resets == link.epoch:
                assert state.window.frontier >= link.frontier
            link.epoch, link.frontier = (state.epoch_resets,
                                         state.window.frontier)

    @invariant()
    def the_receiver_lies_inside_the_window(self):
        """A connected receiver's next expected seq is one the sender
        has sent or had acked: a fresh transmission is never below it.
        (A stream whose incarnation is gone hangs up at its next item.)"""
        for link in self.links():
            if link.conn is not None and link.conn[1][2] == self.procs[
                    link.conn[0]].live_incarnation(link.dst):
                window = link.state.window
                assert window.frontier \
                    <= self.procs[link.conn[0]].inbound.ack_value(
                        link.conn[1]) <= window.next_seq

    def teardown(self):
        """Heal everything, let traffic flow until nothing changes, then
        judge the cluster at rest."""
        self.heal_all()
        for _round in range(10):
            before = self.snapshot()
            for engine in sorted(self.rebuilding):
                self.procs[f"replica-{engine}"].host(engine)
            self.rebuilding.clear()
            while self.probes:
                self.probe_step(min(self.probes))
            for src, dst in STREAMS:  # live nodes keep sending
                for process in self.live_hosts(src):
                    self.send(process, src, dst)
            for link in self.links():
                for _ in range(len(link.state.addresses)):
                    if link.conn is not None:
                        break
                    self.dial(link)
                while link.conn is not None and (link.wire or link.acks):
                    self.deliver(link, len(link.wire))
                    while link.conn is not None and link.acks:
                        assert link.state.on_ack(link.acks.popleft())
            # Less than a timeout: a live engine's traffic above re-armed
            # its detector; a dead one's deadline passes within two.
            self.sim.run(until=self.sim.now
                         + HEARTBEAT_INTERVAL * MISS_LIMIT - 1)
            self.every_item_is_delivered_buffered_or_excused()
            if self.snapshot() == before:
                break
        for engine in ENGINES:
            hosts = [p.name for p in self.live_hosts(engine)]
            assert len(hosts) == 1, (engine, hosts)
        for link in self.links():
            stranded = {token for token in link.buffered()
                        if link.tokens[token] not in self.failed}
            if self.live_hosts(link.dst):
                assert not stranded, (
                    f"{link.owner.name} -> {link.dst} stranded "
                    f"{sorted(stranded)}: adopted {link.state.incarnation}, "
                    f"pinned {link.state.expected_peer}")

    def snapshot(self):
        return (tuple(sorted(self.promoted)), len(self.fenced),
                tuple(link.conn is not None for link in self.links()),
                tuple(len(link.buffered()) for link in self.links()))


TestCluster = ClusterMachine.TestCase
TestCluster.settings = settings(max_examples=100, stateful_step_count=100,
                                deadline=None)


@pytest.mark.slow
def test_cluster_long_sweep():
    run_state_machine_as_test(ClusterMachine, settings=settings(
        max_examples=1000, stateful_step_count=200, deadline=None))


def first_sighting_is_a_move(self, host_peer_id):
    """A past bug: a first sighting resets the epoch, dropping the
    queued buffer (in the live instance, a promoted engine's replay
    request)."""
    if self.incarnation is not None:
        if self.incarnation.startswith(host_peer_id + "#"):
            return False
    elif self.expected_peer == host_peer_id:
        return False
    self.expected_peer = host_peer_id
    self._new_epoch()
    self.connected = False
    self.redial_left = len(self.addresses)
    return True


def new_epoch_keeps_the_incarnation(self):
    """A past bug: the new epoch forgets, but does not retire, the
    incarnation it had adopted, so sequence numbers restart toward a
    receiver that holds the old dedup state."""
    self.incarnation = None
    self.pending.clear()
    self.window.reset()
    self.epoch_resets += 1


@pytest.mark.parametrize("name, bug", [
    ("redirect", first_sighting_is_a_move),
    ("_new_epoch", new_epoch_keeps_the_incarnation),
])
def test_model_finds_an_old_bug_put_back(monkeypatch, name, bug):
    """Derandomized, so the search is the same on every run; long
    examples leave room for a failover to follow the traffic it needs.
    The first bug falls within a few examples, the second within a few
    hundred."""
    monkeypatch.setattr(ChannelState, name, bug)
    with pytest.raises(AssertionError):
        run_state_machine_as_test(ClusterMachine, settings=settings(
            max_examples=2000, stateful_step_count=200, deadline=None,
            derandomize=True, database=None, phases=[Phase.generate],
            suppress_health_check=list(HealthCheck)))
