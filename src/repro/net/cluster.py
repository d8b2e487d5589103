"""Cluster coordinator: launch, kill, and verify a real networked run.

``python -m repro.net.cluster`` is the end-to-end acceptance harness for
the networked runtime.  It:

1. computes the ground truth by running the cluster spec purely in
   simulation (:func:`~repro.net.topology.reference_run` — same seeds,
   same wire tables, so the simulator predicts the exact output stream);
2. spawns one OS process per engine and per replica (``python -m
   repro.net.server``), hosts the ingresses and consumers itself, and
   releases everything through the GO barrier with a shared clock epoch;
3. optionally SIGKILLs the active engine mid-stream (``--kill-active``)
   once a fraction of the expected outputs have arrived; the replica
   process confirms the crash from the refused socket (the heartbeat
   timeout only backs that up), promotes from the shipped checkpoint
   chain, and replays over the sockets;
4. waits for the consumers to reach the reference output counts and
   judges the run with :func:`repro.chaos.invariants.check_invariants`
   — byte-identical ``(seq, vt, payload)`` streams, exactly-once
   delivery, convergence on the expected host, and non-victim groups
   delivering through the failover window — or a nonzero exit.

Steps 2-4 are one :class:`ClusterHarness` lifecycle, which the
gateway-fed runs of :mod:`repro.gateway.cluster` and the chaos runs of
:mod:`repro.chaos.runner` go through as well; :func:`run_networked`
adds only the kill trigger and the completion test.

The coordinator is itself a cluster member: it reuses
:class:`~repro.net.server.ProcessRuntime` for its server half and pumps
its own simulator, which hosts the Poisson producers — workload arrivals
happen at exact simulated ticks drawn from the deployment's seeded RNG
streams, so ingress timestamps match the pure-sim reference byte for
byte.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Awaitable, Callable, Dict, List, Optional, Tuple

import repro
from repro.errors import TransportError, WiringError
from repro.net import codec
from repro.net.channel import OutboundChannel, all_flushed
from repro.net.node import host_deployment
from repro.net.server import ProcessRuntime
from repro.net.topology import (
    ClusterSpec,
    assign_addresses,
    component_placement,
    pipeline_spec,
    plan_cluster_nodes,
    reference_run,
    streams_of,
)

#: Seconds each child gets to bind its socket and print READY, and
#: then to answer its control channel's HELLO and acknowledge GO.
READY_TIMEOUT_S = 20.0


class ChildProcess:
    """One spawned server process with a READY-watching stdout reader.

    The child binds an OS-assigned port and prints ``READY <port>``;
    ``port`` is that number (None until then, and for a READY line
    that carries none).
    """

    def __init__(self, name: str, cmd: List[str], env: Dict[str, str]):
        self.name = name
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=None, env=env,
            text=True, bufsize=1,
        )
        self.port: Optional[int] = None
        #: The READY line, once printed.
        self.ready_line: Optional[str] = None
        #: Set at READY and at stdout EOF, so a READY waiter wakes as
        #: soon as the child is either up or gone.
        self._ready_or_gone = threading.Event()
        #: Parsed AUDIT report printed at clean shutdown (None if the
        #: child crashed or ran without audit/cadence enabled).
        self.audit: Optional[Dict] = None
        #: Parsed DETECTOR line printed at clean shutdown: detections by
        #: cause (None if the child crashed or follows no engine).
        self.detector: Optional[Dict[str, int]] = None
        self._reader = threading.Thread(
            target=self._pump_stdout, name=f"stdout:{name}", daemon=True
        )
        self._reader.start()

    def _pump_stdout(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            line = line.rstrip("\n")
            if line.split(" ", 1)[0] == "READY":
                self.ready_line = line
                _, _, port = line.partition(" ")
                if port.isdigit():
                    self.port = int(port)
                self._ready_or_gone.set()
            elif line.startswith(("AUDIT ", "DETECTOR ")):
                kind, _, doc = line.partition(" ")
                try:
                    setattr(self, kind.lower(), json.loads(doc))
                except ValueError:
                    print(f"[{self.name}] unparseable {line!r}",
                          file=sys.stderr, flush=True)
            elif line:
                print(f"[{self.name}] {line}", file=sys.stderr, flush=True)
        self.proc.wait()
        self._ready_or_gone.set()

    def wait_ready(self) -> None:
        """Block until READY; raise once the child exits or times out,
        or if its READY line carries no port."""
        self._ready_or_gone.wait(READY_TIMEOUT_S)
        if self.port is None:
            rc = self.proc.poll()
            raise RuntimeError(
                f"child {self.name} printed {self.ready_line!r}, "
                f"not 'READY <port>'" if self.ready_line is not None else
                f"child {self.name} exited with rc={rc} before READY"
                if rc is not None else
                f"child {self.name} not READY within {READY_TIMEOUT_S}s"
            )

    def kill(self) -> None:
        self.proc.kill()

    def stop(self) -> None:
        """SIGSTOP: freeze the process (heartbeats stop, sockets stay)."""
        import signal

        self.proc.send_signal(signal.SIGSTOP)

    def cont(self) -> None:
        """SIGCONT: thaw a stopped process (it resumes, stale)."""
        import signal

        self.proc.send_signal(signal.SIGCONT)

    def reap(self, timeout: float = 5.0) -> Optional[int]:
        try:
            return self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.terminate()
            try:
                return self.proc.wait(timeout=2.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                return self.proc.wait()
        finally:
            # Let the reader drain the final stdout lines (the AUDIT
            # report races process exit otherwise).
            self._reader.join(timeout=2.0)


def with_addresses(spec: ClusterSpec) -> ClusterSpec:
    """``spec`` itself: every listener binds its own port and the
    address table rides GO (see :class:`ClusterHarness`)."""
    return spec


def child_command(spec_path: Path, name: str) -> List[str]:
    """The argv that hosts process ``name`` of the spec at ``spec_path``."""
    return [sys.executable, "-m", "repro.net.server",
            "--spec", str(spec_path), "--name", name]


def spawn_children(spec: ClusterSpec, spec_path: Path
                   ) -> Dict[str, ChildProcess]:
    """Spawn every non-coordinator process; all of them or none."""
    src_root = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (str(src_root) if not existing
                         else str(src_root) + os.pathsep + existing)
    children: Dict[str, ChildProcess] = {}
    try:
        for name in plan_cluster_nodes(spec):
            if name != "coordinator":
                children[name] = ChildProcess(
                    name, child_command(spec_path, name), env)
    except BaseException:
        for child in children.values():
            child.kill()
            child.reap()
        raise
    return children


class ClusterHarness:
    """One live cluster's lifecycle, however it is driven.

    Constructing the harness copies ``spec`` (its ``addresses`` left
    empty), builds the coordinator's in-process share (``runtime``, and
    ``deployment``: every ingress and consumer, with the spec's
    producers attached) and opens nothing.  ``async with`` enters with
    the cluster running and leaves with it shut down, reaped, and the
    common diagnostics in ``result``.  Bring-up:

    1. the coordinator binds an OS-assigned port; each child, spawned
       on the address-free spec file, binds its own and reports it on
       its ``READY <port>`` line (the READY barrier);
    2. the coordinator builds the one address table
       (:func:`~repro.net.topology.assign_addresses`) from those ports —
       or, for the processes a chaos driver fronts, from the proxy
       fronts it binds now — and installs it in ``spec``;
    3. every child's control channel is welcomed (the WELCOME barrier),
       then GO carries the epoch ``t0`` and the table to every child
       and is acknowledged; the pump starts.

    Nothing picks a port before it is bound.  A bring-up that fails
    part-way releases what it had opened and re-raises.

    Every wait ends on the event it stands for, bounded by a timeout
    that already exists: READY lines, WELCOMEs and acks, pump steps,
    process exits.  ``result["lifecycle"]`` reports how long they took
    (``ready_s``, ``go_rtt_ms``, ``shutdown_s``), how many children
    acknowledged GO only after ``t0`` (``go_late``), and the errors met
    on the way out (``events``: ``{phase, type, message}``).

    The body is the driver.  It starts whatever offers load (seeded
    producers are already running; a gateway and its clients are the
    body's own), then awaits :meth:`poll` with the two things only it
    knows: when the kill is due and when the run is done.  An
    ``Exception`` escaping the body is reported as ``result["error"]``,
    not raised.

    ``chaos`` is an optional :class:`~repro.chaos.runner.ChaosDriver`:
    ``attach(children)`` after spawning, ``await front(ports)`` for the
    dial address of every process once the children are READY,
    ``on_go(t0)`` with the epoch, ``close()`` on the way out.
    """

    def __init__(self, spec: ClusterSpec, chaos=None,
                 deadline_s: float = 60.0):
        self.spec = spec = ClusterSpec.from_json(spec.to_json())
        spec.addresses = {}
        self.chaos = chaos
        self.deadline_s = deadline_s
        self.started = time.monotonic()
        self.runtime = ProcessRuntime("coordinator", spec)
        self.deployment = host_deployment("coordinator",
                                          self.runtime.transport)
        self.result: Dict = {
            "killed": None, "complete": False, "error": None,
            "lifecycle": {"ready_s": None, "go_rtt_ms": None,
                          "go_late": None, "shutdown_s": None,
                          "events": []},
        }
        self.children: Dict[str, ChildProcess] = {}
        self.t0 = 0.0
        self._spec_path: Optional[Path] = None
        self._pump: Optional[asyncio.Task] = None
        self._deadline = 0.0

    async def __aenter__(self) -> "ClusterHarness":
        try:
            await self._bring_up()
        except BaseException:
            await self._shut_down()
            raise
        return self

    async def _bring_up(self) -> None:
        runtime, spec, chaos = self.runtime, self.spec, self.chaos
        lifecycle = self.result["lifecycle"]
        started = time.monotonic()
        ports = {"coordinator": await runtime.listen()}
        with tempfile.NamedTemporaryFile(
            "w", suffix=".json", prefix="cluster-spec-", delete=False
        ) as spec_file:
            self._spec_path = Path(spec_file.name)
            spec_file.write(spec.to_json())
        self.children = spawn_children(spec, self._spec_path)
        if chaos is not None:
            chaos.attach(self.children)
        loop = asyncio.get_running_loop()
        await asyncio.gather(*(loop.run_in_executor(None, child.wait_ready)
                               for child in self.children.values()))
        lifecycle["ready_s"] = round(time.monotonic() - started, 3)
        ports.update((name, ("127.0.0.1", child.port))
                     for name, child in self.children.items())
        if chaos is not None:
            ports = await chaos.front(ports)
        assign_addresses(spec, ports)

        # GO: one shared epoch for every tick clock in the cluster, twice
        # the slowest control-channel connect ahead; each child's ack
        # then shows whether its GO arrived before t0.
        controls = {name: runtime.transport.channel_to(f"proc:{name}")
                    for name in self.children}
        connect_s = await self._barrier(
            "answer its control channel's HELLO",
            {name: channel.welcomed() for name, channel in controls.items()})
        self.t0 = time.time() + 2.0 * max(connect_s.values(), default=0.0)
        for channel in controls.values():
            channel.enqueue(runtime.peer_id, codec.GoSignal(
                t0=self.t0, addresses=spec.addresses))
        sent = time.time()
        go_s = await self._barrier(
            "acknowledge GO",
            {name: channel.flushed() for name, channel in controls.items()})
        lifecycle["go_rtt_ms"] = round(
            1e3 * max(go_s.values(), default=0.0), 3)
        lifecycle["go_late"] = sum(
            1 for name, channel in controls.items()
            if channel.backlog() or sent + go_s[name] > self.t0)
        runtime.clock.set_epoch(self.t0)
        if chaos is not None:
            chaos.on_go(self.t0)
        self.deployment.start()
        self._pump = loop.create_task(runtime.rtk.run(),
                                      name="pump:coordinator")
        self._deadline = loop.time() + self.deadline_s

    async def _barrier(self, what: str,
                       waits: Dict[str, Awaitable]) -> Dict[str, float]:
        """Await every child's ``waits[name]``; name -> seconds it took.
        A child that takes over :data:`READY_TIMEOUT_S` fails bring-up."""
        started = time.monotonic()
        took: Dict[str, float] = {}

        async def timed(name: str, wait: Awaitable) -> None:
            await wait
            took[name] = time.monotonic() - started

        try:
            await asyncio.wait_for(
                asyncio.gather(*(timed(name, wait)
                                 for name, wait in waits.items())),
                READY_TIMEOUT_S)
        except asyncio.TimeoutError:
            missing = ", ".join(name for name in waits if name not in took)
            raise RuntimeError(f"child(ren) {missing} did not {what} "
                               f"within {READY_TIMEOUT_S}s") from None
        return took

    def counts(self) -> Dict[str, int]:
        """sink -> effective outputs delivered so far."""
        return {sink: len(consumer.effective_outputs)
                for sink, consumer in self.deployment.consumers.items()}

    async def poll(self, done: Callable[[], bool],
                   kill_engine: Optional[str] = None,
                   kill_due: Optional[Callable[[], Optional[Dict]]] = None,
                   wake: Optional[asyncio.Future] = None) -> bool:
        """Wait for ``done()``; False if the run's deadline comes first.

        The coordinator's pump — where outputs are delivered and
        admissions stamped — tests the predicates after each of its
        steps and wakes this wait when one holds; so do the end of the
        pump, the completion of ``wake`` (say, the client fleet) and the
        deadline.  No timer polls.

        With ``kill_engine`` set, that engine's process is SIGKILLed the
        first time ``kill_due()`` returns a dict (the trigger's own
        fields for ``result["killed"]``) instead of None.  Every kill
        also records the engine, the wall ``at_s`` and the coordinator's
        ``at_ticks``, which the verdict judges it by.
        """
        loop, rtk = asyncio.get_running_loop(), self.runtime.rtk
        result = self.result
        waiter: Optional[asyncio.Future] = None

        def ready() -> bool:
            return done() or (kill_engine is not None
                              and result["killed"] is None
                              and kill_due() is not None)

        def end_wait(*_args) -> None:
            if waiter is not None and not waiter.done():
                waiter.set_result(None)

        timer = loop.call_at(self._deadline, end_wait)
        self._pump.add_done_callback(end_wait)
        if wake is not None:
            wake.add_done_callback(end_wait)
        try:
            while loop.time() < self._deadline:
                if self._pump.done():
                    self._pump.result()  # surfaces TransportError etc.
                    raise RuntimeError("coordinator pump exited early")
                if kill_engine is not None and result["killed"] is None:
                    trigger = kill_due()
                    if trigger is not None:
                        self.children[f"engine-{kill_engine}"].kill()
                        result["killed"] = {
                            "engine": kill_engine,
                            "at_s": round(time.monotonic() - self.started, 3),
                            "at_ticks": self.runtime.clock.ticks(),
                            **trigger,
                        }
                if done():
                    return True
                waiter = rtk.when(ready)
                await waiter
            return False
        finally:
            timer.cancel()
            self._pump.remove_done_callback(end_wait)
            if wake is not None:
                wake.remove_done_callback(end_wait)

    async def __aexit__(self, exc_type, exc, tb) -> bool:
        reported = isinstance(exc, Exception)
        if reported:
            self.result["error"] = f"{type(exc).__name__}: {exc}"
        await self._shut_down()
        return reported

    def _event(self, phase: str, exc: BaseException) -> None:
        """Record an error met at ``phase`` as a lifecycle event."""
        self.result["lifecycle"]["events"].append(
            {"phase": phase, "type": type(exc).__name__,
             "message": str(exc)})

    def _send_shutdown(self, names: List[str]) -> List[OutboundChannel]:
        """Enqueue a Shutdown to each child of ``names`` still running;
        the control channels it went out on."""
        runtime, channels = self.runtime, []
        for name in names:
            if self.children[name].proc.poll() is None:
                try:
                    channel = runtime.transport.channel_to(f"proc:{name}")
                except TransportError as exc:  # no address to tell it at
                    self._event("shutdown", exc)
                    continue
                channel.enqueue(runtime.peer_id,
                                codec.Shutdown("run complete"))
                channels.append(channel)
        return channels

    async def _shut_down(self) -> None:
        """Release whatever bring-up got as far as opening."""
        runtime, result, children = self.runtime, self.result, self.children
        loop = asyncio.get_running_loop()
        stopping = time.monotonic()
        if self._pump is None:
            # Never reached GO: the children are parked before their own
            # pumps and would not act on a Shutdown.
            for child in children.values():
                child.kill()
        else:
            # Followers first: once each has acknowledged its Shutdown its
            # detectors are off, so an engine exiting cannot read as a
            # crash to a follower still watching.
            followers = {self.spec.follower_process(engine_id, rank)
                         for engine_id in self.spec.engines
                         for rank in range(self.spec.replicas)}
            await all_flushed(
                self._send_shutdown([n for n in children if n in followers]),
                self.spec.connect_timeout_s)
            self._send_shutdown([n for n in children if n not in followers])
        # The coordinator keeps pumping — acking and consuming what the
        # children flush on their way out — until every child has exited.
        codes = await asyncio.gather(*(loop.run_in_executor(None, child.reap)
                                       for child in children.values()))
        exit_codes = dict(zip(children, codes))
        if self._pump is not None:
            runtime.rtk.stop()
            try:
                await self._pump
            except Exception as exc:  # noqa: BLE001 - a pumped callback's
                self._event("shutdown", exc)
                if result["error"] is None:
                    result["error"] = f"{type(exc).__name__}: {exc}"
            result["lifecycle"]["shutdown_s"] = round(
                time.monotonic() - stopping, 3)
        runtime.transport.export_metrics()
        counters = runtime.transport.channel_counters()
        result.update(
            epoch_resets=sum(c["epoch_resets"] for c in counters.values()),
            incarnations=runtime.transport.incarnations_adopted(),
            channel_counters=counters,
        )
        if self.chaos is not None:
            await self.chaos.close()
        await runtime.close()
        if self._spec_path is not None:
            try:
                self._spec_path.unlink()
            except OSError:
                pass

        consumers = self.deployment.consumers
        result.update(
            counts=self.counts(),
            streams=streams_of(self.deployment),
            # Per-sink local-sim arrival tick of every effective output.
            arrival_ticks={
                sink: [t for _seq, _vt, _payload, t in c.effective_outputs]
                for sink, c in consumers.items()},
            stutter=sum(c.stutter for c in consumers.values()),
            elapsed_s=round(time.monotonic() - self.started, 3),
            child_exit_codes=exit_codes,
            audit_reports={name: child.audit
                           for name, child in children.items()
                           if child.audit is not None},
            # Follower process -> detections by cause
            # (crash_confirmed, timeouts).
            detector={name: child.detector
                      for name, child in children.items()
                      if child.detector is not None},
            metrics=self.deployment.metrics.dump_json(),
        )
        if self.chaos is not None:
            result["chaos"] = self.chaos.report()


async def run_networked(
    spec: ClusterSpec,
    ref_counts: Dict[str, int],
    kill_engine: Optional[str] = None,
    kill_fraction: float = 0.4,
    deadline_s: float = 60.0,
    chaos=None,
) -> Dict:
    """One multi-process run; returns streams and diagnostics.

    The spec's seeded producers drive the load.  With ``kill_engine``
    set, that engine's process is SIGKILLed once ``kill_fraction`` of
    the expected outputs have been delivered; the run is complete when
    every sink's count equals ``ref_counts``.
    """
    cluster = ClusterHarness(spec, chaos, deadline_s)
    counts = cluster.counts
    kill_at = max(1, int(sum(ref_counts.values()) * kill_fraction))

    def kill_due() -> Optional[Dict]:
        delivered = sum(counts().values())
        return {"at_outputs": delivered} if delivered >= kill_at else None

    async with cluster:
        cluster.result["complete"] = await cluster.poll(
            lambda: counts() == ref_counts, kill_engine, kill_due)
    return cluster.result


def default_victim(spec: ClusterSpec) -> str:
    """The first engine (spec order) actually hosting components."""
    placed = set(component_placement(spec).values())
    for engine_id in spec.engines:
        if engine_id in placed:
            return engine_id
    raise WiringError("no engine hosts any component")


#: The options two or more of the cluster CLIs take: (flag, argparse
#: keywords, CLIs).  ``n`` is ``repro.net.cluster``, ``g`` is
#: ``repro.gateway.cluster``, ``c`` is ``repro.chaos``.  Options of one
#: CLI only are declared in its own ``main``.
CLUSTER_OPTIONS = [
    ("--engines", dict(type=int, default=2), "ngc"),
    ("--replicas", dict(
        type=int, default=1, metavar="K",
        help="passive followers per engine (0 disables checkpointing "
             "and failover; K >= 2 gives each engine a rank-ordered "
             "succession line)"), "ngc"),
    ("--messages", dict(
        type=int, default=240,
        help="seeded readings, or total submissions across all gateway "
             "clients"), "ngc"),
    ("--mean-ms", dict(
        type=float, default=1.0,
        help="mean Poisson interarrival (simulated ms)"), "nc"),
    ("--window", dict(type=int, default=10,
                      help="aggregator report window"), "ngc"),
    ("--speed", dict(type=float, default=0.1,
                     help="simulated ticks per real nanosecond"), "nc"),
    ("--checkpoint-ms", dict(type=float, default=25.0), "ngc"),
    ("--heartbeat-ms", dict(type=float, default=10.0), "ngc"),
    ("--heartbeat-miss", dict(type=int, default=3), "ngc"),
    ("--recovery-target", dict(
        type=float, default=None, metavar="MS",
        help="recovery-time objective in simulated ms; engines adapt "
             "checkpoint cadence so worst-case replay stays under it "
             "(--checkpoint-ms becomes the initial interval)"), "nc"),
    ("--audit", dict(
        nargs="?", const="heal", default="off",
        choices=("off", "raise", "heal"),
        help="run the continuous divergence audit on every engine "
             "(bare --audit means heal; chaos schedules that corrupt "
             "state force heal when left off)"), "nc"),
    ("--audit-every", dict(
        type=int, default=1,
        help="audit once per N checkpoint captures"), "nc"),
    ("--kill-active", dict(
        action="store_true",
        help="SIGKILL an engine process mid-stream and require "
             "byte-identical recovered output (and, behind the "
             "gateway, zero client reconnects)"), "ng"),
    ("--kill-engine", dict(
        default=None, help="which engine to kill (default: first)"), "ng"),
    ("--kill-fraction", dict(
        type=float, default=0.4,
        help="kill once this fraction of the expected outputs "
             "(gateway: of the planned admissions) is reached"), "ng"),
    ("--skip-clean", dict(action="store_true",
                          help="skip the no-failure run"), "ng"),
    ("--clients", dict(
        type=int, default=16,
        help="number of concurrent external clients"), "g"),
    ("--rate", dict(
        type=float, default=400.0,
        help="aggregate open-loop offered rate in msgs/sec across all "
             "clients (<= 0: synchronized burst)"), "g"),
    ("--timeout", dict(
        type=float, default=None,
        help="per-run wall-clock deadline in seconds"), "ngc"),
    ("--record", dict(
        default=None, metavar="DIR",
        help="write a .replay flight-recorder bundle of the run (see "
             "docs/timetravel.md); chaos invariant failures always "
             "record a reproducer bundle"), "ngc"),
    ("--metrics-out", dict(
        default=None, metavar="PATH",
        help="write the full metrics registry as JSON at "
             "shutdown"), "ngc"),
    ("--json", dict(action="store_true", dest="as_json",
                    help="machine-readable report on stdout"), "ngc"),
]


def add_cluster_arguments(parser: argparse.ArgumentParser, cli: str) -> None:
    """Declare the :data:`CLUSTER_OPTIONS` that CLI ``cli`` takes."""
    for flag, keywords, clis in CLUSTER_OPTIONS:
        if cli in clis:
            parser.add_argument(flag, **keywords)


def spec_keywords(args: argparse.Namespace, seeded: bool = True) -> Dict:
    """:func:`~repro.net.topology.pipeline_spec` keywords for the shared
    options; ``seeded=False`` leaves out the ones a gateway-fed spec
    has no use for (its ``--messages`` come from clients)."""
    keywords = dict(
        engines=args.engines,
        window=args.window,
        replicas=args.replicas,
        checkpoint_interval_ms=args.checkpoint_ms,
        heartbeat_interval_ms=args.heartbeat_ms,
        heartbeat_miss_limit=args.heartbeat_miss,
    )
    if seeded:
        keywords.update(
            messages=args.messages,
            mean_ms=args.mean_ms,
            speed=args.speed,
            recovery_target_ms=args.recovery_target,
            audit=args.audit,
            audit_every=args.audit_every,
        )
    return keywords


def check_kill_arguments(parser: argparse.ArgumentParser,
                         args: argparse.Namespace) -> None:
    """``parser.error`` on replica/kill options that cannot work."""
    if args.replicas < 0:
        parser.error("--replicas must be >= 0")
    if getattr(args, "kill_active", False) and args.replicas < 1:
        parser.error("--kill-active requires --replicas >= 1")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.net.cluster",
        description="Run a TART deployment as a real multi-process "
                    "cluster and verify its output against the "
                    "simulated reference (optionally killing the "
                    "active engine mid-stream).",
    )
    add_cluster_arguments(parser, "n")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    # Imported here: repro.chaos imports this module.
    from repro.chaos.invariants import check_invariants

    check_kill_arguments(parser, args)
    spec = pipeline_spec(master_seed=args.seed, **spec_keywords(args))
    kill_engine = None
    if args.kill_active:
        kill_engine = args.kill_engine or default_victim(spec)
        if kill_engine not in spec.engines:
            parser.error(f"unknown --kill-engine {kill_engine!r}")
    span_s = spec.workload_span_ticks() / (1e9 * spec.speed)
    deadline_s = args.timeout or max(30.0, 6.0 * span_s + 10.0)

    print(f"reference: simulating {args.messages} messages "
          f"({span_s:.1f}s of real time at speed {spec.speed}) ...",
          file=sys.stderr, flush=True)
    reference = reference_run(spec)
    ref_counts = {sink: len(s) for sink, s in reference.items()}
    print(f"reference: {sum(ref_counts.values())} outputs "
          f"across {len(ref_counts)} sink(s)", file=sys.stderr, flush=True)

    if args.record is not None:
        # Record the simulated twin: determinism makes it the faithful
        # recording of every trial that passes the byte-identity judge.
        from repro.runtime.flightrec import record_run

        bundle = record_run(spec, args.record, seed=args.seed,
                            source="cluster")
        print(f"cluster: wrote replay bundle {bundle}",
              file=sys.stderr, flush=True)

    trials: List[Tuple[str, Optional[str]]] = []
    if not args.skip_clean:
        trials.append(("networked-clean", None))
    if kill_engine is not None:
        trials.append((f"networked-kill-{kill_engine}", kill_engine))
    if not trials:
        trials.append(("networked-clean", None))

    report = {"reference_outputs": sum(ref_counts.values()), "trials": {}}
    metrics_docs: Dict[str, Dict] = {}
    failed = False
    for label, victim in trials:
        print(f"{label}: launching "
              f"{len(plan_cluster_nodes(spec)) - 1} child process(es) ...",
              file=sys.stderr, flush=True)
        result = asyncio.run(run_networked(
            spec, ref_counts, kill_engine=victim,
            kill_fraction=args.kill_fraction, deadline_s=deadline_s,
        ))
        verdict = check_invariants(spec, None, reference, result)
        del result["streams"], result["arrival_ticks"]  # bulky; judged
        metrics_docs[label] = result.pop("metrics", None)
        ok = verdict["ok"]
        failed = failed or not ok
        result.update(verdict=verdict, deterministic=verdict["byte_identical"],
                      ok=ok)
        report["trials"][label] = result
        status = "OK" if ok else "FAIL"
        print(f"{label}: {status} — {sum(result['counts'].values())}"
              f"/{sum(ref_counts.values())} outputs in "
              f"{result['elapsed_s']}s, stutter={result['stutter']}, "
              f"epoch_resets={result['epoch_resets']}"
              + (f", killed {result['killed']['engine']} after "
                 f"{result['killed']['at_outputs']} outputs"
                 if result["killed"] else ""),
              file=sys.stderr, flush=True)
        if victim is not None:
            print(f"{label}: non-victim liveness "
                  f"{'OK' if verdict['liveness'] else 'FAIL'}",
                  file=sys.stderr, flush=True)
        for proc, audit in sorted(result.get("audit_reports", {}).items()):
            print(f"{label}: audit[{proc}]: "
                  f"{json.dumps(audit, sort_keys=True)}",
                  file=sys.stderr, flush=True)
        for violation in verdict["violations"]:
            print(f"{label}: violation: {violation}",
                  file=sys.stderr, flush=True)

    if args.metrics_out is not None:
        Path(args.metrics_out).write_text(
            json.dumps(metrics_docs, indent=2, sort_keys=True) + "\n")
        print(f"cluster: wrote metrics to {args.metrics_out}",
              file=sys.stderr, flush=True)
    if args.as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
    print("cluster: " + ("all trials byte-identical to the simulated "
                         "reference" if not failed else "FAILED"),
          file=sys.stderr, flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
