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
   once a fraction of the expected outputs have arrived, leaving the
   replica process to detect the silence via heartbeat timeout, promote
   from the shipped checkpoint chain, and replay over the sockets;
4. waits for the consumers to reach the reference output counts and
   judges the collected streams with
   :func:`~repro.tools.verify_determinism.verify_trace_equivalence` —
   byte-identical ``(seq, vt, payload)`` streams or a nonzero exit.

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
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import repro
from repro.errors import WiringError
from repro.net import codec
from repro.net.node import host_deployment
from repro.net.server import ProcessRuntime
from repro.net.topology import (
    ClusterSpec,
    assign_addresses,
    component_placement,
    pipeline_spec,
    plan_cluster_nodes,
    reference_run,
    sink_upstream_engines,
    stream_of,
)
from repro.tools.verify_determinism import verify_trace_equivalence

#: Seconds each child gets to bind its socket and print READY.
READY_TIMEOUT_S = 20.0

#: Lead time between the GO broadcast and the shared tick-zero epoch,
#: so control channels can connect before anyone's clock starts.
GO_LEAD_S = 0.75

#: Period of the coordinator's poll loop (kill trigger, done predicate).
POLL_S = 0.05

#: Wall seconds between the Shutdown broadcast and stopping the pump,
#: so in-flight frames and acks drain.
DRAIN_S = 0.3


class ChildProcess:
    """One spawned server process with a READY-watching stdout reader."""

    def __init__(self, name: str, cmd: List[str], env: Dict[str, str]):
        self.name = name
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=None, env=env,
            text=True, bufsize=1,
        )
        self.ready = False
        #: Set at READY and at stdout EOF, so a READY waiter wakes as
        #: soon as the child is either up or gone.
        self._ready_or_gone = threading.Event()
        #: Parsed AUDIT report printed at clean shutdown (None if the
        #: child crashed or ran without audit/cadence enabled).
        self.audit: Optional[Dict] = None
        self._reader = threading.Thread(
            target=self._pump_stdout, name=f"stdout:{name}", daemon=True
        )
        self._reader.start()

    def _pump_stdout(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            line = line.rstrip("\n")
            if line == "READY":
                self.ready = True
                self._ready_or_gone.set()
            elif line.startswith("AUDIT "):
                try:
                    self.audit = json.loads(line[len("AUDIT "):])
                except ValueError:
                    print(f"[{self.name}] unparseable {line!r}",
                          file=sys.stderr, flush=True)
            elif line:
                print(f"[{self.name}] {line}", file=sys.stderr, flush=True)
        self.proc.wait()
        self._ready_or_gone.set()

    def wait_ready(self) -> None:
        """Block until READY; raise once the child exits or times out."""
        self._ready_or_gone.wait(READY_TIMEOUT_S)
        if not self.ready:
            rc = self.proc.poll()
            raise RuntimeError(
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


def free_port() -> int:
    """An OS-assigned free localhost TCP port (best effort)."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def with_addresses(spec: ClusterSpec) -> ClusterSpec:
    """A deep copy of ``spec`` with fresh localhost listen addresses."""
    run_spec = ClusterSpec.from_json(spec.to_json())
    ports = {name: ("127.0.0.1", free_port())
             for name in plan_cluster_nodes(run_spec)}
    assign_addresses(run_spec, ports)
    if run_spec.gateway_enabled() and run_spec.gateway.get("port") is None:
        run_spec.gateway.setdefault("host", "127.0.0.1")
        run_spec.gateway["port"] = free_port()
    return run_spec


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

    Constructing the harness builds the coordinator's in-process share
    (``runtime``, and ``deployment``: every ingress and consumer, with
    the spec's producers attached) and opens nothing.  ``async with``
    enters with the cluster running — coordinator socket bound, chaos proxy
    started, children spawned and past the READY barrier, GO epoch
    ``t0`` broadcast, pump task started — and leaves with it shut down,
    reaped, and the common diagnostics in ``result``.  A bring-up that
    fails part-way releases what it had opened and re-raises.

    The body is the driver.  It starts whatever offers load (seeded
    producers are already running; a gateway and its clients are the
    body's own), then awaits :meth:`poll` with the two things only it
    knows: when the kill is due and when the run is done.  An
    ``Exception`` escaping the body is reported as ``result["error"]``,
    not raised.

    ``chaos`` is an optional :class:`~repro.chaos.runner.ChaosDriver`:
    ``start()`` once the coordinator's socket is up (its fault-proxy
    listeners must accept before any child dials), ``attach(children)``
    after spawning, ``on_go(t0)`` with the epoch, ``close()`` on the
    way out.
    """

    def __init__(self, spec: ClusterSpec, chaos=None,
                 deadline_s: float = 60.0):
        self.spec = spec
        self.chaos = chaos
        self.deadline_s = deadline_s
        self.started = time.monotonic()
        self.runtime = ProcessRuntime("coordinator", spec)
        self.deployment = host_deployment("coordinator",
                                          self.runtime.transport)
        self.result: Dict = {"killed": None, "complete": False, "error": None}
        self.children: Dict[str, ChildProcess] = {}
        self.t0 = 0.0
        self._server: Optional[asyncio.AbstractServer] = None
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
        self._server = await asyncio.start_server(
            runtime._handle_conn, *spec.listen_addr("coordinator")
        )
        if chaos is not None:
            await chaos.start()
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

        # GO: one shared epoch for every tick clock in the cluster.
        self.t0 = time.time() + GO_LEAD_S
        for name in self.children:
            runtime.transport.channel_to(f"proc:{name}").enqueue(
                runtime.peer_id, codec.GoSignal(t0=self.t0, speed=spec.speed)
            )
        runtime.clock.set_epoch(self.t0)
        if chaos is not None:
            chaos.on_go(self.t0)
        self.deployment.start()
        self._pump = loop.create_task(runtime.rtk.run(),
                                      name="pump:coordinator")
        self._deadline = time.monotonic() + self.deadline_s

    def counts(self) -> Dict[str, int]:
        """sink -> effective outputs delivered so far."""
        return {sink: len(consumer.effective_outputs)
                for sink, consumer in self.deployment.consumers.items()}

    async def poll(self, done: Callable[[], bool],
                   kill_engine: Optional[str] = None,
                   kill_due: Optional[Callable[[], Optional[Dict]]] = None,
                   ) -> bool:
        """Wait for ``done()``; False if the run's deadline comes first.

        With ``kill_engine`` set, that engine's process is SIGKILLed the
        first time ``kill_due()`` returns a dict (the trigger's own
        fields for ``result["killed"]``) instead of None.
        """
        while time.monotonic() < self._deadline:
            if self._pump.done():
                self._pump.result()  # surfaces TransportError etc.
                raise RuntimeError("coordinator pump exited early")
            if kill_engine is not None and self.result["killed"] is None:
                trigger = kill_due()
                if trigger is not None:
                    self.children[f"engine-{kill_engine}"].kill()
                    self.result["killed"] = {
                        "engine": kill_engine,
                        "at_s": round(time.monotonic() - self.started, 3),
                        **trigger,
                    }
            if done():
                return True
            await asyncio.sleep(POLL_S)
        return False

    async def __aexit__(self, exc_type, exc, tb) -> bool:
        reported = isinstance(exc, Exception)
        if reported:
            self.result["error"] = f"{type(exc).__name__}: {exc}"
        await self._shut_down()
        return reported

    async def _shut_down(self) -> None:
        """Release whatever bring-up got as far as opening."""
        runtime, result, children = self.runtime, self.result, self.children
        if self._pump is None:
            # Never reached GO: the children are parked before their own
            # pumps and would not act on a Shutdown.
            for child in children.values():
                child.kill()
        else:
            for name, child in children.items():
                if child.proc.poll() is None:
                    try:
                        runtime.transport.channel_to(f"proc:{name}").enqueue(
                            runtime.peer_id, codec.Shutdown("run complete")
                        )
                    except Exception:  # noqa: BLE001 - best-effort shutdown
                        pass
            await asyncio.sleep(DRAIN_S)
            runtime.rtk.stop()
            try:
                await self._pump
            except Exception as exc:  # noqa: BLE001
                if result["error"] is None:
                    result["error"] = f"{type(exc).__name__}: {exc}"
        channels = runtime.transport._channels
        runtime.transport.export_metrics()
        result.update(
            epoch_resets=sum(ch.epoch_resets for ch in channels.values()),
            incarnations={dst: ch._known_incarnation
                          for dst, ch in channels.items()},
            channel_counters=runtime.transport.channel_counters(),
        )
        if self.chaos is not None:
            await self.chaos.close()
        await runtime.transport.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        exit_codes = {name: child.reap() for name, child in children.items()}
        if self._spec_path is not None:
            try:
                self._spec_path.unlink()
            except OSError:
                pass

        consumers = self.deployment.consumers
        result.update(
            counts=self.counts(),
            streams={sink: stream_of(c) for sink, c in consumers.items()},
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

    ``spec`` must already carry addresses (see :func:`with_addresses`).
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
        if delivered < kill_at:
            return None
        return {"at_outputs": delivered,
                "at_ticks": cluster.runtime.clock.ticks()}

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


def group_liveness(spec: ClusterSpec, result: Dict,
                   victim: str, ref_counts: Dict[str, int]) -> Optional[Dict]:
    """Check non-victim groups kept delivering during the failover window.

    The window runs from the SIGKILL tick to the first post-kill output
    of any sink depending on the victim group (the first recovered
    byte).  Every sink *independent* of the victim must deliver at least
    once inside it — unless its stream was already complete before the
    kill.  Returns None when the invariant does not apply (no kill tick
    recorded, or no independent sinks to observe).
    """
    killed = result.get("killed") or {}
    kill_tick = killed.get("at_ticks")
    arrivals: Dict[str, List[int]] = result.get("arrival_ticks") or {}
    if kill_tick is None:
        return None
    upstream = sink_upstream_engines(spec)
    victim_sinks = sorted(s for s, deps in upstream.items() if victim in deps)
    others = sorted(s for s, deps in upstream.items() if victim not in deps)
    if not others:
        return None
    end = min((t for sink in victim_sinks
               for t in arrivals.get(sink, []) if t >= kill_tick),
              default=None)
    if end is None:  # victim never recovered; judge against the whole tail
        end = max((t for ts in arrivals.values() for t in ts),
                  default=kill_tick)
    stalled = []
    for sink in others:
        ticks = arrivals.get(sink, [])
        done_before_kill = (len(ticks) >= ref_counts.get(sink, 0)
                            and all(t < kill_tick for t in ticks))
        if done_before_kill:
            continue
        if not any(kill_tick <= t <= end for t in ticks):
            stalled.append(sink)
    return {
        "ok": not stalled,
        "window_ticks": [kill_tick, end],
        "victim_sinks": victim_sinks,
        "independent_sinks": others,
        "stalled_sinks": stalled,
    }


#: The options two or more of the cluster CLIs take: (flag, argparse
#: keywords, CLIs).  ``n`` is ``repro.net.cluster``, ``g`` is
#: ``repro.gateway.cluster``, ``c`` is ``repro.chaos``.  Options of one
#: CLI only are declared in its own ``main``.
CLUSTER_OPTIONS = [
    ("--engines", dict(type=int, default=2), "ngc"),
    ("--replicas", dict(
        type=int, default=1, choices=(0, 1),
        help="passive replicas per engine (0 disables checkpointing "
             "and failover)"), "ngc"),
    ("--followers", dict(
        type=int, default=None, metavar="K",
        help="followers per replication group (overrides --replicas; "
             "K >= 2 gives each engine a rank-ordered succession "
             "line)"), "ngc"),
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
        help="gateway mode: number of concurrent external "
             "clients"), "ng"),
    ("--rate", dict(
        type=float, default=400.0,
        help="gateway mode: aggregate open-loop offered rate in "
             "msgs/sec across all clients (<= 0: synchronized "
             "burst)"), "ng"),
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
        followers_per_group=args.followers,
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
    """``parser.error`` on follower/kill options that cannot work."""
    if args.followers is not None and args.followers < 0:
        parser.error("--followers must be >= 0")
    followers = (args.followers if args.followers is not None
                 else args.replicas)
    if args.kill_active and followers < 1:
        parser.error("--kill-active requires --replicas or --followers >= 1")


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
    parser.add_argument("--chaos", type=int, default=None, metavar="SEED",
                        help="instead of the clean/kill trials, run the "
                             "seeded chaos schedule SEED against this "
                             "cluster (python -m repro.chaos with the "
                             "same workload knobs)")
    parser.add_argument("--gateway", action="store_true",
                        help="feed the cluster through the public TCP "
                             "ingress gateway instead of in-process "
                             "producers (python -m repro.gateway.cluster "
                             "with the same knobs); external clients "
                             "submit over the wire and the output is "
                             "verified against a pure-sim replay of the "
                             "gateway's admission log")
    args = parser.parse_args(argv)

    if args.gateway:
        # The gateway CLI parses nothing more; it fills in its own
        # options' defaults around the values parsed here.
        ignored = ["--chaos"] + [flag for flag, _keywords, clis
                                 in CLUSTER_OPTIONS if "g" not in clis]
        for flag in ignored:
            dest = flag[2:].replace("-", "_")
            if getattr(args, dest) != parser.get_default(dest):
                parser.error(f"{flag} has no effect with --gateway")
        from repro.gateway.cluster import main as gateway_main

        return gateway_main([], args)

    if args.chaos is not None:
        from repro.chaos.__main__ import main as chaos_main

        # There --seed picks the fault schedule, --master-seed the workload.
        args.master_seed, args.seed = args.seed, args.chaos
        return chaos_main([], args)

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
            with_addresses(spec), ref_counts, kill_engine=victim,
            kill_fraction=args.kill_fraction, deadline_s=deadline_s,
        ))
        verdict = verify_trace_equivalence(
            reference, result.pop("streams"), trial=label,
            require_complete=True,
        )
        liveness = (group_liveness(spec, result, victim, ref_counts)
                    if victim is not None else None)
        result.pop("arrival_ticks", None)  # bulky; judged above
        metrics_docs[label] = result.pop("metrics", None)
        result["liveness"] = liveness
        ok = (verdict.deterministic and result["complete"]
              and not result["error"]
              and (liveness is None or liveness["ok"]))
        failed = failed or not ok
        result["deterministic"] = verdict.deterministic
        result["ok"] = ok
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
        if liveness is not None:
            print(f"{label}: non-victim liveness "
                  f"{'OK' if liveness['ok'] else 'FAIL'} — "
                  f"{len(liveness['independent_sinks'])} independent "
                  f"sink(s), stalled={liveness['stalled_sinks']}",
                  file=sys.stderr, flush=True)
        for proc, audit in sorted(result.get("audit_reports", {}).items()):
            print(f"{label}: audit[{proc}]: "
                  f"{json.dumps(audit, sort_keys=True)}",
                  file=sys.stderr, flush=True)
        if result["error"]:
            print(f"{label}: error: {result['error']}",
                  file=sys.stderr, flush=True)
        if not verdict.deterministic:
            print(verdict.summary(), file=sys.stderr, flush=True)

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
