"""Shared plumbing for the benchmark: paths, percentiles, spans, profiles.

Everything the benchmark writes lands under ``bench/results/`` (ignored
by git), including the temp files the cluster harnesses create, so a run
reads and writes only inside its checkout.
"""

from __future__ import annotations

import asyncio
import cProfile
import json
import os
import pstats
import resource
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence)

from calibrate import Sidecar

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = BENCH_DIR / "results"

#: Layers the per-module profile is reported for (``repro.<name>``); the
#: ``vt`` package is one layer, as in the paper's description.
PROFILE_LAYERS = (
    "sim.kernel", "core.scheduler", "core.silence_policy", "vt",
    "runtime.link", "runtime.transport", "runtime.engine",
    "runtime.checkpoint", "net.codec", "net.channel", "net.server",
    "net.node", "net.clock", "gateway.server", "gateway.client",
)


def bootstrap() -> None:
    """Make ``repro`` importable and keep temp files inside the checkout."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        raise SystemExit(f"bench: no source tree at {src}; nothing to measure")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    tmp = RESULTS / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(tmp)


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default definition)."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = q / 100.0 * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def cpu_seconds() -> float:
    """User+system CPU of this process and every child reaped so far."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # Linux reports KiB


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``."""

    workload: str
    attempted: int
    failed: int
    #: Why ops failed (empty when none did).
    failures: List[str] = field(default_factory=list)
    #: End-to-end metrics: name -> (value, unit).
    metrics: Dict[str, tuple] = field(default_factory=dict)
    #: Layer counts and timings this workload can see: name -> (value, unit).
    layers: Dict[str, tuple] = field(default_factory=dict)
    #: Raw (un-normalised) companions and context, for the human report.
    raw: Dict[str, float] = field(default_factory=dict)
    #: Ops the profiled calls served (the base of ``calls_per_op``).
    profiled_ops: float = 1.0


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Tracer:
    """Bench-side spans around calls into the layers' public functions.

    Spans stay in memory and are written once at exit.  A disabled
    tracer costs one attribute test per ``span`` call.
    """

    def __init__(self, workload: str, enabled: bool):
        self.workload = workload
        self.enabled = enabled
        self.spans: List[Dict] = []
        #: Open spans of the main thread; a worker thread's first span
        #: hangs under whatever the main thread has open.
        self._stack: List[int] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _open_spans(self) -> List[int]:
        if threading.current_thread() is threading.main_thread():
            return self._stack
        if not hasattr(self._local, "stack"):
            self._local.stack = self._stack[-1:]
        return self._local.stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        stack = self._open_spans()
        record = {"name": name, "workload": self.workload,
                  "parent": stack[-1] if stack else None, "end": None}
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        record["start"] = time.perf_counter()
        stack.append(record["id"])
        try:
            yield
        finally:
            stack.pop()
            record["end"] = time.perf_counter()

    @contextmanager
    def spanning(self, owner, attr: str, name: str,
                 before: Optional[Callable] = None) -> Iterator[None]:
        """While inside, every call of ``owner.attr`` is a span ``name``.

        For public functions the harnesses call themselves, out of the
        bench's reach; ``before`` sees the call's arguments first.  A
        disabled tracer leaves ``owner`` untouched.
        """
        if not self.enabled:
            yield
            return
        original = getattr(owner, attr)
        if asyncio.iscoroutinefunction(original):
            async def wrapper(*args, **kwargs):
                if before is not None:
                    before(*args, **kwargs)
                with self.span(name):
                    return await original(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                if before is not None:
                    before(*args, **kwargs)
                with self.span(name):
                    return original(*args, **kwargs)
        setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            setattr(owner, attr, original)

    def total_s(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name and s["end"] is not None)

    def self_times(self) -> Dict[str, float]:
        """Span name -> duration minus the part child spans cover."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None and s["end"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        out: Dict[str, float] = {}
        for s in self.spans:
            if s["end"] is not None:
                own = s["end"] - s["start"] - covered[s["id"]]
                out[s["name"]] = out.get(s["name"], 0.0) + own
        return out

    def write(self) -> Optional[Path]:
        if not self.enabled:
            return None
        RESULTS.mkdir(parents=True, exist_ok=True)
        path = RESULTS / f"trace-{self.workload}.json"
        path.write_text(json.dumps(
            {"workload": self.workload, "spans": self.spans,
             "self_s": self.self_times()}, indent=1) + "\n")
        return path


# ----------------------------------------------------------------------
# Per-module profile
# ----------------------------------------------------------------------
def _layer_of(filename: str) -> Optional[str]:
    """``.../repro/net/codec.py`` -> ``net.codec``; None outside repro."""
    marker = f"{os.sep}repro{os.sep}"
    at = filename.rfind(marker)
    if at < 0:
        return None
    parts = filename[at + len(marker):].split(os.sep)
    if parts[0] == "vt":
        return "vt"
    parts[-1] = parts[-1].rsplit(".", 1)[0]
    return ".".join(parts)


class LayerProfile:
    """cProfile around the bench's calls, aggregated per repro module.

    Shares are of the profiled thread's *busy* time: the selector's
    ``poll`` (an idle event loop) is left out of the total.  Self time
    of a C builtin is charged to the module that called it (a
    ``heappush`` from ``sim.kernel`` is kernel work); the standard
    library, the bench itself and unlisted repro modules make up
    ``elsewhere.self_share``.
    """

    def __init__(self, enabled: bool):
        self._profile = cProfile.Profile() if enabled else None

    @contextmanager
    def on(self) -> Iterator[None]:
        if self._profile is None:
            yield
            return
        self._profile.enable()
        try:
            yield
        finally:
            self._profile.disable()

    def summary(self) -> Dict[str, float]:
        """``{"<layer>.self_share": ..., "calls": ...}`` (zeros when off)."""
        shares = {f"{layer}.self_share": 0.0 for layer in PROFILE_LAYERS}
        shares["elsewhere.self_share"] = 0.0
        shares["calls"] = 0.0
        if self._profile is None:
            return shares
        stats = pstats.Stats(self._profile).stats
        per_layer: Dict[str, float] = {}
        total = 0.0
        calls = 0
        for (filename, _line, name), (_cc, nc, tt, _ct, callers) in stats.items():
            if filename == "~" and "select." in name and "poll" in name:
                continue  # waiting for I/O is not work
            total += tt
            layer = _layer_of(filename)
            if layer is not None:
                calls += nc
                per_layer[layer] = per_layer.get(layer, 0.0) + tt
            elif filename == "~":
                for (caller_file, _l, _n), (_c, _n2, caller_tt, _ct2) in callers.items():
                    caller_layer = _layer_of(caller_file)
                    if caller_layer is not None:
                        per_layer[caller_layer] = (
                            per_layer.get(caller_layer, 0.0) + caller_tt)
        if total > 0:
            for layer in PROFILE_LAYERS:
                shares[f"{layer}.self_share"] = per_layer.get(layer, 0.0) / total
            shares["elsewhere.self_share"] = 1.0 - sum(
                shares[f"{layer}.self_share"] for layer in PROFILE_LAYERS)
        shares["calls"] = float(calls)
        return shares


# ----------------------------------------------------------------------
# Per-process CPU of a live cluster
# ----------------------------------------------------------------------
class ChildCpuSampler:
    """Samples ``/proc/<pid>/stat`` of this process's children by ``--name``.

    ``getrusage(RUSAGE_CHILDREN)`` only gives the sum once children are
    reaped; which *role* (engine, replica) burned the CPU needs a look
    while they live.  The last sample before a child exits is kept.
    """

    _TICK = os.sysconf("SC_CLK_TCK")

    def __init__(self, enabled: bool, period_s: float = 0.5):
        self.enabled = enabled
        self.period_s = period_s
        #: child --name -> CPU seconds at its last sighting.
        self.cpu_s: Dict[str, float] = {}
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def __enter__(self) -> "ChildCpuSampler":
        if self.enabled:
            self._thread = threading.Thread(target=self._loop, daemon=True,
                                            name="bench-cpu-sampler")
            self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    def _loop(self) -> None:
        while not self._stop.wait(self.period_s):
            self._sample()

    def _sample(self) -> None:
        me = os.getpid()
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                stat = Path(f"/proc/{entry}/stat").read_text()
                fields = stat[stat.rindex(")") + 2:].split()
                if int(fields[1]) != me:  # ppid
                    continue
                argv = Path(f"/proc/{entry}/cmdline").read_bytes().split(b"\0")
            except (OSError, ValueError):
                continue  # the process went away between listdir and read
            if b"--name" not in argv:
                continue
            name = argv[argv.index(b"--name") + 1].decode()
            self.cpu_s[name] = (int(fields[11]) + int(fields[12])) / self._TICK

    def by_role(self) -> Dict[str, float]:
        """CPU seconds summed per role (``engine``, ``replica``)."""
        roles: Dict[str, float] = {}
        for name, cpu in self.cpu_s.items():
            role = name.split("-", 1)[0]
            roles[role] = roles.get(role, 0.0) + cpu
        return roles


class ClusterMeter:
    """Everything measured around a live cluster run, as one context.

    Runs the calibration sidecar (and, for traced runs, the per-child
    sampler) while the block lasts and afterwards holds the CPU the
    block burned -- this process plus every reaped child, the sidecar's
    own spinning taken out -- and the exchange rate into ref-seconds.
    """

    def __init__(self, sample_children: bool):
        self._sidecar = Sidecar()
        self._sampler = ChildCpuSampler(sample_children)

    def __enter__(self) -> "ClusterMeter":
        self._cpu_before = cpu_seconds()
        self._own_before = time.process_time()
        self._sidecar.__enter__()
        self._sampler.__enter__()
        return self

    def __exit__(self, *exc) -> None:
        self._sampler.__exit__(*exc)
        self.coordinator_cpu_s = time.process_time() - self._own_before
        self._sidecar.__exit__(*exc)
        self.cpu_s = (cpu_seconds() - self._cpu_before
                      - self._sidecar.own_cpu_s)
        self.spin_cpu_s = self._sidecar.spin_cpu_s
        self.ref_per_s = self._sidecar.ref_per_s

    def cpu_layers(self, delivered: int) -> Dict[str, tuple]:
        """Ref-seconds of CPU per thousand messages, by process role."""
        per_kmsg = self.ref_per_s / (delivered / 1000.0)
        roles = self._sampler.by_role()
        return {
            "net.cluster.coordinator_cpu_refs_per_kmsg": (
                self.coordinator_cpu_s * per_kmsg, "s"),
            "net.server.engine_cpu_refs_per_kmsg": (
                roles.get("engine", 0.0) * per_kmsg, "s"),
            "net.heartbeat.replica_cpu_refs_per_kmsg": (
                roles.get("replica", 0.0) * per_kmsg, "s"),
        }


def channel_layers(channels: Iterable[Dict[str, int]]) -> Dict[str, tuple]:
    """The ``net.channel.*`` layer metrics from channels' ``counters()``."""
    total: Dict[str, int] = {}
    for counters in channels:
        for name, value in counters.items():
            total[name] = total.get(name, 0) + value
    items = max(1, total.get("items_sent", 0))
    return {
        "net.channel.items_per_frame": (
            items / max(1, total.get("frames_sent", 0)), "ratio"),
        "net.channel.ack_frames_per_item": (
            total.get("acks_received", 0) / items, "ratio"),
        "net.channel.bytes_per_item": (
            total.get("bytes_sent", 0) / items, "B"),
        "net.channel.items_resent": (
            float(total.get("items_resent", 0)), "count"),
        "net.channel.epoch_resets": (
            float(total.get("epoch_resets", 0)), "count"),
    }
