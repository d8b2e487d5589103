"""Speed normalisation: the ``ref`` unit every timing is divided by.

The sizing host's speed swung +-17 % within seconds (the spin below took
46-90 ms there), so a raw wall-clock rate cannot repeat within a tenth.
The same rate divided by a calibration loop *interleaved with the work*
can, because both see the same momentary host speed.

One **spin** is a fixed pure-Python loop; one **ref-second** is
``SPINS_PER_REF_S`` spins (about one second on the sizing host).

* In-process CPU-bound work is stepped in chunks of at most ~100 ms
  wall with one spin before each chunk; :class:`ChunkRate` turns the
  (work, chunk wall, spin wall) triples into work per ref-second.
* Multi-process work runs a :class:`Sidecar` subprocess that spins once
  per ``SIDECAR_PERIOD_S`` and records ``time.process_time()`` per spin;
  CPU-seconds and latencies are corrected by ``median(spin_cpu) /
  REF_SPIN_S`` on the ``CLUSTER_SPIN_SHARE`` of them that is
  interpreter work.

``python bench/calibrate.py`` is the self-check: it runs 8 x 2 s of the
``sim_fig1`` stepping loop and prints raw vs ref spread, so a reviewer on
a new host sees the normalisation holding before trusting any bound.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

SPIN_ITERS = 200_000
SPINS_PER_REF_S = 100
#: Nominal duration of one spin in ref-seconds (10 ref-ms).
REF_SPIN_S = 1.0 / SPINS_PER_REF_S
SIDECAR_PERIOD_S = 0.25
#: Share of a live cluster's work that slows down when the spin does.
#: Between a quiet and a contended quarter-hour on the build host the
#: spin slowed by 33 % and the cluster's CPU per message and latency by
#: 17-18 %: about half of it is interpreter work like the spin, the rest
#: kernel, sockets and the C serializer, which the neighbours that slow
#: the spin leave alone.  Correcting in full swung the metrics 15 % the
#: other way; correcting this share left 6 %.
CLUSTER_SPIN_SHARE = 0.5


def spin() -> int:
    """The calibration loop.  Its definition is part of every metric."""
    x = 0
    for i in range(SPIN_ITERS):
        x += i * i % 7
    return x


def timed_spin(clock=time.perf_counter) -> float:
    """Seconds one spin took on ``clock``."""
    started = clock()
    spin()
    return clock() - started


def to_ref(seconds: float, spin_s: float) -> float:
    """``seconds`` of this host, at the speed ``spin_s`` saw, in ref-seconds."""
    return seconds / spin_s * REF_SPIN_S


def iqr_share(values: List[float]) -> float:
    """Inter-quartile distance as a share of the median (the driver's spread)."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


class ChunkRate:
    """Work per ref-second from interleaved (spin, chunk) measurements."""

    def __init__(self) -> None:
        self.work: List[float] = []
        self.chunk_s: List[float] = []
        self.spin_s: List[float] = []

    def add(self, work: float, chunk_s: float, spin_s: float) -> None:
        self.work.append(work)
        self.chunk_s.append(chunk_s)
        self.spin_s.append(spin_s)

    def per_ref_s(self) -> float:
        """Median over chunks of work / (chunk length in ref-seconds)."""
        return statistics.median(
            work / to_ref(chunk, spin)
            for work, chunk, spin in zip(self.work, self.chunk_s, self.spin_s)
            if work > 0
        )

    def raw_per_s(self) -> float:
        return sum(self.work) / sum(self.chunk_s)

    def median_spin_ms(self) -> float:
        return statistics.median(self.spin_s) * 1e3


class Sidecar:
    """A subprocess that spins on a timer while a multi-process run lasts.

    Its per-spin CPU time is the exchange rate between this host's
    CPU-seconds and ref-seconds during exactly that run.
    """

    def __init__(self) -> None:
        self._proc: Optional[subprocess.Popen] = None
        self.report: Dict = {}

    def __enter__(self) -> "Sidecar":
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--sidecar"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        return self

    def __exit__(self, *exc) -> None:
        proc = self._proc
        try:
            out, _ = proc.communicate("stop\n", timeout=10.0)
            self.report = json.loads(out.strip().splitlines()[-1])
        except (subprocess.TimeoutExpired, ValueError, IndexError):
            proc.kill()
            proc.wait()
            if exc[0] is None:
                raise RuntimeError("calibration sidecar gave no report")
        self._proc = None

    @property
    def spin_cpu_s(self) -> float:
        """Median CPU seconds per spin while the sidecar ran."""
        return self.report["median_spin_cpu_s"]

    @property
    def ref_per_s(self) -> float:
        """Ref-seconds in one second of cluster CPU time or latency."""
        slowdown = self.spin_cpu_s / REF_SPIN_S
        return 1.0 / (CLUSTER_SPIN_SHARE * slowdown + 1.0 - CLUSTER_SPIN_SHARE)

    @property
    def own_cpu_s(self) -> float:
        """CPU the sidecar itself burned (callers subtract it)."""
        return self.report["total_cpu_s"]


def _sidecar_main() -> int:
    """Spin once per period until stdin says stop; print one JSON line."""
    import select

    spins: List[float] = []
    while True:
        spins.append(timed_spin(time.process_time))
        ready, _, _ = select.select([sys.stdin], [], [], SIDECAR_PERIOD_S)
        if ready:
            break
    print(json.dumps({
        "spins": len(spins),
        "median_spin_cpu_s": statistics.median(spins),
        "total_cpu_s": time.process_time(),
    }), flush=True)
    return 0


def _self_check() -> int:
    """8 x 2 s of sim_fig1 stepping: raw vs ref spread, side by side."""
    import benchlib

    benchlib.bootstrap()
    import wl_sim_fig1

    rows = []
    for rep in range(8):
        rate, _latencies, _offered = wl_sim_fig1.step_mode(
            "deterministic", seed=7, virtual_s=None, wall_budget_s=2.0)
        rows.append((rate.raw_per_s(), rate.per_ref_s(),
                     rate.median_spin_ms()))
        print(f"rep {rep}: raw {rows[-1][0]:9.1f} dispatches/s   "
              f"ref {rows[-1][1]:9.1f} dispatches/ref-s   "
              f"spin {rows[-1][2]:6.2f} ms", flush=True)
    raw = [r[0] for r in rows]
    ref = [r[1] for r in rows]
    print(f"raw: median {statistics.median(raw):9.1f}  "
          f"min-max spread {(max(raw) - min(raw)) / statistics.median(raw):.1%}  "
          f"IQR/median {iqr_share(raw):.1%}")
    print(f"ref: median {statistics.median(ref):9.1f}  "
          f"min-max spread {(max(ref) - min(ref)) / statistics.median(ref):.1%}  "
          f"IQR/median {iqr_share(ref):.1%}")
    return 0


if __name__ == "__main__":
    if "--sidecar" in sys.argv[1:]:
        raise SystemExit(_sidecar_main())
    raise SystemExit(_self_check())
