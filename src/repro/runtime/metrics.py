"""Experiment metrics.

A :class:`MetricSet` is a passive sink shared by every runtime object in
a deployment: counters (probe counts, out-of-order arrivals, pessimism
events), accumulators (total pessimism delay ticks), and latency samples
(end-to-end, per external message).  Experiments read summaries from it
after a run; nothing here feeds back into scheduling, so metrics cannot
perturb determinism.
"""

from __future__ import annotations

import math
from array import array
from typing import Dict, List, Sequence, Set

from repro.vt.time import TICKS_PER_US


class MetricSet:
    """Counters, accumulators, and latency samples for one run.

    Latency samples live in an ``array('q')``: 8 bytes each, where a
    list of boxed ints cost about 40.
    """

    def __init__(self):
        self.counters: Dict[str, int] = {}
        self.accumulators: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        #: Gauges that read the wall clock: two runs of one seed differ
        #: in them, so a recorded bundle leaves them out.
        self.wall_clock: Set[str] = set()
        self._latencies = array("q")

    # -- write side ------------------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        """Increment a counter."""
        self.counters[name] = self.counters.get(name, 0) + n

    def gauge(self, name: str, value: float,
              wall_clock: bool = False) -> None:
        """Set a gauge to its latest observed value (last write wins).

        Gauges carry point-in-time control-loop state (e.g. the cadence
        controller's current interval) rather than monotonic totals.
        ``wall_clock`` marks a value measured in (or derived from) real
        time; the mark sticks to the name.
        """
        self.gauges[name] = value
        if wall_clock:
            self.wall_clock.add(name)

    def add(self, name: str, amount: int) -> None:
        """Add to an accumulator."""
        self.accumulators[name] = self.accumulators.get(name, 0) + amount

    def record_latency(self, birth_time: int, now: int) -> None:
        """Record one end-to-end latency sample in ticks."""
        self._latencies.append(now - birth_time)

    # -- read side -------------------------------------------------------
    def counter(self, name: str) -> int:
        """Counter value (0 if never incremented)."""
        return self.counters.get(name, 0)

    def accumulator(self, name: str) -> int:
        """Accumulator value (0 if never added to)."""
        return self.accumulators.get(name, 0)

    def gauge_value(self, name: str, default: float = 0.0) -> float:
        """Latest gauge value (``default`` if never set)."""
        return self.gauges.get(name, default)

    @property
    def latencies(self) -> List[int]:
        """All latency samples in ticks, in completion order."""
        return self._latencies.tolist()

    def latency_count(self) -> int:
        """Number of completed end-to-end messages."""
        return len(self._latencies)

    def mean_latency_us(self) -> float:
        """Mean end-to-end latency in microseconds."""
        if not self._latencies:
            return float("nan")
        return sum(self._latencies) / len(self._latencies) / TICKS_PER_US

    def latency_percentile_us(self, q: float) -> float:
        """The q-percentile (0..100) latency in microseconds.

        Uses linear interpolation between closest ranks (the same
        definition as ``numpy.percentile``'s default), so small sample
        sets are not biased by nearest-rank rounding.
        """
        return _percentile_us(sorted(self._latencies), q)

    def latency_std_us(self) -> float:
        """Standard deviation of latency in microseconds."""
        n = len(self._latencies)
        if n < 2:
            return 0.0
        mean = sum(self._latencies) / n
        var = sum((x - mean) ** 2 for x in self._latencies) / (n - 1)
        return math.sqrt(var) / TICKS_PER_US

    def channel_counters(self) -> Dict[str, Dict[str, int]]:
        """Per-channel transport counters, grouped by destination node.

        The networked transport exports each outbound channel's fault /
        retransmit / epoch-reset counters as ``chan.<dst>.<name>``
        counters (see ``NetTransport.export_metrics``); this groups them
        back into ``{dst: {name: value}}`` for reports and invariant
        checks.  Empty for purely simulated runs.
        """
        grouped: Dict[str, Dict[str, int]] = {}
        for key, value in self.counters.items():
            if not key.startswith("chan."):
                continue
            dst, _, name = key[len("chan."):].rpartition(".")
            if dst:
                grouped.setdefault(dst, {})[name] = value
        return grouped

    def probes_per_message(self) -> float:
        """Curiosity probes divided by end-to-end messages completed."""
        if not self._latencies:
            return 0.0
        return self.counter("curiosity_probes") / len(self._latencies)

    def out_of_order_fraction(self) -> float:
        """Fraction of processed messages that arrived out of vt order."""
        processed = self.counter("messages_processed")
        if processed == 0:
            return 0.0
        return self.counter("out_of_order_arrivals") / processed

    def summary(self) -> Dict[str, float]:
        """A flat dict of the headline numbers (for experiment tables)."""
        return self._summary(sorted(self._latencies))

    def _summary(self, ordered: Sequence[int]) -> Dict[str, float]:
        """:meth:`summary`, with the samples already sorted."""
        return {
            "messages": float(self.latency_count()),
            "mean_latency_us": self.mean_latency_us(),
            "p50_latency_us": _percentile_us(ordered, 50),
            "p95_latency_us": _percentile_us(ordered, 95),
            "latency_std_us": self.latency_std_us(),
            "curiosity_probes": float(self.counter("curiosity_probes")),
            "probes_per_message": self.probes_per_message(),
            "out_of_order_arrivals": float(self.counter("out_of_order_arrivals")),
            "pessimism_events": float(self.counter("pessimism_events")),
            "pessimism_delay_us": self.accumulator("pessimism_delay_ticks")
            / TICKS_PER_US,
            "duplicates_discarded": float(self.counter("duplicates_discarded")),
            "messages_replayed": float(self.counter("messages_replayed")),
            "determinism_faults": float(self.counter("determinism_faults")),
        }

    def dump_json(self, wall_clock: bool = True) -> Dict:
        """The full registry as one JSON-safe document.

        Everything a run accumulated — counters, gauges, accumulators,
        the latency-percentile summary, and per-channel fault counters —
        in a strictly finite form (``NaN``/``inf`` become ``None`` so
        the output is valid strict JSON).  This is what ``--metrics-out``
        writes at shutdown and what flight-recorder bundles embed, the
        latter without the :attr:`wall_clock` gauges (``wall_clock``
        false) so that a seed's bundle repeats byte for byte.
        """
        def finite(value):
            value = float(value)
            return value if math.isfinite(value) else None

        ordered = sorted(self._latencies)  # one sort for every percentile
        latency = {"count": self.latency_count()}
        if ordered:
            latency.update({
                "mean_us": finite(self.mean_latency_us()),
                "p50_us": finite(_percentile_us(ordered, 50)),
                "p95_us": finite(_percentile_us(ordered, 95)),
                "p99_us": finite(_percentile_us(ordered, 99)),
                "p999_us": finite(_percentile_us(ordered, 99.9)),
                "std_us": finite(self.latency_std_us()),
            })
        return {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {k: finite(v)
                       for k, v in sorted(self.gauges.items())
                       if wall_clock or k not in self.wall_clock},
            "accumulators": {k: self.accumulators[k]
                             for k in sorted(self.accumulators)},
            "latency": latency,
            "channels": self.channel_counters(),
            "summary": {k: finite(v)
                        for k, v in self._summary(ordered).items()},
        }

    def __repr__(self) -> str:
        return (f"MetricSet(messages={self.latency_count()}, "
                f"mean={self.mean_latency_us():.1f}us)")


def _percentile_us(ordered: Sequence[int], q: float) -> float:
    """The q-percentile (0..100) of sorted tick samples, in microseconds."""
    if not ordered:
        return float("nan")
    rank = min(1.0, max(0.0, q / 100.0)) * (len(ordered) - 1)
    lo = int(rank)
    frac = rank - lo
    value = ordered[lo]
    if frac:
        value += (ordered[lo + 1] - ordered[lo]) * frac
    return value / TICKS_PER_US
