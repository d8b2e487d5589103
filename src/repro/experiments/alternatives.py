"""Quantifying section IV's conjectures: TART vs the alternatives.

The paper *argues* that passive-replica checkpoint-replay beats the
alternatives but measures none of them: "We conjecture that the
overheads of logging external messages and intermittently sending
asynchronous soft checkpoints in our approach will be lower than the
overheads of performing distributed transaction commits per processed
event."  This experiment builds the comparators and measures:

* **TART** — deterministic execution + soft checkpoints to a passive
  replica (the paper's system);
* **active replication** — two live copies of every engine processing
  the same multicast inputs (determinism makes the copies agree with no
  coordination, the best case for active replication — cf. Basile et
  al. [14], which additionally pays mutex-order forwarding);
* **transactional** — one copy, but every message handler pays a
  synchronous per-event commit (modelled as added service time: two
  forced log writes of ``commit_us`` each, as a 2009-era transactional
  object cache would).

Reported per approach: failure-free latency, compute ticks per
delivered message (the redundancy bill), network frames per message
(the coordination bill), checkpoint bytes, and the output gap when an
engine hosting the merger is killed mid-run.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.apps.wordcount import (
    birth_of,
    make_merger_class,
    make_sender_class,
    sentence_factory,
)
from repro.runtime.app import Application, Deployment
from repro.runtime.engine import EngineConfig
from repro.runtime.failure import FailureInjector
from repro.runtime.placement import Placement
from repro.runtime.transport import LinkParams
from repro.sim.distributions import Constant, Exponential
from repro.sim.jitter import NormalTickJitter
from repro.sim.kernel import ms, seconds, us
from repro.vt.time import TICKS_PER_MS, TICKS_PER_US


class MulticastProducer:
    """Feeds identical payload streams to several ingresses.

    Active replication's input stage: every replica group receives the
    same externally-timestamped inputs (the equivalent of a reliable
    multicast from the client).
    """

    def __init__(self, sim, rng, ingresses, payload_factory,
                 mean_interarrival: int, stop_at: Optional[int] = None):
        self.sim = sim
        self.rng = rng
        self.ingresses = list(ingresses)
        self.payload_factory = payload_factory
        self.interarrival = Exponential(mean_interarrival)
        self.stop_at = stop_at
        self.produced = 0

    def start(self) -> None:
        """Schedule the first arrival."""
        self.sim.after(self.interarrival.sample(self.rng), self._produce,
                       "multicast-producer")

    def _produce(self) -> None:
        if self.stop_at is not None and self.sim.now >= self.stop_at:
            return
        payload = self.payload_factory(self.rng, self.produced, self.sim.now)
        for ingress in self.ingresses:
            ingress.offer(payload)
        self.produced += 1
        self.sim.after(self.interarrival.sample(self.rng), self._produce,
                       "multicast-producer")


def _wordcount_app(suffix: str = "", commit_us: int = 0) -> Application:
    """The Figure 1 app, optionally suffixed (replica copies) and with a
    per-event commit cost folded into every handler."""
    sender_class = make_sender_class(
        per_iteration_true=us(60),
        name=f"Sender{suffix or ''}",
    )
    if commit_us:
        # Commit cost: two forced writes per processed event, paid in
        # real time and reflected in the estimator (it is real work).
        from repro.core.cost import LinearCost

        sender_class = make_sender_class(per_iteration_true=us(60))
        sender_cost = LinearCost(
            {"loop": us(60)},
            features=lambda p: {"loop": len(p["words"])},
            intercept=2 * us(commit_us),
        )
        original = sender_class

        class _CommitSender(original):  # type: ignore[valid-type]
            pass

        spec = _CommitSender.handler_specs()["input"]
        _CommitSender.process_sentence._tart_handler = type(spec)(
            input_name=spec.input_name, cost=sender_cost,
            two_way=False, method_name=spec.method_name,
        )
        sender_class = _CommitSender
        merger_class = make_merger_class(us(400) + 2 * us(commit_us))
    else:
        merger_class = make_merger_class(us(400))

    app = Application(f"alt{suffix}")
    for i in (1, 2):
        app.add_component(f"sender{i}{suffix}", sender_class)
    app.add_component(f"merger{suffix}", merger_class)
    for i in (1, 2):
        app.external_input(f"ext{i}{suffix}", f"sender{i}{suffix}", "input")
        app.wire(f"sender{i}{suffix}", "port1", f"merger{suffix}", "input")
    app.external_output(f"merger{suffix}", "out", f"sink{suffix}")
    return app


def _total_busy_ticks(deployment: Deployment) -> int:
    total = 0
    for engine in deployment.engines.values():
        for runtime in engine.runtimes.values():
            total += getattr(runtime.processor, "busy_ticks", 0)
    return total


def _total_frames(deployment: Deployment) -> int:
    return sum(ch.frames_sent
               for ch in deployment.network.channels().values())


def _output_gap(consumer_times: List[int], around: int) -> int:
    gap = 0
    for before, after in zip(consumer_times, consumer_times[1:]):
        if before <= around <= after or (before >= around and gap == 0):
            gap = max(gap, after - before)
    return gap


def _run_tart(duration, kill_at, seed, interarrival) -> Dict[str, Any]:
    app = _wordcount_app()
    deployment = Deployment(
        app, Placement({"sender1": "E1", "sender2": "E1", "merger": "E2"}),
        engine_config=EngineConfig(jitter=NormalTickJitter(),
                                   checkpoint_interval=ms(50)),
        default_link=LinkParams(delay=Constant(us(100))),
        control_delay=us(10), birth_of=birth_of, master_seed=seed,
    )
    factory = sentence_factory()
    for i in (1, 2):
        deployment.add_poisson_producer(f"ext{i}", factory,
                                        mean_interarrival=interarrival)
    if kill_at is not None:
        FailureInjector(deployment).kill_engine("E2", at=kill_at,
                                                detection_delay=ms(2))
    deployment.run(until=duration)
    sink = deployment.consumer("sink")
    times = [t for _s, _v, _p, t in sink.effective_outputs]
    return {
        "approach": "TART (passive replica)",
        "metrics": deployment.metrics,
        "messages": len(times),
        "busy_ticks": _total_busy_ticks(deployment),
        "frames": _total_frames(deployment),
        "checkpoint_bytes": deployment.metrics.accumulator("checkpoint_bytes"),
        "output_gap": _output_gap(times, kill_at) if kill_at else 0,
    }


def _run_active(duration, kill_at, seed, interarrival) -> Dict[str, Any]:
    # Two full copies: group A on E1a/E2a, group B on E1b/E2b, fed the
    # same inputs.  No checkpointing — redundancy IS the recovery story.
    app = Application("active")
    placement: Dict[str, str] = {}
    for suffix in ("_a", "_b"):
        copy = _wordcount_app(suffix)
        for name in copy.component_names():
            app.add_component(name, copy.component_class(name))
        for i in (1, 2):
            app.external_input(f"ext{i}{suffix}", f"sender{i}{suffix}",
                               "input")
            app.wire(f"sender{i}{suffix}", "port1", f"merger{suffix}",
                     "input")
        app.external_output(f"merger{suffix}", "out", f"sink{suffix}")
        placement.update({
            f"sender1{suffix}": f"E1{suffix}",
            f"sender2{suffix}": f"E1{suffix}",
            f"merger{suffix}": f"E2{suffix}",
        })
    deployment = Deployment(
        app, Placement(placement),
        engine_config=EngineConfig(jitter=NormalTickJitter()),
        default_link=LinkParams(delay=Constant(us(100))),
        control_delay=us(10), birth_of=birth_of, master_seed=seed,
    )
    factory = sentence_factory()
    for i in (1, 2):
        producer = MulticastProducer(
            deployment.sim,
            deployment.rng.stream(f"multicast:{i}"),
            [deployment.ingress(f"ext{i}_a"), deployment.ingress(f"ext{i}_b")],
            factory, mean_interarrival=interarrival,
        )
        deployment.start()
        producer.start()
    if kill_at is not None:
        FailureInjector(deployment).kill_engine("E2_a", at=kill_at,
                                                detection_delay=ms(2))
    deployment.run(until=duration)

    # The client merges the replica outputs, deduplicating by sequence.
    merged_times: Dict[int, int] = {}
    latencies: List[int] = []
    for suffix in ("_a", "_b"):
        for seq, _vt, payload, t in \
                deployment.consumer(f"sink{suffix}").effective_outputs:
            if seq not in merged_times or t < merged_times[seq]:
                merged_times[seq] = t
    births: Dict[int, int] = {}
    for suffix in ("_a", "_b"):
        for seq, _vt, payload, _t in \
                deployment.consumer(f"sink{suffix}").effective_outputs:
            births.setdefault(seq, payload["birth"])
    times = [merged_times[seq] for seq in sorted(merged_times)]
    latencies = [merged_times[seq] - births[seq]
                 for seq in sorted(merged_times)]
    mean_latency_us = (sum(latencies) / len(latencies) / TICKS_PER_US
                       if latencies else float("nan"))
    return {
        "approach": "active replication (2x)",
        "mean_latency_us": mean_latency_us,
        "messages": len(times),
        "busy_ticks": _total_busy_ticks(deployment),
        "frames": _total_frames(deployment),
        "checkpoint_bytes": 0,
        "output_gap": _output_gap(times, kill_at) if kill_at else 0,
    }


def _run_transactional(duration, kill_at, seed, commit_us,
                       interarrival) -> Dict[str, Any]:
    app = _wordcount_app(commit_us=commit_us)
    deployment = Deployment(
        app, Placement({"sender1": "E1", "sender2": "E1", "merger": "E2"}),
        engine_config=EngineConfig(jitter=NormalTickJitter()),
        default_link=LinkParams(delay=Constant(us(100))),
        control_delay=us(10), birth_of=birth_of, master_seed=seed,
    )
    factory = sentence_factory()
    for i in (1, 2):
        deployment.add_poisson_producer(f"ext{i}", factory,
                                        mean_interarrival=interarrival)
    deployment.run(until=duration)
    sink = deployment.consumer("sink")
    times = [t for _s, _v, _p, t in sink.effective_outputs]
    return {
        "approach": f"transactional ({commit_us}us commits)",
        "metrics": deployment.metrics,
        "messages": len(times),
        "busy_ticks": _total_busy_ticks(deployment),
        "frames": _total_frames(deployment),
        "checkpoint_bytes": 0,
        "output_gap": None,  # depends on the store's own recovery
    }


def run_alternatives(duration: int = seconds(2),
                     kill_at: Optional[int] = None,
                     commit_us: int = 100,
                     interarrival: Optional[int] = None,
                     seed: int = 0) -> List[Dict]:
    """Compare TART against active replication and transactions.

    Each approach runs twice: once failure-free (latency / compute /
    traffic numbers) and once with the merger engine killed at
    ``kill_at`` (the output-gap number).  The offered rate is sized so
    even the commit-burdened merger stays below saturation.
    """
    if kill_at is None:
        kill_at = duration // 2
    if interarrival is None:
        interarrival = int(ms(1.5))
    runners = [
        lambda ka: _run_tart(duration, ka, seed, interarrival),
        lambda ka: _run_active(duration, ka, seed, interarrival),
        lambda ka: _run_transactional(duration, None, seed, commit_us,
                                      interarrival),
    ]
    rows: List[Dict] = []
    for runner in runners:
        clean = runner(None)
        messages = max(1, clean["messages"])
        metrics = clean.get("metrics")
        mean_latency = (clean.get("mean_latency_us")
                        if metrics is None else metrics.mean_latency_us())
        if clean["approach"].startswith("transactional"):
            gap_ms = None  # recovery belongs to the transactional store
        else:
            killed = runner(kill_at)
            gap_ms = killed["output_gap"] / TICKS_PER_MS
        rows.append({
            "approach": clean["approach"],
            "mean_latency_us": mean_latency,
            "compute_us_per_msg": clean["busy_ticks"] / messages
            / TICKS_PER_US,
            "frames_per_msg": clean["frames"] / messages,
            "checkpoint_kb": clean["checkpoint_bytes"] / 1024.0,
            "output_gap_ms": gap_ms,
            "messages": clean["messages"],
        })
    return rows


def main() -> None:  # pragma: no cover - CLI convenience
    from repro.experiments.common import format_table

    rows = run_alternatives()
    print("IV — TART vs active replication vs transactions "
          "(merger engine killed mid-run)")
    print(format_table(rows))


if __name__ == "__main__":  # pragma: no cover
    main()
