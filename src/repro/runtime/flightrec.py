"""Flight recorder: self-describing ``.replay`` bundles of recorded runs.

The paper's determinism guarantee means the pure simulation of a
:class:`~repro.net.topology.ClusterSpec` *is* the run: the networked
cluster is byte-identical to it (that equivalence is what the chaos
judge asserts).  So recording a run means recording its simulated twin —
the spec, the seeded workload or external message logs, the chaos
schedule, the checkpoint-chain manifests, and a globally indexed
RepCl-annotated event stream from an attached
:class:`~repro.vt.repcl.ReplayClockTracer`.

A bundle is a directory::

    <name>.replay/
      manifest.json     format/source/seed/ran_until/replay_mode/...
      spec.json         ClusterSpec JSON, verbatim
      schedule.json     chaos schedule (chaos bundles only)
      events.bin        RepCl-annotated event stream (canonical serializer)
      external.bin      per-input external message logs
      state.bin         final per-component state cells + digests
      streams.bin       per-sink effective output streams
      checkpoints.json  per-engine follower manifests (held cp_seq)
      metrics.json      MetricSet.dump_json() of the recorded run, less
                        its wall-clock gauges
      verdict.json      judge verdict (failure bundles)

``repro.tools.timetravel`` re-executes any bundle to an arbitrary VT and
answers causal queries over the event stream; see ``docs/timetravel.md``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.errors import ChaosError, SpecValidationError, TartError
from repro.runtime import checkpoint as cpser
from repro.vt.repcl import ReplayClockTracer

BUNDLE_FORMAT = 1
BUNDLE_SUFFIX = ".replay"


class BundleError(TartError):
    """A ``.replay`` bundle is missing, malformed, or unsupported."""


# ----------------------------------------------------------------------
# Pure encode/decode helpers (round-trip property-tested)
# ----------------------------------------------------------------------

def encode_events(events: List[Dict]) -> bytes:
    return cpser.dumps({"format": BUNDLE_FORMAT, "events": list(events)})


def decode_events(blob: bytes) -> List[Dict]:
    doc = cpser.loads(blob)
    if doc.get("format") != BUNDLE_FORMAT:
        raise BundleError(f"unsupported event-stream format "
                          f"{doc.get('format')!r}")
    return list(doc["events"])


def encode_external(logs: Dict[str, List[Tuple]],
                    truncated: Optional[Dict[str, int]] = None) -> bytes:
    return cpser.dumps({
        "format": BUNDLE_FORMAT,
        "logs": {input_id: [tuple(entry) for entry in entries]
                 for input_id, entries in logs.items()},
        "truncated": dict(truncated or {}),
    })


def decode_external(blob: bytes) -> Dict[str, List[Tuple]]:
    doc = cpser.loads(blob)
    if doc.get("format") != BUNDLE_FORMAT:
        raise BundleError(f"unsupported external-log format "
                          f"{doc.get('format')!r}")
    return {input_id: [tuple(entry) for entry in entries]
            for input_id, entries in doc["logs"].items()}


def capture_state(deployment) -> Dict:
    """Canonical per-component state document (the audit snapshot form).

    ``cpser.dumps`` of this document is the byte-identity target for
    ``timetravel seek``: two deployments that processed the same logged
    inputs to the same VT must produce identical bytes.
    """
    components: Dict[str, Dict] = {}
    for engine in deployment.engines.values():
        for name, runtime in engine.runtimes.items():
            entry: Dict = {
                "component_vt": runtime.component_vt,
                "mid_call": bool(runtime.mid_call),
            }
            if not runtime.mid_call:
                entry["cells"] = runtime.component.state.full_snapshot()
            components[name] = entry
    return {
        "components": {name: components[name] for name in sorted(components)},
        "digests": deployment.state_digest(),
    }


def external_logs_of(deployment) -> Tuple[Dict[str, List[Tuple]],
                                          Dict[str, int]]:
    """Surviving (seq, vt, payload) entries per ingress, plus GC marks."""
    logs: Dict[str, List[Tuple]] = {}
    truncated: Dict[str, int] = {}
    for input_id, ingress in deployment.ingresses.items():
        logs[input_id] = ingress.log.live_entries()
        truncated[input_id] = ingress.log.truncated_through
    return logs, truncated


def checkpoint_manifests(deployment) -> Dict:
    """Per-engine follower manifests: which checkpoint each rank holds."""
    return {
        engine_id: {
            f"rank{rank}": {"node": replica.node_id,
                            "last_cp_seq": replica.last_cp_seq}
            for rank, replica in enumerate(group)
        }
        for engine_id, group in deployment.followers.items()
    }


# ----------------------------------------------------------------------
# Recording
# ----------------------------------------------------------------------

class FlightRecorder:
    """Attach to a deployment, run it, and persist a ``.replay`` bundle."""

    def __init__(self, spec, seed: Optional[int] = None,
                 scenario: Optional[str] = None, schedule=None,
                 source: str = "sim"):
        self.spec = spec
        self.seed = seed
        self.scenario = scenario
        self.schedule = schedule
        self.source = source
        self.tracer = ReplayClockTracer()
        self._deployment = None
        self._external_override: Optional[Dict[str, List[Tuple]]] = None

    def attach(self, deployment) -> "FlightRecorder":
        self._deployment = deployment
        self.tracer.attach(deployment)
        return self

    def set_external(self, logs: Dict[str, List[Tuple]]) -> None:
        """Record these external logs instead of the ingress logs (used
        for gateway bundles, whose admission shadow log is authoritative
        and immune to checkpoint-driven truncation)."""
        self._external_override = logs

    def finalize(self, out_dir, verdict: Optional[Dict] = None) -> Path:
        if self._deployment is None:
            raise BundleError("FlightRecorder.finalize before attach")
        dep = self._deployment
        path = Path(out_dir)
        if path.suffix != BUNDLE_SUFFIX:
            path = path.with_name(path.name + BUNDLE_SUFFIX)
        path.mkdir(parents=True, exist_ok=True)

        if self._external_override is not None:
            logs, truncated = dict(self._external_override), {}
        else:
            logs, truncated = external_logs_of(dep)
        replay_mode = "workload" if self.spec.workload else "external"

        from repro.tools.verify_determinism import streams_of

        streams = streams_of(dep)
        manifest = {
            "format": BUNDLE_FORMAT,
            "kind": "replay-bundle",
            "source": self.source,
            "seed": self.seed,
            "scenario": self.scenario,
            "ran_until": dep.sim.now,
            "replay_mode": replay_mode,
            "engines": list(self.spec.engines),
            "components": sorted(dep.app.component_names()),
            "sinks": sorted(dep.consumers),
            "event_count": len(self.tracer.events),
            "external_count": sum(len(v) for v in logs.values()),
            "has_schedule": self.schedule is not None,
        }
        (path / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        (path / "spec.json").write_text(self.spec.to_json() + "\n")
        if self.schedule is not None:
            (path / "schedule.json").write_text(
                self.schedule.to_json() + "\n")
        (path / "events.bin").write_bytes(encode_events(self.tracer.events))
        (path / "external.bin").write_bytes(encode_external(logs, truncated))
        (path / "state.bin").write_bytes(cpser.dumps(capture_state(dep)))
        (path / "streams.bin").write_bytes(cpser.dumps(streams))
        (path / "checkpoints.json").write_text(
            json.dumps(checkpoint_manifests(dep), indent=2, sort_keys=True)
            + "\n")
        (path / "metrics.json").write_text(
            json.dumps(dep.metrics.dump_json(wall_clock=False), indent=2,
                       sort_keys=True)
            + "\n")
        if verdict is not None:
            (path / "verdict.json").write_text(
                json.dumps(verdict, indent=2, sort_keys=True, default=str)
                + "\n")
        return path


def record_run(spec, out_dir, schedule=None,
               external: Optional[Dict[str, List[Tuple]]] = None,
               seed: Optional[int] = None, scenario: Optional[str] = None,
               source: str = "sim",
               verdict: Optional[Dict] = None) -> Path:
    """Execute the spec's simulated twin under a recorder; write a bundle.

    Recording re-runs the simulation rather than instrumenting the live
    process tree: determinism makes the rerun byte-identical (asserted
    by the traced-vs-untraced identity tests), and it keeps the hot path
    observation-free.
    """
    from repro.net.topology import simulated_twin, twin_horizon

    recorder = FlightRecorder(spec, seed=seed, scenario=scenario,
                              schedule=schedule, source=source)
    dep = simulated_twin(spec, schedule, external)
    recorder.attach(dep)
    if external and not spec.workload:
        recorder.set_external(external)
    dep.run(until=twin_horizon(spec, schedule, external))
    return recorder.finalize(out_dir, verdict=verdict)


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------

class ReplayBundle:
    """A loaded ``.replay`` bundle (see module docstring for layout)."""

    def __init__(self, path: Path, manifest: Dict, spec, schedule,
                 events: List[Dict], external: Dict[str, List[Tuple]],
                 state_bytes: bytes, streams: Dict,
                 checkpoints: Dict, metrics: Optional[Dict],
                 verdict: Optional[Dict]):
        self.path = path
        self.manifest = manifest
        self.spec = spec
        self.schedule = schedule
        self.events = events
        self.external = external
        self.state_bytes = state_bytes
        self.streams = streams
        self.checkpoints = checkpoints
        self.metrics = metrics
        self.verdict = verdict

    @property
    def ran_until(self) -> int:
        return int(self.manifest["ran_until"])

    @property
    def state(self) -> Dict:
        return cpser.loads(self.state_bytes)

    @classmethod
    def load(cls, bundle_dir) -> "ReplayBundle":
        from repro.chaos.schedule import ChaosSchedule
        from repro.net.topology import ClusterSpec

        path = Path(bundle_dir)
        if not (path / "manifest.json").exists():
            alt = path.with_name(path.name + BUNDLE_SUFFIX)
            if (alt / "manifest.json").exists():
                path = alt
            else:
                raise BundleError(f"no replay bundle at {path}")
        manifest = json.loads((path / "manifest.json").read_text())
        if manifest.get("format") != BUNDLE_FORMAT:
            raise BundleError(f"unsupported bundle format "
                              f"{manifest.get('format')!r}")
        try:
            spec = ClusterSpec.from_json((path / "spec.json").read_text())
        except SpecValidationError as exc:
            raise BundleError(f"{path / 'spec.json'}: {exc}") from exc
        schedule = None
        if (path / "schedule.json").exists():
            try:
                schedule = ChaosSchedule.from_json(
                    (path / "schedule.json").read_text())
            except ChaosError as exc:
                raise BundleError(
                    f"{path / 'schedule.json'}: {exc}") from exc
        events = decode_events((path / "events.bin").read_bytes())
        external = decode_external((path / "external.bin").read_bytes())
        state_bytes = (path / "state.bin").read_bytes()
        streams = cpser.loads((path / "streams.bin").read_bytes())
        checkpoints = json.loads((path / "checkpoints.json").read_text())
        metrics = None
        if (path / "metrics.json").exists():
            metrics = json.loads((path / "metrics.json").read_text())
        verdict = None
        if (path / "verdict.json").exists():
            verdict = json.loads((path / "verdict.json").read_text())
        return cls(path, manifest, spec, schedule, events, external,
                   state_bytes, streams, checkpoints, metrics, verdict)
