"""Shared test scaffolding.

:class:`Hub` wires :class:`~repro.core.scheduler.ComponentRuntime`
instances to each other directly — no engine, no network — so scheduler
unit tests can exercise dispatch/silence/probe logic in isolation with
controllable delays.  Full-stack tests use real deployments instead.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional

from repro.core.message import (
    CallReply,
    CheckpointData,
    CuriosityProbe,
    DataMessage,
    ReplayRequest,
    SilenceAdvance,
    StableNotice,
)
from repro.core.ports import WireSpec
from repro.core.scheduler import ComponentRuntime, RuntimeServices
from repro.core.silence_policy import CuriositySilencePolicy
from repro.net import codec
from repro.runtime.metrics import MetricSet
from repro.runtime.state_merge import _METADATA_FIELDS
from repro.sim.jitter import NoJitter
from repro.sim.kernel import Processor, Simulator
from repro.sim.rng import RngRegistry


class Hub:
    """Directly wires component runtimes for scheduler-level tests."""

    def __init__(self, data_delay: int = 0, control_delay: int = 0,
                 jitter=None, prescient: bool = False, seed: int = 0):
        self.sim = Simulator()
        self.metrics = MetricSet()
        self.rng = RngRegistry(seed)
        self.data_delay = data_delay
        self.control_delay = control_delay
        self.jitter = jitter or NoJitter()
        self.prescient = prescient
        self.runtimes: Dict[str, ComponentRuntime] = {}
        # wire_id -> (src_runtime_name or None, dst_runtime_name or None)
        self.wire_ends: Dict[int, tuple] = {}
        #: Messages emitted on wires with no destination (external sinks).
        self.sunk: List[DataMessage] = []

    def add(self, component, policy=None, runtime_cls=ComponentRuntime):
        """Create a runtime for a component (runs setup)."""
        component.setup()
        component.state.seal()
        services = RuntimeServices(
            sim=self.sim,
            rng=self.rng.stream(f"exec:{component.name}"),
            jitter=self.jitter,
            transmit=self._transmit,
            send_control=self._send_control,
            metrics=self.metrics,
            prescient=self.prescient,
        )
        processor = Processor(self.sim, component.name)
        policy = policy or CuriositySilencePolicy()
        runtime = runtime_cls(component, processor, services, policy)
        self.runtimes[component.name] = runtime
        return runtime

    def connect(self, spec: WireSpec, src: Optional[str], dst: Optional[str],
                port_name: Optional[str] = None, external: bool = False):
        """Register one wire between runtimes (either end may be None)."""
        self.wire_ends[spec.wire_id] = (src, dst)
        if src is not None:
            runtime = self.runtimes[src]
            runtime.add_out_wire(spec)
            if port_name is not None:
                runtime.component.ports()[port_name].attach(spec)
        if dst is not None:
            self.runtimes[dst].add_in_wire(spec, external=external)

    def _transmit(self, spec: WireSpec, msg) -> None:
        self.sim.after(self.data_delay,
                       lambda: self._deliver_data(spec, msg),
                       f"data:{spec.wire_id}")

    def _deliver_data(self, spec: WireSpec, msg) -> None:
        _src, dst = self.wire_ends[spec.wire_id]
        if dst is None:
            self.sunk.append(msg)
            return
        runtime = self.runtimes[dst]
        if isinstance(msg, CallReply):
            runtime.on_reply_msg(msg)
        else:
            runtime.on_data(msg)

    def _send_control(self, spec: WireSpec, control, toward_src: bool) -> None:
        self.sim.after(self.control_delay,
                       lambda: self._deliver_control(spec, control, toward_src),
                       f"ctl:{spec.wire_id}")

    def _deliver_control(self, spec, control, toward_src: bool) -> None:
        src, dst = self.wire_ends[spec.wire_id]
        target = src if toward_src else dst
        if target is None:
            return
        runtime = self.runtimes[target]
        if isinstance(control, SilenceAdvance):
            runtime.on_silence(control)
        elif isinstance(control, CuriosityProbe):
            runtime.on_probe(control.wire_id, control.want_vt)
        elif isinstance(control, ReplayRequest):
            runtime.replay_out_wire(control.wire_id, control.from_seq)
        elif isinstance(control, StableNotice):
            runtime.trim_out_wire(control.wire_id, control.through_seq)

    def inject(self, wire_id: int, seq: int, vt: int, payload) -> None:
        """Deliver an external data tick to the wire's destination."""
        spec = WireSpec(wire_id, "ext_in", None, None, None, None)
        msg = DataMessage(wire_id, seq, vt, payload)
        _src, dst = self.wire_ends[wire_id]
        self.runtimes[dst].on_data(msg)

    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None) -> None:
        """Drive the simulator."""
        self.sim.run(until=until, max_events=max_events)


def wire(wire_id: int, kind: str = "data", src=None, src_port=None,
         dst=None, dst_input="input", delay_estimate: int = 0) -> WireSpec:
    """Shorthand WireSpec constructor for tests."""
    from repro.core.estimators import CommDelayEstimator

    return WireSpec(
        wire_id=wire_id, kind=kind, src_component=src, src_port=src_port,
        dst_component=dst, dst_input=dst_input,
        delay_estimator=CommDelayEstimator(delay_estimate),
    )


def collected(payloads):
    """Extract the payloads from a list of DataMessages."""
    return [m.payload for m in payloads]


def cells_snapshot(cells: dict, incremental: bool) -> dict:
    """State cells in the component-snapshot shape that
    :func:`~repro.runtime.state_merge.merge_component_snapshots` folds,
    with empty runtime metadata."""
    return {"cells": cells, "cells_incremental": incremental,
            **dict.fromkeys(_METADATA_FIELDS)}


def shipped_kinds(replica) -> list:
    """A list that fills with ``(cp_seq, incremental)`` of every
    checkpoint ``replica`` receives from now on."""
    kinds = []
    receive = replica.receive

    def spy(item):
        if isinstance(item, CheckpointData):
            kinds.append((item.cp_seq, item.incremental))
        receive(item)

    replica.receive = spy
    return kinds


def profiled_calls(profile) -> int:
    """Every call a :class:`cProfile.Profile` recorded.

    ``pstats`` keys functions by ``(file, line, name)``, so functions
    that share a key — every dataclass ``__init__`` is ``<string>:2`` —
    collapse into one entry and the others' calls are lost.
    ``Profile.getstats()`` keeps one entry per code object.
    """
    return sum(entry.callcount for entry in profile.getstats())


def read_frames(*chunks: bytes) -> list:
    """Every ``(frame_tag, body)`` :func:`repro.net.codec.read_frame`
    reads from a stream fed ``chunks`` one per loop turn, then closed.

    A frame may straddle chunks; a stream torn mid-frame raises as
    ``read_frame`` does.
    """
    async def scenario():
        reader = asyncio.StreamReader()

        async def feed():
            for chunk in chunks:
                reader.feed_data(chunk)
                await asyncio.sleep(0)
            reader.feed_eof()

        feeder = asyncio.create_task(feed())
        frames = []
        try:
            while (frame := await codec.read_frame(reader)) is not None:
                frames.append(frame)
        finally:
            await feeder
        return frames

    return asyncio.run(scenario())


def item_roundtrip(msg):
    """``(frame bytes, decoded message)`` of ``msg`` sent in an ITEM
    frame, the one encoding a message has on the wire."""
    raw = codec.encode_item(0, "src", msg)
    _tag, body = codec.decode_frame_payload(raw[4:])
    (item,) = codec.batch_items(body)
    return raw, codec.decode_message(item["msg"])
