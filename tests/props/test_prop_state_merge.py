"""Property tests: chain materialization is exact, byte for byte.

The passive replica's promotion and the divergence auditor's continuous
rebuild both stand on one identity: a full component snapshot plus any
chain of delta snapshots, folded through
:func:`~repro.runtime.state_merge.fold_chain`, must equal the direct
full snapshot taken at the end of the chain — not just structurally but
under the canonical serializer (:mod:`repro.runtime.checkpoint`), since
that is the byte comparison the auditor performs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.pipeline import build_pipeline_app, reading_factory
from repro.core.message import DataMessage
from repro.core.scheduler import encode_message
from repro.core.state import MapCell, StateRegistry, ValueCell
from repro.errors import RecoveryError
from repro.runtime import checkpoint as cpser
from repro.runtime.app import Deployment
from repro.runtime.engine import EngineConfig
from repro.runtime.placement import Placement
from repro.runtime.state_merge import (
    fold_chain,
    merge_cell,
    merge_component_snapshots,
    merge_sender,
)
from repro.sim.kernel import ms
from repro.vt.ticks import TickStreamSender

keys = st.sampled_from(["a", "b", "c", "d", "e"])
values = st.one_of(st.integers(), st.text(max_size=5),
                   st.lists(st.integers(), max_size=3))

# An op stream over one registry (a MapCell and a ValueCell) with two
# kinds of checkpoint boundaries: incremental and full.
ops = st.lists(
    st.one_of(
        st.tuples(st.just("map_set"), keys, values),
        st.tuples(st.just("map_del"), keys, st.none()),
        st.tuples(st.just("val_set"), st.none(), values),
        st.tuples(st.just("checkpoint"), st.none(), st.none()),
        st.tuples(st.just("full_checkpoint"), st.none(), st.none()),
    ),
    max_size=60,
)


def _registry() -> StateRegistry:
    reg = StateRegistry("comp")
    reg.map("m", {"a": 1})
    reg.value("v", 0)
    reg.seal()
    return reg


def _component_snapshot(reg: StateRegistry, incremental: bool,
                        vt: int) -> dict:
    """A component runtime snapshot shape around the registry's cells.

    Metadata fields carry ``vt`` so the test also proves metadata is
    taken wholesale from the newest element of the chain.
    """
    cells = reg.delta_snapshot() if incremental else reg.full_snapshot()
    return {
        "cells": cells,
        "cells_incremental": incremental,
        "component_vt": vt,
        "max_arrived_vt": vt,
        "next_call_id": vt,
        "receivers": {"peer": vt},
        "reply_receivers": {},
        "senders": {},
        "silence": {},
        "pending": [],
    }


def _apply(reg: StateRegistry, op: str, key, value) -> None:
    cells = reg.cells()
    if op == "map_set":
        cells["m"][key] = value
    elif op == "map_del":
        if key in cells["m"]:
            del cells["m"][key]
    elif op == "val_set":
        cells["v"].set(value)


@given(ops)
def test_full_plus_delta_chain_equals_direct_full(op_list):
    reg = _registry()
    base = _component_snapshot(reg, incremental=False, vt=0)
    reg.mark_clean()
    chain = []
    vt = 0
    for op, key, value in op_list:
        if op in ("checkpoint", "full_checkpoint"):
            vt += 1
            chain.append(_component_snapshot(
                reg, incremental=(op == "checkpoint"), vt=vt))
            reg.mark_clean()
        else:
            _apply(reg, op, key, value)
    # Closing delta so the live tail is always covered by the chain.
    vt += 1
    chain.append(_component_snapshot(reg, incremental=True, vt=vt))
    reg.mark_clean()

    rebuilt = fold_chain({"comp": base},
                         ({"comp": delta} for delta in chain))["comp"]
    direct = _component_snapshot(reg, incremental=False, vt=vt)
    assert cpser.dumps(rebuilt) == cpser.dumps(direct)


@given(st.dictionaries(keys, values, max_size=5), ops)
def test_merge_cell_matches_map_cell_apply_delta(initial, op_list):
    live = MapCell("m", dict(initial))
    base = live.full_snapshot()
    live.mark_clean()
    merged = base
    for op, key, value in op_list:
        if op == "map_set":
            live[key] = value
        elif op == "map_del" and key in live:
            del live[key]
        elif op in ("checkpoint", "full_checkpoint"):
            merged = merge_cell(merged, live.delta_snapshot())
            live.mark_clean()
    merged = merge_cell(merged, live.delta_snapshot())
    assert cpser.dumps(merged) == cpser.dumps(live.full_snapshot())


@given(values, values)
def test_merge_cell_value_semantics(old, new):
    cell = ValueCell("v", old)
    base = cell.full_snapshot()
    cell.mark_clean()
    # Unchanged delta keeps the base; a set adopts the new value.
    assert merge_cell(base, cell.delta_snapshot()) == base
    cell.set(new)
    assert merge_cell(base, cell.delta_snapshot()) == cell.full_snapshot()


def test_newer_full_snapshot_wins_outright():
    reg = _registry()
    old = _component_snapshot(reg, incremental=False, vt=0)
    reg.cells()["m"]["z"] = 99
    newer_full = _component_snapshot(reg, incremental=False, vt=7)
    merged = merge_component_snapshots(old, newer_full)
    assert cpser.dumps(merged) == cpser.dumps(newer_full)


def test_malformed_deltas_raise_structured_errors():
    with pytest.raises(RecoveryError):
        merge_cell({"a": 1}, (True,))  # short value-cell tuple
    with pytest.raises(RecoveryError):
        merge_cell(3, {"a": 1})  # map delta onto non-map base
    with pytest.raises(RecoveryError):
        merge_cell({"a": 1}, object())  # unknown delta shape
    reg = _registry()
    base = {"comp": _component_snapshot(reg, incremental=False, vt=0)}
    with pytest.raises(RecoveryError):
        fold_chain(base, [{"ghost": _component_snapshot(
            reg, incremental=True, vt=1)}])


# A sender's op stream: emit, trim, promise, and the two capture kinds.
sender_ops = st.lists(
    st.one_of(
        st.tuples(st.just("emit"), st.integers(1, 5)),
        st.tuples(st.just("trim"), st.integers(0, 4)),
        st.tuples(st.just("promise"), st.integers(0, 8)),
        st.tuples(st.just("bind"), st.integers(0, 8)),
        st.tuples(st.just("checkpoint"), st.none()),
        st.tuples(st.just("full_checkpoint"), st.none()),
    ),
    max_size=80,
)


@given(sender_ops, st.sampled_from([None, 3, 12]), st.booleans())
def test_sender_deltas_fold_to_the_full_entry(op_list, window, retain):
    """An incremental sender entry carries the messages emitted since
    the previous capture and the trim floor, never the retained window;
    the full entry plus the chain of such deltas folds to the full entry
    taken at the same instant, byte for byte."""
    sender = TickStreamSender(1, retain=retain)
    sender.recent_window = window
    folded = sender.snapshot(encode_message)
    mark = sender.capture_mark()
    for op, arg in op_list:
        if op == "emit":
            vt = max(sender.last_data_vt, sender.silence_promised,
                     sender.floor_vt) + arg
            sender.emit_message(DataMessage(1, sender.next_seq, vt,
                                            {"n": sender.next_seq}))
        elif op == "trim":
            sender.trim_through(sender.next_seq - 1 - arg)
        elif op in ("promise", "bind"):
            sender.promise_silence(sender.silence_promised + arg,
                                   binding=(op == "bind"))
        else:
            if op == "full_checkpoint":
                folded = cpser.loads(cpser.dumps(
                    sender.snapshot(encode_message)))
            else:
                delta = sender.delta_snapshot(mark, encode_message)
                if delta is not None:
                    assert "retained" not in delta
                    folded = merge_sender(
                        folded, cpser.loads(cpser.dumps(delta)))
            mark = sender.capture_mark()
    delta = sender.delta_snapshot(mark, encode_message)
    if delta is not None:
        folded = merge_sender(folded, delta)
    assert cpser.dumps(folded) == cpser.dumps(sender.snapshot(encode_message))


def test_an_unchanged_sender_ships_nothing():
    sender = TickStreamSender(1)
    sender.emit_message(DataMessage(1, 0, 5, None))
    mark = sender.capture_mark()
    assert sender.delta_snapshot(mark, encode_message) is None
    sender.trim_through(0)
    delta = sender.delta_snapshot(mark, encode_message)
    assert delta["appended"] == [] and delta["trim_floor"] == 1


def test_a_malformed_sender_delta_is_a_recovery_error():
    with pytest.raises(RecoveryError):
        merge_sender({"retained": []}, {"appended": []})


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2**16), st.sampled_from([1, 10]),
       st.sampled_from([2, 4, 8]), st.sampled_from([3, 7, 25]),
       st.lists(st.integers(1, 40), min_size=1, max_size=6))
def test_a_live_chain_folds_to_a_full_capture(seed, window, full_every,
                                              interval_ms, pauses_ms):
    """A replicated pipeline whose auditor byte-diffs the folded chain
    plus a fresh delta against a full capture at every capture (``raise``
    mode), and again at arbitrary instants between captures; at the end
    the follower's folded chain equals a full capture of the engine."""
    app = build_pipeline_app(window=window)
    dep = Deployment(
        app, Placement({"parser": "E1", "enricher": "E1",
                        "aggregator": "E2"}),
        engine_config=EngineConfig(checkpoint_interval=ms(interval_ms),
                                   full_checkpoint_every=full_every,
                                   audit="raise"),
        master_seed=seed,
    )
    dep.add_poisson_producer("readings", reading_factory(),
                             mean_interarrival=ms(1), max_messages=150)
    engine = dep.engine("E1")
    for pause in pauses_ms:
        dep.run(until=dep.sim.now + ms(pause))
        if engine.auditor.due() and not any(
                rt.mid_call for rt in engine.runtimes.values()):
            assert engine.auditor.audit_once() == "clean"
    dep.run(until=dep.sim.now + ms(400))  # traffic over, acks settled
    cp_seq = engine.capture_checkpoint()
    dep.run(until=dep.sim.now + ms(2))
    live = {name: rt.snapshot(incremental=False)
            for name, rt in engine.runtimes.items()}
    replica = dep.followers["E1"][0]
    assert replica.last_cp_seq >= cp_seq
    assert cpser.dumps(replica.materialize()) == cpser.dumps(live)
    assert engine.auditor.checks > 0
