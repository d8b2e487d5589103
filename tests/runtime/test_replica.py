"""Unit tests for passive replicas."""

import pytest

from repro.core.message import CheckpointAck, CheckpointData
from repro.errors import RecoveryError
from repro.runtime import checkpoint as cpser
from repro.runtime.replica import PassiveReplica
from repro.runtime.transport import Network
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry


class EngineStub:
    def __init__(self, node_id, sim):
        self.node_id = node_id
        self.sim = sim
        self.alive = True
        self.acks = []

    def receive(self, item):
        if isinstance(item, CheckpointAck):
            self.acks.append(item)


def component_snap(cells, incremental, vt):
    return {
        "cells": cells,
        "cells_incremental": incremental,
        "component_vt": vt,
        "max_arrived_vt": -1,
        "next_call_id": 0,
        "receivers": {},
        "reply_receivers": {},
        "senders": {},
        "silence": {"horizons": {}},
        "pending": {},
    }


def cp(engine_id, seq, incremental, components):
    blob = cpser.dumps({"components": components})
    return CheckpointData(engine_id, seq, incremental, blob)


def make_replica():
    sim = Simulator()
    net = Network(sim, RngRegistry(0))
    engine = EngineStub("E1", sim)
    net.register(engine)
    replica = PassiveReplica("replica:E1", sim, net, "E1")
    net.register(replica)
    return sim, engine, replica


class TestReplica:
    def test_acks_each_checkpoint(self):
        sim, engine, replica = make_replica()
        replica.receive(cp("E1", 1, False,
                           {"c": component_snap({"v": 1}, False, 10)}))
        sim.run()
        assert [a.cp_seq for a in engine.acks] == [1]
        assert replica.has_checkpoint
        assert replica.last_cp_seq == 1

    def test_materialize_single_full(self):
        sim, engine, replica = make_replica()
        replica.receive(cp("E1", 1, False,
                           {"c": component_snap({"v": 7}, False, 10)}))
        snaps = replica.materialize()
        assert snaps["c"]["cells"] == {"v": 7}

    def test_materialize_chain(self):
        sim, engine, replica = make_replica()
        replica.receive(cp("E1", 1, False,
                           {"c": component_snap({"v": 1, "m": {"a": 1}},
                                                False, 10)}))
        replica.receive(cp("E1", 2, True,
                           {"c": component_snap(
                               {"v": (True, 5), "m": {"b": 2}}, True, 20)}))
        snaps = replica.materialize()
        assert snaps["c"]["cells"] == {"v": 5, "m": {"a": 1, "b": 2}}
        assert snaps["c"]["component_vt"] == 20

    def test_new_full_checkpoint_resets_chain(self):
        sim, engine, replica = make_replica()
        replica.receive(cp("E1", 1, False,
                           {"c": component_snap({"v": 1}, False, 10)}))
        replica.receive(cp("E1", 2, True,
                           {"c": component_snap({"v": (True, 2)}, True, 20)}))
        replica.receive(cp("E1", 3, False,
                           {"c": component_snap({"v": 99}, False, 30)}))
        snaps = replica.materialize()
        assert snaps["c"]["cells"] == {"v": 99}
        assert replica.last_cp_seq == 3

    def test_delta_without_base_rejected(self):
        sim, engine, replica = make_replica()
        with pytest.raises(RecoveryError):
            replica.receive(cp("E1", 1, True,
                               {"c": component_snap({}, True, 0)}))

    def test_redelivered_delta_is_acked_but_not_folded_again(self):
        sim, engine, replica = make_replica()
        replica.receive(cp("E1", 1, False,
                           {"c": component_snap({"m": {}}, False, 10)}))
        replica.receive(cp("E1", 2, True,
                           {"c": component_snap({"m": {"a": 1}}, True, 20)}))
        replica.receive(cp("E1", 3, True,
                           {"c": component_snap({"m": {"a": 2}}, True, 30)}))
        # A reconnect resends the unacked tail: 2 arrives again after 3.
        replica.receive(cp("E1", 2, True,
                           {"c": component_snap({"m": {"a": 1}}, True, 20)}))
        sim.run()
        snaps = replica.materialize()
        assert snaps["c"]["cells"] == {"m": {"a": 2}}
        assert snaps["c"]["component_vt"] == 30
        assert replica.last_cp_seq == 3 and replica.duplicates == 1
        assert [a.cp_seq for a in engine.acks] == [1, 2, 3, 2]

    def test_delta_with_a_gap_rejected(self):
        sim, engine, replica = make_replica()
        replica.receive(cp("E1", 1, False,
                           {"c": component_snap({"v": 1}, False, 10)}))
        with pytest.raises(RecoveryError, match="does not follow 1"):
            replica.receive(cp("E1", 3, True,
                               {"c": component_snap({}, True, 30)}))

    def test_wrong_engine_rejected(self):
        sim, engine, replica = make_replica()
        with pytest.raises(RecoveryError):
            replica.receive(cp("E9", 1, False, {}))

    def test_materialize_without_checkpoint_rejected(self):
        sim, engine, replica = make_replica()
        with pytest.raises(RecoveryError):
            replica.materialize()
        assert replica.last_cp_seq == -1

    def test_non_checkpoint_items_ignored(self):
        sim, engine, replica = make_replica()
        replica.receive("noise")
        assert not replica.has_checkpoint

    def test_bytes_received_accounted(self):
        sim, engine, replica = make_replica()
        data = cp("E1", 1, False, {"c": component_snap({"v": 1}, False, 0)})
        replica.receive(data)
        assert replica.bytes_received == len(data.blob) > 0


class TestChainGC:
    def make_replica_with_metrics(self, threshold=4):
        from repro.runtime.metrics import MetricSet

        sim = Simulator()
        net = Network(sim, RngRegistry(0))
        engine = EngineStub("E1", sim)
        net.register(engine)
        metrics = MetricSet()
        replica = PassiveReplica("replica:E1", sim, net, "E1",
                                 metrics=metrics,
                                 gc_fold_threshold=threshold)
        net.register(replica)
        self.sim = sim
        return engine, replica, metrics

    def feed(self, replica, n_deltas):
        replica.receive(cp("E1", 0, False,
                           {"c": component_snap({"v": 0}, False, 0)}))
        for seq in range(1, n_deltas + 1):
            replica.receive(cp("E1", seq, True,
                               {"c": component_snap({"v": (True, seq)},
                                                    True, seq * 10)}))

    def test_long_delta_tail_folds_to_one_entry(self):
        engine, replica, metrics = self.make_replica_with_metrics(4)
        self.feed(replica, 20)
        assert replica.chain_len <= 4
        assert replica.gc_folds >= 1
        assert metrics.counter("replica.gc_folds") == replica.gc_folds

    def test_fold_preserves_materialized_state_and_seq(self):
        engine, replica, metrics = self.make_replica_with_metrics(3)
        self.feed(replica, 12)
        assert replica.last_cp_seq == 12
        assert replica.materialize()["c"]["cells"] == {"v": 12}
        assert replica.materialize()["c"]["component_vt"] == 120

    def test_gauges_track_chain_footprint(self):
        engine, replica, metrics = self.make_replica_with_metrics(4)
        self.feed(replica, 2)
        assert metrics.gauge_value("replica.chain_len") == replica.chain_len
        assert (metrics.gauge_value("replica.chain_bytes")
                == replica.chain_bytes > 0)
        self.feed(replica, 20)  # fresh full resets, then folds again
        assert metrics.gauge_value("replica.chain_len") == replica.chain_len
        assert replica.chain_bytes == sum(replica._chain_sizes)

    def test_chain_bytes_bounded_by_fold(self):
        engine, replica, metrics = self.make_replica_with_metrics(4)
        self.feed(replica, 50)
        # Folding keeps at most threshold entries alive; retained bytes
        # stay in the same ballpark as a handful of checkpoints, not 51.
        single = len(cpser.dumps(
            {"components": {"c": component_snap({"v": 1}, False, 10)}}
        ))
        assert replica.chain_bytes <= (replica.gc_fold_threshold + 1) * (
            2 * single
        )

    def test_acks_carry_replica_identity(self):
        engine, replica, metrics = self.make_replica_with_metrics(4)
        self.feed(replica, 3)
        self.sim.run()
        assert engine.acks and all(
            ack.replica_id == "replica:E1" for ack in engine.acks
        )
