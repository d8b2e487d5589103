"""Unit tests for ingresses, producers, and consumers."""

import pytest

from repro.core.estimators import CommDelayEstimator
from repro.core.message import (
    CuriosityProbe,
    DataMessage,
    ReplayRequest,
    SilenceAdvance,
    StableNotice,
)
from repro.core.ports import WireSpec
from repro.errors import StateError, TransportError
from repro.runtime.external import ExternalConsumer, ExternalIngress, PoissonProducer
from repro.runtime.metrics import MetricSet
from repro.runtime.transport import Network
from repro.sim.distributions import Constant
from repro.sim.kernel import Simulator, ms, us
from repro.sim.rng import RngRegistry


class SinkNode:
    def __init__(self, node_id, sim):
        self.node_id = node_id
        self.sim = sim
        self.alive = True
        self.items = []

    def receive(self, item):
        self.items.append((item, self.sim.now))


def make_ingress():
    sim = Simulator()
    net = Network(sim, RngRegistry(0))
    engine = SinkNode("E1", sim)
    net.register(engine)
    spec = WireSpec(7, "ext_in", None, None, "comp", "input",
                    CommDelayEstimator(0))
    ingress = ExternalIngress("ext:in", sim, net, spec, "E1")
    net.register(ingress)
    return sim, net, engine, ingress


class TestIngress:
    def test_offer_stamps_logs_and_delivers(self):
        sim, net, engine, ingress = make_ingress()
        sim.at(5_000, lambda: ingress.offer("hello"))
        sim.run()
        assert len(ingress.log) == 1
        assert ingress.log.entries_from(0) == [(0, 5_000, "hello")]
        (msg, at), = engine.items
        assert msg == DataMessage(7, 0, 5_000, "hello")
        assert at == 5_000  # zero-delay boundary

    def test_refused_payload_is_neither_logged_nor_delivered(self):
        sim, net, engine, ingress = make_ingress()
        with pytest.raises(StateError, match="wire 7: .*type object"):
            ingress.offer(object())
        sim.run()
        assert len(ingress.log) == 0 and engine.items == []

    def test_sequences_increment(self):
        sim, net, engine, ingress = make_ingress()
        assert ingress.offer("a") == 0
        assert ingress.offer("b") == 1

    def test_replay_request_resends_from_log(self):
        sim, net, engine, ingress = make_ingress()
        for p in ("a", "b", "c"):
            ingress.offer(p)
        sim.run()
        engine.items.clear()
        ingress.receive(ReplayRequest(7, 1))
        sim.run()
        payloads = [m.payload for m, _ in engine.items
                    if isinstance(m, DataMessage)]
        assert payloads == ["b", "c"]
        # Trailing silence advance closes the replay window.
        advances = [m for m, _ in engine.items
                    if isinstance(m, SilenceAdvance)]
        assert len(advances) == 1

    def test_probe_answered_with_real_time_fact(self):
        sim, net, engine, ingress = make_ingress()
        sim.at(10_000, lambda: ingress.receive(CuriosityProbe(7, 50_000)))
        sim.run()
        (adv, _), = engine.items
        assert isinstance(adv, SilenceAdvance)
        assert adv.through_vt == 10_000 - 1

    def test_stable_notice_truncates_log(self):
        sim, net, engine, ingress = make_ingress()
        for p in ("a", "b", "c"):
            ingress.offer(p)
        ingress.receive(StableNotice(7, 1))
        # Same-tick offers got bumped vts 0, 1, 2.
        assert ingress.log.entries_from(2) == [(2, 2, "c")]

    def test_unexpected_item_rejected(self):
        sim, net, engine, ingress = make_ingress()
        with pytest.raises(TransportError):
            ingress.receive("junk")


class TestPoissonProducer:
    def test_produces_expected_count(self):
        sim, net, engine, ingress = make_ingress()
        producer = PoissonProducer(
            sim, RngRegistry(1).stream("p"), ingress,
            payload_factory=lambda rng, i, now: {"i": i, "born": now},
            mean_interarrival=ms(1),
        )
        producer.start()
        sim.run(until=ms(100))
        # ~100 expected; Poisson so allow slack.
        assert 60 <= producer.produced <= 140
        assert len(ingress.log) == producer.produced

    def test_max_messages_cap(self):
        sim, net, engine, ingress = make_ingress()
        producer = PoissonProducer(
            sim, RngRegistry(1).stream("p"), ingress,
            payload_factory=lambda rng, i, now: i,
            mean_interarrival=us(10), max_messages=5,
        )
        producer.start()
        sim.run(until=ms(10))
        assert producer.produced == 5

    def test_stop_at(self):
        sim, net, engine, ingress = make_ingress()
        producer = PoissonProducer(
            sim, RngRegistry(1).stream("p"), ingress,
            payload_factory=lambda rng, i, now: i,
            mean_interarrival=us(100), stop_at=ms(1),
        )
        producer.start()
        sim.run(until=ms(10))
        assert all(vt < ms(1) for _s, vt, _p in ingress.log.entries_from(0))

    def test_stop(self):
        sim, net, engine, ingress = make_ingress()
        producer = PoissonProducer(
            sim, RngRegistry(1).stream("p"), ingress,
            payload_factory=lambda rng, i, now: i,
            mean_interarrival=us(100),
        )
        producer.start()
        sim.run(until=ms(1))
        producer.stop()
        count = producer.produced
        sim.run(until=ms(5))
        assert producer.produced == count

    def test_payload_factory_receives_now(self):
        sim, net, engine, ingress = make_ingress()
        seen = []
        producer = PoissonProducer(
            sim, RngRegistry(1).stream("p"), ingress,
            payload_factory=lambda rng, i, now: seen.append((i, now)) or i,
            mean_interarrival=us(100), max_messages=3,
        )
        producer.start()
        sim.run(until=ms(10))
        assert [i for i, _ in seen] == [0, 1, 2]
        assert all(now >= 0 for _, now in seen)


class TestExternalConsumer:
    def make_consumer(self):
        sim = Simulator()
        metrics = MetricSet()
        consumer = ExternalConsumer(
            "sink", sim, metrics,
            birth_of=lambda p: p.get("birth") if isinstance(p, dict) else None,
        )
        return sim, metrics, consumer

    def test_records_latency_from_birth(self):
        sim, metrics, consumer = self.make_consumer()
        sim.at(9_000, lambda: consumer.receive(
            DataMessage(4, 0, 8_000, {"birth": 1_000})))
        sim.run()
        assert metrics.latencies == [8_000]
        assert len(consumer) == 1

    def test_duplicates_counted_as_stutter(self):
        sim, metrics, consumer = self.make_consumer()
        msg = DataMessage(4, 0, 8_000, {"birth": 0})
        consumer.receive(msg)
        consumer.receive(msg)
        assert consumer.stutter == 1
        assert metrics.counter("output_stutter") == 1
        assert len(consumer.effective_outputs) == 1
        assert consumer.deliveries == 2
        assert consumer.stutter_outputs == [(0, 8_000, {"birth": 0}, 0)]

    def test_gap_is_a_protocol_error(self):
        sim, metrics, consumer = self.make_consumer()
        consumer.receive(DataMessage(4, 0, 1_000, {"birth": 0}))
        with pytest.raises(TransportError):
            consumer.receive(DataMessage(4, 5, 9_000, {"birth": 0}))

    def test_payloads_accessor(self):
        sim, metrics, consumer = self.make_consumer()
        consumer.receive(DataMessage(4, 0, 1_000, {"birth": 0, "x": 1}))
        consumer.receive(DataMessage(4, 1, 2_000, {"birth": 0, "x": 2}))
        assert [p["x"] for p in consumer.payloads()] == [1, 2]

    def test_effective_outputs_are_records_read_from_the_columns(self):
        sim, metrics, consumer = self.make_consumer()
        outputs = consumer.effective_outputs
        sim.at(3_000, lambda: consumer.receive(DataMessage(4, 0, 1_000, "a")))
        sim.at(5_000, lambda: consumer.receive(DataMessage(4, 1, 2_000, "b")))
        sim.run()
        # The view handed out before the deliveries follows them.
        assert outputs == [(0, 1_000, "a", 3_000), (1, 2_000, "b", 5_000)]
        assert list(outputs) == [outputs[0], outputs[-1]]
        assert outputs[1:] == [(1, 2_000, "b", 5_000)]
        assert len(outputs) == 2
        with pytest.raises(IndexError):
            outputs[2]
        assert outputs != [(0, 1_000, "a", 3_000)]
        assert consumer.arrival_ticks() == [3_000, 5_000]

    def test_unencodable_payload_is_refused_whole(self):
        sim, metrics, consumer = self.make_consumer()
        consumer.receive(DataMessage(4, 0, 1_000, {"birth": 0}))
        with pytest.raises(StateError, match="wire 4: .*type object"):
            consumer.receive(DataMessage(4, 1, 2_000, object()))
        # Nothing recorded, and seq 1 is still the one expected next.
        assert consumer.deliveries == 1 and len(consumer) == 1
        assert metrics.latencies == [0]
        consumer.receive(DataMessage(4, 1, 2_000, {"birth": 0}))
        assert consumer.payloads() == [{"birth": 0}, {"birth": 0}]
        assert consumer.stutter == 0

    def test_outputs_do_not_alias_the_delivered_payload(self):
        sim, metrics, consumer = self.make_consumer()
        payload = {"birth": 0, "items": [1]}
        consumer.receive(DataMessage(4, 0, 1_000, payload))
        payload["items"].append(2)
        assert consumer.payloads() == [{"birth": 0, "items": [1]}]
        assert consumer.effective_outputs[0][2] == {"birth": 0, "items": [1]}

    def test_non_data_items_ignored(self):
        sim, metrics, consumer = self.make_consumer()
        consumer.receive(SilenceAdvance(4, 100))
        assert len(consumer) == 0
