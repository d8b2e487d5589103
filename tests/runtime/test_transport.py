"""Unit tests for the inter-node transport."""

import pytest

from repro.core.message import CuriosityProbe, DataMessage, SilenceAdvance
from repro.errors import TransportError
from repro.runtime.transport import LinkParams, Network
from repro.sim.distributions import Constant
from repro.sim.kernel import Simulator, us
from repro.sim.rng import RngRegistry


class FakeNode:
    def __init__(self, node_id, sim):
        self.node_id = node_id
        self.sim = sim
        self.alive = True
        self.received = []

    def receive(self, item):
        self.received.append((item, self.sim.now))

    def arrival_times(self):
        return [t for _, t in self.received]


def make_net(**kwargs):
    sim = Simulator()
    net = Network(sim, RngRegistry(0), **kwargs)
    a, b = FakeNode("a", sim), FakeNode("b", sim)
    net.register(a)
    net.register(b)
    return sim, net, a, b


class TestRouting:
    def test_remote_delivery_through_channel(self):
        sim, net, a, b = make_net(
            default_link=LinkParams(delay=Constant(us(40))))
        net.send("a", "b", "hello")
        sim.run()
        assert [i for i, _ in b.received] == ["hello"]
        assert b.arrival_times() == [us(40)]

    def test_local_delivery_bypasses_channels(self):
        sim, net, a, b = make_net(local_delay=us(3))
        net.send("a", "a", "self")
        sim.run()
        assert [i for i, _ in a.received] == ["self"]
        assert a.arrival_times() == [us(3)]
        assert net.channels() == {}

    def test_per_pair_link_overrides_default(self):
        sim, net, a, b = make_net(
            default_link=LinkParams(delay=Constant(us(500))))
        net.set_link("a", "b", LinkParams(delay=Constant(us(10))))
        net.send("a", "b", "fast")
        sim.run()
        assert b.arrival_times() == [us(10)]

    def test_unknown_node_rejected(self):
        sim, net, a, b = make_net()
        with pytest.raises(TransportError):
            net.node("zz")

    def test_fifo_order_per_pair(self):
        sim, net, a, b = make_net(
            default_link=LinkParams(delay=Constant(us(40))))
        for i in range(5):
            net.send("a", "b", i)
        sim.run()
        assert [i for i, _ in b.received] == [0, 1, 2, 3, 4]


class TestControlDelay:
    def test_probes_and_silence_get_control_delay(self):
        sim, net, a, b = make_net(control_delay=us(10))
        net.send("a", "a", CuriosityProbe(1, 100))
        sim.run()
        net.send("a", "a", SilenceAdvance(1, 100))
        sim.run()
        assert a.arrival_times() == [us(10), us(20)]

    def test_data_local_delivery_has_local_delay_only(self):
        sim, net, a, b = make_net(control_delay=us(10), local_delay=0)
        net.send("a", "a", DataMessage(1, 0, 5, "x"))
        sim.run()
        assert a.arrival_times() == [0]

    def test_remote_control_adds_on_top_of_channel(self):
        sim, net, a, b = make_net(
            default_link=LinkParams(delay=Constant(us(40))),
            control_delay=us(10))
        net.send("a", "b", CuriosityProbe(1, 100))
        sim.run()
        assert b.arrival_times() == [us(50)]


class TestFailure:
    def test_delivery_to_dead_node_dropped(self):
        sim, net, a, b = make_net()
        b.alive = False
        net.send("a", "b", "lost")
        sim.run()
        assert b.received == []

    def test_fail_node_resets_channels(self):
        sim, net, a, b = make_net(
            default_link=LinkParams(delay=Constant(us(100))))
        net.send("a", "b", "in-flight")
        sim.run(until=us(10))
        b.alive = False
        net.fail_node("b")
        b.alive = True
        net.send("a", "b", "after")
        sim.run()
        assert [i for i, _ in b.received] == ["after"]

    def test_replacing_a_node(self):
        sim, net, a, b = make_net()
        replacement = FakeNode("b", sim)
        net.register(replacement)
        net.send("a", "b", "x")
        sim.run()
        assert replacement.received and not b.received

    def test_an_outage_on_one_default_link_leaves_the_others_up(self):
        sim, net, a, b = make_net(
            default_link=LinkParams(delay=Constant(us(40))))
        c, d = FakeNode("c", sim), FakeNode("d", sim)
        net.register(c)
        net.register(d)
        net.link_fault("a", "b").down = True
        net.send("a", "b", "cut")
        net.send("c", "d", "through")
        sim.run(until=us(100))
        assert b.received == []
        assert [i for i, _ in d.received] == ["through"]
        assert net.link_fault("c", "d").down is False

    def test_link_fault_with_frames_in_flight_raises(self):
        sim, net, a, b = make_net(
            default_link=LinkParams(delay=Constant(us(40))))
        net.send("a", "b", "x")
        assert net.channels()[("a", "b")].perfect
        with pytest.raises(TransportError, match="a->b"):
            net.link_fault("a", "b")
        sim.run(until=us(81))
        net.link_fault("a", "b").down = True
        assert not net.channels()[("a", "b")].perfect

    def test_link_fault_accessor(self):
        sim, net, a, b = make_net()
        fault = net.link_fault("a", "b")
        fault.loss_prob = 1.0
        net.send("a", "b", "dropped?")  # reliable channel retransmits
        # With 100% loss nothing ever arrives; cap the run.
        sim.run(max_events=500)
        assert b.received == []
