"""Additional scheduler unit coverage: wiring errors, publish paths,
replay plumbing, restore hygiene."""

import pytest

from repro.core.component import Component, on_message
from repro.core.cost import LinearCost
from repro.core.message import DataMessage, SilenceAdvance
from repro.errors import SchedulingError, WiringError
from repro.sim.kernel import us

from tests.helpers import Hub, wire


class Sender(Component):
    def setup(self):
        self.out = self.output_port("out")

    @on_message("input", cost=LinearCost(
        {"loop": us(60)}, features=lambda p: {"loop": p}))
    def handle(self, payload):
        self.out.send(payload)


def make(hub=None):
    hub = hub or Hub()
    runtime = hub.add(Sender("s"))
    hub.connect(wire(10, "ext_in", dst="s"), None, "s", external=True)
    hub.connect(wire(1, "data", src="s", src_port="out"), "s", None,
                port_name="out")
    return hub, runtime


class TestWiringErrors:
    def test_duplicate_in_wire(self):
        hub, runtime = make()
        with pytest.raises(WiringError):
            runtime.add_in_wire(wire(10, "ext_in", dst="s"))

    def test_duplicate_out_wire(self):
        hub, runtime = make()
        with pytest.raises(WiringError):
            runtime.add_out_wire(wire(1, "data", src="s", src_port="out"))

    def test_in_wire_without_handler(self):
        hub, runtime = make()
        with pytest.raises(WiringError):
            runtime.add_in_wire(wire(11, "data", dst="s",
                                     dst_input="no-such-input"))

    def test_data_on_unknown_wire(self):
        hub, runtime = make()
        with pytest.raises(SchedulingError):
            runtime.on_data(DataMessage(999, 0, 1, None))

    def test_silence_on_unknown_wire(self):
        hub, runtime = make()
        with pytest.raises(SchedulingError):
            runtime.on_silence(SilenceAdvance(999, 1))


class TestPublishSilence:
    def test_no_news_heartbeat_skipped(self):
        hub, runtime = make()
        hub.sim.at(us(100), lambda: None)
        hub.run()
        runtime.publish_silence(1)
        sent = hub.metrics.counter("silence_advances_sent")
        assert sent == 1
        # Immediately again with no time passed: no news, no message.
        runtime.publish_silence(1)
        assert hub.metrics.counter("silence_advances_sent") == 1

    def test_forced_answer_always_sent(self):
        hub, runtime = make()
        runtime.publish_silence(1, force=True)
        runtime.publish_silence(1, force=True)
        assert hub.metrics.counter("silence_advances_sent") == 2


class TestReplayPlumbing:
    def test_replay_out_wire_sends_trailing_fact(self):
        hub, runtime = make()
        hub.inject(10, 0, us(10), 1)
        hub.run()
        before = hub.metrics.counter("silence_advances_sent")
        count = runtime.replay_out_wire(1, 0)
        assert count == 1
        assert hub.metrics.counter("silence_advances_sent") == before + 1

    def test_request_all_replays_marks_wires_pending(self):
        hub, runtime = make()
        runtime.request_all_replays()
        assert 10 in runtime._replay_pending
        assert hub.metrics.counter("replay_requests_sent") == 1

    def test_trim_out_wire(self):
        hub, runtime = make()
        for i, vt in enumerate([us(10), us(100), us(200)]):
            hub.inject(10, i, vt, 1)
            hub.run()
        assert runtime.out_senders[1].retained_count() == 3
        assert runtime.trim_out_wire(1, 1) == 2
        assert runtime.out_senders[1].retained_count() == 1


class TestRestoreHygiene:
    def test_restore_clears_probe_and_delay_state(self):
        from repro.core.silence_policy import LazySilencePolicy

        hub = Hub()
        runtime = hub.add(Sender("m"), policy=LazySilencePolicy())
        hub.connect(wire(20, "data", dst="m"), None, "m")
        hub.connect(wire(21, "data", dst="m"), None, "m")
        hub.connect(wire(2, "data", src="m", src_port="out"), "m", None,
                    port_name="out")
        runtime.on_data(DataMessage(20, 0, us(100), 1))  # held
        assert runtime._delay_key is not None
        snap = runtime.snapshot(incremental=False)

        hub2 = Hub()
        runtime2 = hub2.add(Sender("m"), policy=LazySilencePolicy())
        hub2.connect(wire(20, "data", dst="m"), None, "m")
        hub2.connect(wire(21, "data", dst="m"), None, "m")
        hub2.connect(wire(2, "data", src="m", src_port="out"), "m", None,
                     port_name="out")
        runtime2._probe_outstanding[20] = True
        runtime2._replay_pending.add(20)
        runtime2.restore(snap)
        assert runtime2._delay_key is None
        assert not runtime2._probe_outstanding[20]
        # Pending message survived the snapshot.
        assert [m.vt for m in runtime2.in_wires[20].pending] == [us(100)]

    def test_repr_smoke(self):
        hub, runtime = make()
        assert "idle" in repr(runtime)
        hub.inject(10, 0, 0, 3)
        assert "busy" in repr(runtime)
