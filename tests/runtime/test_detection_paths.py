"""The detector's two ways to a verdict besides the beat itself: any
checkpoint from the engine is proof of life, and a crash confirmed on
the sockets promotes without waiting out the timeout."""

from repro.core.message import CheckpointData
from repro.runtime import checkpoint as cpser
from repro.runtime.detector import HeartbeatDetector
from repro.runtime.replica import PassiveReplica
from repro.sim.kernel import Simulator, ms

from tests.runtime.test_detector import deployment_with_heartbeats


class RemoteEngine:
    """A stand-in for an engine hosted in another process."""

    alive = True


class RecoveryStub:
    def __init__(self, sim, engine):
        self.sim = sim
        self.calls = []
        self.busy = set()
        self.deployment = type("Dep", (), {"engines": {"E1": engine}})()

    def in_progress(self, engine_id):
        return engine_id in self.busy

    def engine_failed(self, engine_id, detection_delay=0):
        self.calls.append((engine_id, self.sim.now))


def detector_for(engine):
    sim = Simulator()
    recovery = RecoveryStub(sim, engine)
    return sim, recovery, HeartbeatDetector(sim, recovery, "E1",
                                            interval=ms(5), miss_limit=3)


class Sent:
    def __init__(self):
        self.items = []

    def send(self, src, dst, item):
        self.items.append(item)


def test_checkpoints_keep_a_silent_heartbeat_alive():
    sim, recovery, detector = detector_for(RemoteEngine())
    replica = PassiveReplica("replica:E1", sim, Sent(), "E1")
    replica.detector = detector
    blob = cpser.dumps({"components": {}})
    detector.watch()
    # No heartbeat ever arrives; a checkpoint lands every 10 ms, inside
    # every 15 ms timeout window.
    for k in range(10):
        sim.at(k * ms(10), lambda k=k: replica.receive(
            CheckpointData("E1", k, False, blob)))
    sim.run(until=ms(100))
    assert recovery.calls == []
    assert detector.detections == 0
    sim.run(until=ms(110))  # checkpoints stop too: the timeout follows
    assert recovery.calls == [("E1", ms(90) + detector.timeout)]
    assert (detector.timeouts, detector.crash_confirmed) == (1, 0)


def test_confirm_crash_promotes_at_once():
    sim, recovery, detector = detector_for(RemoteEngine())
    detector.watch()
    sim.at(ms(2), detector.confirm_crash)
    sim.run(until=ms(10))
    assert recovery.calls == [("E1", ms(2))]
    assert (detector.crash_confirmed, detector.timeouts) == (1, 0)
    assert detector.detections == 1


def test_confirm_crash_is_a_no_op_unless_watching_and_idle():
    sim, recovery, detector = detector_for(RemoteEngine())
    detector.confirm_crash()  # not watching yet
    detector.watch()
    recovery.busy.add("E1")
    detector.confirm_crash()  # a promotion is already underway
    detector.stop()
    recovery.busy.clear()
    detector.confirm_crash()  # stopped
    assert recovery.calls == []
    assert detector.detections == detector.crash_confirmed == 0


def test_confirm_crash_never_touches_an_engine_hosted_here():
    dep = deployment_with_heartbeats()
    dep.run(until=ms(50))
    detector = dep.detectors["E2"]
    detector.confirm_crash()
    dep.run(until=ms(100))
    assert dep.engine("E2").alive
    assert dep.recovery.failover_count() == 0
    assert detector.detections == detector.crash_confirmed == 0
