"""Replay clocks: observe/merge semantics, bounded encoding, and the
pure-observation guarantee of the attached tracer."""

from repro.apps.wordcount import birth_of, build_wordcount_app, sentence_factory
from repro.runtime.app import Deployment
from repro.runtime.engine import EngineConfig
from repro.runtime.placement import single_engine_placement
from repro.sim.jitter import NormalTickJitter
from repro.sim.kernel import ms, us
from repro.vt.repcl import (
    DEFAULT_EPOCH_TICKS,
    RepCl,
    ReplayClockTracer,
    merge,
    merge_all,
    observe,
)


def clock(epoch=0, offsets=(), counter=0):
    return RepCl(epoch=epoch, offsets=tuple(sorted(offsets)),
                 counter=counter)


class TestObserve:
    def test_first_event_sets_epoch_from_vt(self):
        c = observe(RepCl(), index=3, vt=7 * DEFAULT_EPOCH_TICKS)
        assert c.epoch == 7
        assert c.known_epoch(3) == 7
        assert c.counter == 0

    def test_same_core_bumps_counter(self):
        c1 = observe(RepCl(), index=0, vt=5 * DEFAULT_EPOCH_TICKS)
        c2 = observe(c1, index=0, vt=5 * DEFAULT_EPOCH_TICKS)
        c3 = observe(c2, index=0, vt=5 * DEFAULT_EPOCH_TICKS)
        assert c1.core() == c2.core() == c3.core()
        assert (c1.counter, c2.counter, c3.counter) == (0, 1, 2)

    def test_epoch_advance_resets_counter(self):
        c1 = observe(RepCl(), index=0, vt=5 * DEFAULT_EPOCH_TICKS)
        c2 = observe(c1, index=0, vt=5 * DEFAULT_EPOCH_TICKS)
        c3 = observe(c2, index=0, vt=6 * DEFAULT_EPOCH_TICKS)
        assert c3.epoch == 6
        assert c3.counter == 0

    def test_observe_never_moves_knowledge_backwards(self):
        c = observe(RepCl(), index=0, vt=9 * DEFAULT_EPOCH_TICKS)
        stale = observe(c, index=0, vt=2 * DEFAULT_EPOCH_TICKS)
        assert stale.known_epoch(0) == 9

    def test_bounded_offsets_drop_stale_components(self):
        c = clock(epoch=0, offsets=((1, 0),))
        far = observe(c, index=0, vt=100 * DEFAULT_EPOCH_TICKS,
                      max_offset=8)
        # Component 1's knowledge (epoch 0) is 100 epochs behind: dropped.
        assert far.known_epoch(1) is None
        assert far.known_epoch(0) == 100

    def test_dropped_entry_still_dominated(self):
        c = clock(epoch=0, offsets=((1, 0),))
        far = observe(c, index=0, vt=100 * DEFAULT_EPOCH_TICKS,
                      max_offset=8)
        assert far.dominates(c, max_offset=8)


class TestMerge:
    def test_joins_knowledge_pointwise(self):
        a = clock(epoch=5, offsets=((0, 0), (1, 3)))  # knows 0@5, 1@2
        b = clock(epoch=4, offsets=((1, 0), (2, 1)))  # knows 1@4, 2@3
        j = merge(a, b)
        assert j.epoch == 5
        assert j.known() == {0: 5, 1: 4, 2: 3}

    def test_merge_dominates_both_inputs(self):
        a = clock(epoch=5, offsets=((0, 0), (1, 3)))
        b = clock(epoch=4, offsets=((1, 0), (2, 1)))
        j = merge(a, b)
        assert j.dominates(a) and j.dominates(b)

    def test_counter_carried_only_from_matching_core(self):
        a = clock(epoch=5, offsets=((0, 0),), counter=7)
        b = clock(epoch=3, offsets=((0, 2),), counter=9)  # same knowledge
        j = merge(a, b)
        assert j.core() == a.core()
        assert j.counter == 7  # b's core differs; its counter is dropped

    def test_merge_all_of_nothing_is_bottom(self):
        assert merge_all([]) == RepCl()


class TestEncoding:
    def test_dict_roundtrip(self):
        c = clock(epoch=12, offsets=((0, 0), (4, 7)), counter=3)
        assert RepCl.decode(c.encode()) == c

    def test_bytes_roundtrip(self):
        c = clock(epoch=12, offsets=((0, 0), (4, 7)), counter=3)
        assert RepCl.from_bytes(c.to_bytes()) == c

    def test_encoding_is_bounded_by_component_count(self):
        # Regardless of epoch magnitude, the offset map never exceeds
        # the number of components that have acted within the window.
        c = RepCl()
        for step in range(200):
            c = observe(c, index=step % 3,
                        vt=step * DEFAULT_EPOCH_TICKS, max_offset=8)
        assert len(c.offsets) <= 3


def deployment(seed=0):
    app = build_wordcount_app(2)
    dep = Deployment(app, single_engine_placement(app.component_names()),
                     engine_config=EngineConfig(jitter=NormalTickJitter()),
                     control_delay=us(10), birth_of=birth_of,
                     master_seed=seed)
    factory = sentence_factory()
    for i in (1, 2):
        dep.add_poisson_producer(f"ext{i}", factory, mean_interarrival=ms(1))
    return dep


class TestReplayClockTracer:
    def test_stamps_every_dispatch(self):
        dep = deployment()
        tracer = ReplayClockTracer().attach(dep)
        dep.run(until=ms(50))
        dispatches = [e for e in tracer.events if e["kind"] == "dispatch"]
        assert len(dispatches) > 20
        assert all("repcl" in e for e in tracer.events)

    def test_event_indices_are_globally_monotonic(self):
        dep = deployment()
        tracer = ReplayClockTracer().attach(dep)
        dep.run(until=ms(50))
        indices = [e["index"] for e in tracer.events]
        assert indices == list(range(len(indices)))

    def test_dispatch_clock_dominates_sender_clock(self):
        dep = deployment()
        tracer = ReplayClockTracer().attach(dep)
        dep.run(until=ms(50))
        sends = {(e["wire"], e["seq"]): e for e in tracer.events
                 if e["kind"] == "send"}
        checked = 0
        for e in tracer.events:
            if e["kind"] != "dispatch":
                continue
            send = sends.get((e["wire"], e["seq"]))
            if send is None:
                continue  # external root
            assert RepCl.decode(e["repcl"]).dominates(
                RepCl.decode(send["repcl"]))
            checked += 1
        assert checked > 10

    def test_a_second_tracer_does_not_detach_the_first(self):
        dep = deployment()
        first = ReplayClockTracer().attach(dep)
        second = ReplayClockTracer().attach(dep)
        dep.run(until=ms(100))
        assert len(first.events) > 100
        assert first.events == second.events

    def test_stamping_never_changes_scheduler_bytes(self):
        """The tentpole guarantee: traced and untraced runs are
        byte-identical — same outputs, same state digests."""
        plain = deployment(seed=3)
        plain.run(until=ms(200))
        traced = deployment(seed=3)
        ReplayClockTracer().attach(traced)
        traced.run(until=ms(200))
        assert traced.state_digest() == plain.state_digest()
        want = [(s, p["total"]) for s, _v, p, _t in
                plain.consumer("sink").effective_outputs]
        got = [(s, p["total"]) for s, _v, p, _t in
               traced.consumer("sink").effective_outputs]
        assert got == want
