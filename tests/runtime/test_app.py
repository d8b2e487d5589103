"""Unit tests for the application builder and deployment wiring."""

import pytest

from repro.apps.wordcount import birth_of, build_wordcount_app, sentence_factory
from repro.core.component import Component, on_message
from repro.core.cost import fixed_cost
from repro.errors import WiringError
from repro.runtime.app import Application, Deployment
from repro.runtime.engine import EngineConfig
from repro.runtime.placement import Placement, single_engine_placement
from repro.sim.kernel import ms, us


class Src(Component):
    def setup(self):
        self.out = self.output_port("out")

    @on_message("input", cost=fixed_cost(us(10)))
    def handle(self, payload):
        self.out.send(payload)


class Dst(Component):
    def setup(self):
        self.seen = self.state.value("seen", [])

    @on_message("input", cost=fixed_cost(us(10)))
    def handle(self, payload):
        self.seen.set(self.seen.get() + [payload])


class TestApplicationDeclaration:
    def test_duplicate_component_rejected(self):
        app = Application("t")
        app.add_component("a", Src)
        with pytest.raises(WiringError):
            app.add_component("a", Src)

    def test_non_component_class_rejected(self):
        app = Application("t")
        with pytest.raises(WiringError):
            app.add_component("a", dict)

    def test_wire_unknown_component_rejected(self):
        app = Application("t")
        app.add_component("a", Src)
        with pytest.raises(WiringError):
            app.wire("a", "out", "missing", "input")

    def test_duplicate_external_ids_rejected(self):
        app = Application("t")
        app.add_component("a", Src)
        app.external_input("in", "a", "input")
        with pytest.raises(WiringError):
            app.external_input("in", "a", "input")
        app.external_output("a", "out", "sink")
        with pytest.raises(WiringError):
            app.external_output("a", "out", "sink")

    def test_component_names_in_order(self):
        app = Application("t")
        app.add_component("z", Src)
        app.add_component("a", Dst)
        assert app.component_names() == ["z", "a"]


def simple_app():
    app = Application("t")
    app.add_component("src", Src)
    app.add_component("dst", Dst)
    app.external_input("in", "src", "input")
    app.wire("src", "out", "dst", "input")
    return app


class TestDeployment:
    def test_placement_must_cover_components(self):
        app = simple_app()
        with pytest.raises(WiringError):
            Deployment(app, Placement({"src": "E1"}))

    def test_end_to_end_delivery(self):
        app = simple_app()
        dep = Deployment(app, single_engine_placement(app.component_names()))
        dep.start()
        dep.ingress("in").offer("hello")
        dep.run(until=ms(1))
        assert dep.runtime("dst").component.seen.get() == ["hello"]

    def test_accessors(self):
        app = build_wordcount_app(2)
        dep = Deployment(app, single_engine_placement(app.component_names()),
                         birth_of=birth_of)
        assert dep.engine("engine0").engine_id == "engine0"
        assert dep.consumer("sink").node_id == "sink"
        assert dep.ingress("ext1").spec.dst_component == "sender1"
        assert dep.runtime("merger").component.name == "merger"

    def test_wire_ids_unique_and_routed(self):
        app = build_wordcount_app(2)
        dep = Deployment(app, single_engine_placement(app.component_names()))
        ids = dep.router.wire_ids()
        assert len(ids) == len(set(ids)) == 5  # 2 ext_in + 2 data + 1 ext_out

    def test_remote_wire_gets_link_mean_delay_estimate(self):
        from repro.runtime.transport import LinkParams
        from repro.sim.distributions import Constant

        app = simple_app()
        dep = Deployment(
            app, Placement({"src": "E1", "dst": "E2"}),
            default_link=LinkParams(delay=Constant(us(200))),
        )
        spec = next(s for wid in dep.router.wire_ids()
                    for s in [dep.router.spec(wid)] if s.kind == "data")
        assert spec.delay_estimator.estimate({}) == us(200)

    def test_local_wire_zero_delay_estimate(self):
        app = simple_app()
        dep = Deployment(app, single_engine_placement(app.component_names()))
        spec = next(s for wid in dep.router.wire_ids()
                    for s in [dep.router.spec(wid)] if s.kind == "data")
        assert spec.delay_estimator.estimate({}) == 0

    def test_producers_added_before_or_after_start(self):
        app = simple_app()
        dep = Deployment(app, single_engine_placement(app.component_names()))
        dep.add_poisson_producer("in", lambda r, i, n: i,
                                 mean_interarrival=us(100), max_messages=3)
        dep.start()
        late = dep.add_poisson_producer("in", lambda r, i, n: 100 + i,
                                        mean_interarrival=us(100),
                                        max_messages=2)
        dep.run(until=ms(10))
        assert dep.runtime("dst").component.seen.get()  # both produced
        assert late.produced == 2

    def test_engine_per_engine_config(self):
        app = simple_app()
        dep = Deployment(
            app, Placement({"src": "E1", "dst": "E2"}),
            engine_config=EngineConfig(mode="deterministic"),
            engine_configs={"E2": EngineConfig(mode="nondeterministic")},
        )
        assert dep.engine("E1").config.mode == "deterministic"
        assert dep.engine("E2").config.mode == "nondeterministic"

    def test_deterministic_reruns_are_identical(self):
        def run_once():
            app = simple_app()
            dep = Deployment(app,
                             single_engine_placement(app.component_names()),
                             master_seed=77)
            dep.add_poisson_producer("in", lambda r, i, n: i,
                                     mean_interarrival=us(50),
                                     max_messages=50)
            dep.run(until=ms(100))
            return dep.runtime("dst").component.seen.get()

        assert run_once() == run_once()
