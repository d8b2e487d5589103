"""Real-time clock adapter: tick mapping and the simulator pump."""

import asyncio
import time

import pytest

from repro.errors import SimulationError
from repro.net.clock import RealtimeClock, RealtimeKernel
from repro.sim.kernel import Simulator


def test_clock_requires_positive_speed():
    with pytest.raises(SimulationError):
        RealtimeClock(0.0)


def test_clock_is_zero_before_epoch():
    clock = RealtimeClock(1.0)
    assert not clock.started
    assert clock.ticks() == 0
    clock.set_epoch(time.time() + 100)
    assert clock.ticks() == 0  # epoch in the future


def test_clock_maps_elapsed_seconds_to_ticks():
    clock = RealtimeClock(0.5)  # half a tick per ns
    clock.set_epoch(time.time() - 1.0)  # one second ago
    ticks = clock.ticks()
    assert 0.4e9 < ticks < 0.7e9
    # seconds_until inverts the mapping.
    assert clock.seconds_until(ticks + int(0.5e9)) == pytest.approx(
        1.0, abs=0.2
    )


def test_pump_runs_timers_at_real_time():
    async def scenario():
        sim = Simulator()
        clock = RealtimeClock(1.0)  # 1e9 ticks per second
        kernel = RealtimeKernel(sim, clock)
        fired = []
        sim.after(int(0.05e9), lambda: fired.append(sim.now), "t1")
        sim.after(int(10e9), lambda: fired.append("late"), "t2")
        clock.set_epoch(time.time())
        pump = asyncio.get_running_loop().create_task(kernel.run())
        await asyncio.sleep(0.15)
        kernel.stop()
        await pump
        return fired

    fired = asyncio.run(scenario())
    assert fired == [int(0.05e9)]  # first timer ran, far one did not


def test_pump_inject_runs_at_current_tick():
    async def scenario():
        sim = Simulator()
        clock = RealtimeClock(1.0)
        kernel = RealtimeKernel(sim, clock)
        seen = []
        clock.set_epoch(time.time())
        pump = asyncio.get_running_loop().create_task(kernel.run())
        await asyncio.sleep(0.03)
        kernel.inject(lambda: seen.append(sim.now))
        await asyncio.sleep(0.05)
        kernel.stop()
        await pump
        return sim, seen

    sim, seen = asyncio.run(scenario())
    assert len(seen) == 1
    # The injected handler observed the simulator already advanced to
    # (at least) the injection-time real tick.
    assert seen[0] >= int(0.02e9)
    assert seen[0] <= sim.now


def test_pump_pauses_under_congestion():
    async def scenario():
        sim = Simulator()
        clock = RealtimeClock(1.0)
        congested = {"flag": True}
        kernel = RealtimeKernel(sim, clock,
                                congestion_check=lambda: congested["flag"])
        fired = []
        sim.after(int(0.01e9), lambda: fired.append(True), "t")
        clock.set_epoch(time.time())
        pump = asyncio.get_running_loop().create_task(kernel.run())
        await asyncio.sleep(0.08)
        assert fired == []  # congestion froze virtual time
        congested["flag"] = False
        await asyncio.sleep(0.08)
        kernel.stop()
        await pump
        return fired, kernel

    fired, kernel = asyncio.run(scenario())
    assert fired == [True]
    assert kernel.congestion_pauses > 0


# -- lifecycle contract (the cluster harness and bench/layers.py rely on it)

def test_raising_callback_makes_run_raise_it():
    class Boom(Exception):
        pass

    def explode():
        raise Boom("pumped")

    async def scenario():
        kernel = RealtimeKernel(Simulator(), RealtimeClock(1.0))
        kernel.clock.set_epoch(time.time())
        pump = asyncio.get_running_loop().create_task(kernel.run())
        await asyncio.sleep(0.01)
        kernel.inject(explode)
        with pytest.raises(Boom, match="pumped"):
            await asyncio.wait_for(pump, 1.0)

    asyncio.run(scenario())


def test_items_injected_before_run_drain_on_the_first_step():
    async def scenario():
        kernel = RealtimeKernel(Simulator(), RealtimeClock(1.0))
        kernel.clock.set_epoch(time.time())
        seen = []
        kernel.inject(lambda: seen.append(1))
        kernel.inject(lambda: seen.append(2))
        kernel.inject(kernel.stop)
        await asyncio.wait_for(kernel.run(), 1.0)
        return seen, kernel

    seen, kernel = asyncio.run(scenario())
    assert seen == [1, 2]
    assert kernel.injected == 3


def test_stop_before_run_returns_at_once():
    async def scenario():
        kernel = RealtimeKernel(Simulator(), RealtimeClock(1.0))
        seen = []
        kernel.inject(lambda: seen.append(True))
        kernel.stop()
        await asyncio.wait_for(kernel.run(), 0.1)
        return seen

    assert asyncio.run(scenario()) == []


def test_stop_twice_is_harmless():
    async def scenario():
        kernel = RealtimeKernel(Simulator(), RealtimeClock(1.0))
        kernel.clock.set_epoch(time.time())
        pump = asyncio.get_running_loop().create_task(kernel.run())
        await asyncio.sleep(0.01)
        kernel.stop()
        kernel.stop()
        await asyncio.wait_for(pump, 1.0)
        kernel.stop()

    asyncio.run(scenario())


def test_no_step_runs_after_stop_even_with_a_timer_armed():
    async def scenario():
        sim = Simulator()
        kernel = RealtimeKernel(sim, RealtimeClock(1.0))
        fired = []
        sim.after(int(0.03e9), lambda: fired.append("timer"), "t")
        kernel.clock.set_epoch(time.time())
        pump = asyncio.get_running_loop().create_task(kernel.run())
        await asyncio.sleep(0.005)  # idle, a step armed for the timer
        kernel.stop()
        await pump
        kernel.inject(lambda: fired.append("inject"))
        await asyncio.sleep(0.06)
        return fired

    assert asyncio.run(scenario()) == []
