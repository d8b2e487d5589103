"""A task budget for idle -> busy wake-ups, not a stopwatch.

Every live message wakes an idle :class:`~repro.net.clock.RealtimeKernel`
pump (``inject``) and an idle :class:`~repro.net.channel.OutboundChannel`
send loop (``enqueue``).  Each wake-up is one event-loop callback on a
future or a ``call_soon`` handle; a wake-up that builds an asyncio task
(``wait_for``, ``asyncio.wait`` over a waiter task) costs extra loop
iterations on every hop.  The count of tasks created repeats exactly,
so the guard cannot flake on a noisy host.
"""

import ast
import asyncio
import inspect
import time

from repro.core.message import SilenceAdvance
from repro.net import clock as clock_module
from repro.net.channel import OutboundChannel
from repro.net.clock import RealtimeClock, RealtimeKernel
from repro.net.server import ProcessRuntime
from repro.net.topology import ClusterSpec
from repro.sim.kernel import Simulator

from tests.net.test_channel import wait_until
from tests.net.test_server import StubNode, _serve

WAKES = 200


def _count_tasks(loop):
    """Install a task factory on ``loop``; returns the list it fills."""
    created = []

    def factory(loop, coro, **kwargs):
        task = asyncio.Task(coro, loop=loop, **kwargs)
        created.append(task)
        return task

    loop.set_task_factory(factory)
    return created


def test_injects_into_an_idle_pump_create_no_tasks():
    async def scenario():
        kernel = RealtimeKernel(Simulator(), RealtimeClock(1.0))
        kernel.clock.set_epoch(time.time())
        loop = asyncio.get_running_loop()
        pump = loop.create_task(kernel.run())
        await asyncio.sleep(0.01)
        ran = []
        created = _count_tasks(loop)
        for i in range(WAKES):
            kernel.inject(lambda i=i: ran.append(i))
            await asyncio.sleep(0.001)  # the pump goes idle again
        loop.set_task_factory(None)
        kernel.stop()
        await pump
        return ran, created

    ran, created = asyncio.run(scenario())
    assert ran == list(range(WAKES))
    assert created == []


def test_enqueues_onto_an_idle_channel_create_no_tasks():
    async def scenario():
        runtime = ProcessRuntime("engine-e0", ClusterSpec())
        sink = StubNode("sink")
        runtime.transport.register(sink)
        server, port = await _serve(runtime)
        loop = asyncio.get_running_loop()
        runtime.clock.set_epoch(time.time())
        pump = loop.create_task(runtime.rtk.run())
        channel = OutboundChannel("sender:1", "sink", [("127.0.0.1", port)])
        channel.start()
        await wait_until(lambda: channel.connected)
        created = _count_tasks(loop)
        for i in range(WAKES):
            channel.enqueue("src", SilenceAdvance(wire_id=1, through_vt=i))
            await wait_until(lambda: channel.items_acked == i + 1)
        loop.set_task_factory(None)
        await channel.close()
        runtime.rtk.stop()
        await pump
        server.close()
        await server.wait_closed()
        return sink, created

    sink, created = asyncio.run(scenario())
    assert [m.through_vt for m in sink.received] == list(range(WAKES))
    assert created == []


def test_pump_source_builds_no_tasks_or_events():
    tree = ast.parse(inspect.getsource(clock_module))
    names = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)}
    names |= {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name)}
    assert not names & {"wait_for", "Event", "create_task", "ensure_future"}
