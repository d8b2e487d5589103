"""The component programming model.

A component is "any piece of software that (a) receives input requests,
(b) performs processing, (c) possibly holds state, and (d) possibly sends
messages" (paper II.B).  Authors subclass :class:`Component`, declare
state cells and output ports in :meth:`Component.setup`, and register
handlers with the :func:`on_message` / :func:`on_call` decorators:

.. code-block:: python

    class Sender(Component):
        def setup(self):
            self.counts = self.state.map("counts")
            self.port1 = self.output_port("port1")

        @on_message("input", cost=LinearCost(
            per_feature={"loop": 61_000},
            features=lambda sent: {"loop": len(sent)}))
        def process_sentence(self, sent):
            count = 0
            for word in sent:
                seen = self.counts.get(word, 0)
                self.counts[word] = seen + 1
                count += seen
            self.port1.send(count)

The decorator metadata is this reproduction's analogue of the paper's
deployment-time bytecode transformation: it tells the runtime how to
compute virtual times (the cost model / estimator) and the state cells
tell it what to checkpoint.  The handler body itself stays ordinary
Python.

Restrictions enforced (paper II.B): no shared memory (all interaction
through ports; payloads are values, see :mod:`repro.core.message`), one
message at a time (the runtime serialises), no non-deterministic
operations (the only time source offered is :meth:`Component.now`, which
returns *virtual* time), and no blocking except two-way calls (``yield
port.call(...)``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.core.cost import CostModel, SegmentedCost, fixed_cost
from repro.core.ports import OutputPort, ServicePort
from repro.core.state import StateRegistry
from repro.errors import ComponentError

#: Default handler cost when none is declared: 1 µs flat.
_DEFAULT_COST_TICKS = 1_000


@dataclass
class HandlerSpec:
    """Metadata attached to a handler method by the decorators."""

    input_name: str
    cost: Any  # CostModel or SegmentedCost
    two_way: bool
    method_name: str = ""


def on_message(input_name: str, cost: Optional[Any] = None):
    """Register a method as the handler of one-way input ``input_name``."""

    def decorate(fn):
        fn._tart_handler = HandlerSpec(
            input_name=input_name,
            cost=cost if cost is not None else fixed_cost(_DEFAULT_COST_TICKS),
            two_way=False,
            method_name=fn.__name__,
        )
        return fn

    return decorate


def on_call(service_name: str, cost: Optional[Any] = None):
    """Register a method as the handler of two-way service ``service_name``.

    The handler's return value becomes the reply payload.
    """

    def decorate(fn):
        fn._tart_handler = HandlerSpec(
            input_name=service_name,
            cost=cost if cost is not None else fixed_cost(_DEFAULT_COST_TICKS),
            two_way=True,
            method_name=fn.__name__,
        )
        return fn

    return decorate


class Component:
    """Base class for user components.

    Instances are created by the deployment machinery — once on the
    active engine, and again on a replica after failover, where
    ``setup()`` re-declares the same cells/ports before the checkpoint is
    restored into them.  A component must therefore do all of its
    initialisation in :meth:`setup`, deterministically.
    """

    def __init__(self, name: str):
        self.name = name
        self.state = StateRegistry(name)
        self._output_ports: Dict[str, OutputPort] = {}
        self._runtime = None  # bound by ComponentRuntime

    # -- author-facing API ---------------------------------------------
    def setup(self) -> None:
        """Declare state cells and output ports.  Override in subclasses."""

    def output_port(self, name: str) -> OutputPort:
        """Declare a one-way output port (setup-time only)."""
        return self._declare_port(name, OutputPort(self, name))

    def service_port(self, name: str) -> ServicePort:
        """Declare a two-way service-call port (setup-time only)."""
        return self._declare_port(name, ServicePort(self, name))

    def now(self) -> int:
        """Current *virtual* time in ticks.

        This is the paper's deterministic timing service: the one
        permitted "system call".  Inside a handler it is the virtual
        time the message was dequeued at; identical on every replay.
        """
        if self._runtime is None:
            raise ComponentError(f"{self.name}: now() outside a deployed runtime")
        return self._runtime.current_vt

    # -- framework-facing API --------------------------------------------
    def _declare_port(self, name: str, port: OutputPort) -> OutputPort:
        if name in self._output_ports:
            raise ComponentError(f"{self.name}: duplicate port '{name}'")
        self._output_ports[name] = port
        return port

    def ports(self) -> Dict[str, OutputPort]:
        """All declared output/service ports by name."""
        return dict(self._output_ports)

    @classmethod
    def handler_specs(cls) -> Dict[str, HandlerSpec]:
        """Collect decorated handlers, keyed by input name.

        Scans the MRO so subclasses inherit and may override handlers.
        """
        specs: Dict[str, HandlerSpec] = {}
        for klass in reversed(cls.__mro__):
            for attr_name, attr in vars(klass).items():
                spec = getattr(attr, "_tart_handler", None)
                if spec is not None:
                    specs[spec.input_name] = spec
        return specs

    def handler_for(self, input_name: str) -> Callable:
        """The bound handler method for an input name."""
        spec = type(self).handler_specs().get(input_name)
        if spec is None:
            raise ComponentError(
                f"{self.name}: no handler registered for input '{input_name}'"
            )
        return getattr(self, spec.method_name)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
