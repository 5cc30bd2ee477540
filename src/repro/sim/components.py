"""SENSE-style component and port model.

The paper's simulator, SENSE, composes a node from components (application,
network protocol, MAC, radio) connected through typed ports.  We mirror that
structure: a :class:`Component` owns named :class:`Outport` objects that are
wired to bound methods of peer components.  The indirection keeps protocol
code ignorant of what sits above or below it — the same CSMA MAC serves
flooding, SSAF, Routeless Routing, AODV and Gradient Routing — and lets tests
wire a component to probes instead of real peers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.sim.engine import Simulator
from repro.sim.events import EventHandle
from repro.sim.rng import RandomStreams

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.observe import Observability

__all__ = ["SimContext", "Component", "Outport", "PortNotConnected"]


class PortNotConnected(RuntimeError):
    """Raised when a component sends through an unwired outport."""


class Outport:
    """A one-to-many output connector.

    Calling the port invokes every connected handler, in connection order.
    :meth:`connect` resolves :attr:`dispatch` — the lone handler itself, a
    fan-out, or a :class:`PortNotConnected` raiser — so hot paths call it
    directly.
    """

    __slots__ = ("name", "_handlers", "connected", "dispatch")

    def __init__(self, name: str):
        self.name = name
        self._handlers: list[Callable[..., None]] = []
        self.connected = False
        self.dispatch: Callable[..., None] = self._not_connected

    def connect(self, handler: Callable[..., None]) -> None:
        self._handlers.append(handler)
        self.connected = True
        self.dispatch = handler if len(self._handlers) == 1 else self._fan_out

    def __call__(self, *args: Any, **kwargs: Any) -> None:
        self.dispatch(*args, **kwargs)

    def _fan_out(self, *args: Any, **kwargs: Any) -> None:
        for handler in self._handlers:
            handler(*args, **kwargs)

    def _not_connected(self, *args: Any, **kwargs: Any) -> None:
        raise PortNotConnected(f"outport {self.name!r} is not connected")


class SimContext:
    """Everything a component needs from its environment.

    Bundles the simulator clock/scheduler, the named RNG streams and the
    observability bundle, so component constructors take a single ``ctx``
    argument.
    """

    def __init__(
        self,
        simulator: Simulator | None = None,
        streams: RandomStreams | None = None,
        obs: "Observability | None" = None,
    ):
        self.simulator = simulator if simulator is not None else Simulator()
        self.streams = streams if streams is not None else RandomStreams(0)
        #: Observability bundle (metrics registry + packet ledger); ``None``
        #: means no collection.
        self.obs = obs
        #: True when ``obs`` is collecting, fixed at construction.  Hot-path
        #: code checks this plain attribute before building any ledger or
        #: metric argument, so a run without observability pays one
        #: attribute read per instrumented site.
        self.observing = obs is not None and obs.enabled

    @property
    def now(self) -> float:
        return self.simulator.now


class Component:
    """Base class for simulation components.

    Subclasses declare outports in ``__init__`` via :meth:`outport` and
    expose inports as plain bound methods.
    """

    def __init__(self, ctx: SimContext, name: str):
        self.ctx = ctx
        self.name = name
        #: The simulator, cached so reading the clock is one attribute hop.
        self.sim = ctx.simulator

    # ------------------------------------------------------------- utilities

    def outport(self, port_name: str) -> Outport:
        return Outport(f"{self.name}.{port_name}")

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any,
                 priority: int = 0) -> EventHandle:
        return self.sim.schedule(delay, callback, *args, priority=priority)

    def rng(self, stream_suffix: str = "") -> Any:
        """The component's own RNG stream (optionally sub-named)."""
        name = self.name if not stream_suffix else f"{self.name}.{stream_suffix}"
        return self.ctx.streams.stream(name)

    @property
    def now(self) -> float:
        return self.sim.now

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name}>"
