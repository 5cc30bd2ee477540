"""Span tracing installed from outside the program, at class level.

:class:`SpanTracer` replaces chosen methods of each layer's classes with
wrappers that record a span (name, parent, duration) or only count calls.
It must be installed *before* a network is built: ports and the channel
bind handlers at wiring time (``radio.to_mac.connect(self._on_frame)``),
so only bound methods taken after installation go through the wrappers.

Spans are aggregated in memory by (parent span, span) edge, each with its
call count, inclusive time and self time (inclusive minus the time its
child spans cover), and written out as JSON at the end.  A layer's self
time is the sum of the self times of its spans; because every span's
duration is split exactly once between itself and its parent, the layer
self times add up to the time covered by top-level spans, which the
benchmark reconciles against its own wall clock.
"""

from __future__ import annotations

import json
import time
import types
from collections import Counter
from typing import Callable

from repro.campaign.cache import ResultCache
from repro.campaign.journal import CampaignJournal
from repro.app.cbr import CbrSource
from repro.core import backoff as _backoff
from repro.core.timer import CandidateTimer
from repro.experiments import common as _common
from repro.mac.csma import CsmaMac
from repro.net.aodv import Aodv
from repro.net.base import NetworkProtocol
from repro.net.flooding import ElectionFlooding
from repro.net.routeless import RoutelessRouting
from repro.phy.channel import Channel
from repro.phy.radio import Transceiver
from repro.sim.engine import Simulator
from repro.sim.events import Event
from repro.topology.mobility import _MobilityBase

from perfbench import cells as _cells

_ROOT = "<root>"

#: Spans: ``layer -> [(class, [method, ...])]``.  Each layer's public
#: methods, the port handlers the layer below is wired to, and the methods
#: the layer schedules as event callbacks (so the event loop's dispatch of
#: them is charged to the layer, not to ``sim``).
_NET_CLASSES = (NetworkProtocol, ElectionFlooding, RoutelessRouting, Aodv)
SPANS: dict[str, list[tuple[type, list[str]]]] = {
    "sim": [(Simulator, ["run"])],
    "phy.channel": [(Channel, ["__init__", "transmit", "move_nodes",
                               "set_positions", "neighbors",
                               "set_link_offsets", "pair_distance_m"])],
    "phy.radio": [(Transceiver, ["transmit", "_finish_tx", "begin_receive",
                                 "end_receive", "set_power",
                                 "carrier_busy"])],
    "mac": [(CsmaMac, ["send", "cancel_send", "_on_frame", "_on_carrier",
                       "_on_tx_done", "_nav_expired", "_access_fire",
                       "_on_ack_timeout", "_on_cts_timeout", "_send_cts",
                       "_send_reserved_data", "_send_ack"])],
    "core": [(CandidateTimer, ["arm", "suppress", "_fire"])] + [
        (cls, ["delay"]) for cls in vars(_backoff).values()
        if isinstance(cls, type) and issubclass(cls, _backoff.BackoffPolicy)
        and "delay" in vars(cls)],
    # Every function of the protocol classes: their event callbacks are
    # many and protocol-specific.
    "net": [(cls, [name for name, value in vars(cls).items()
                   if isinstance(value, types.FunctionType)
                   and not name.startswith("__")])
            for cls in _NET_CLASSES],
    "app": [(CbrSource, ["_tick"])],
    "topology": [(_MobilityBase, ["_tick"])],
    "campaign": [(ResultCache, ["get", "put"]),
                 (CampaignJournal, ["append"])],
}

#: Module-level functions, patched where the caller looks them up.
FUNCTIONS: dict[str, list[tuple[object, str]]] = {
    "topology": [(_common, "connected_uniform")],
    "experiments": [(_cells, "build_protocol_network")],
}

LAYERS = tuple(dict.fromkeys([*SPANS, *FUNCTIONS]))

#: Count-only wrappers (no span): ``counter name -> (class, method)``.
COUNTERS = {
    "sim.schedule": (Simulator, "schedule"),
    "sim.schedule_at": (Simulator, "schedule_at"),
    "sim.cancel": (Event, "cancel"),
}


class SpanTracer:
    """Installs span and counting wrappers; restores the originals on
    :meth:`uninstall`."""

    def __init__(self):
        #: ``(parent span, span) -> [count, inclusive_s, self_s]``.
        self.edges: dict[tuple[str, str], list] = {}
        self.counts: Counter = Counter()
        self.layer_of: dict[str, str] = {}
        self._names = [_ROOT]
        self._child = [0.0]   # child time accumulated per open span
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrappers

    def _span(self, name: str, fn: Callable) -> Callable:
        names, child, edges = self._names, self._child, self.edges
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            names.append(name)
            child.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                covered = child.pop()
                names.pop()
                child[-1] += duration
                edge = edges.get((names[-1], name))
                if edge is None:
                    edge = edges[(names[-1], name)] = [0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += duration
                edge[2] += duration - covered

        wrapper.__wrapped__ = fn
        return wrapper

    def _counting(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counting_many(self, fn: Callable) -> Callable:
        counts = self.counts

        def schedule_many(sim, items):
            items = list(items)
            counts["sim.schedule_many_items"] += len(items)
            return fn(sim, items)

        schedule_many.__wrapped__ = fn
        return schedule_many

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]
                            if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, replacement)

    # -------------------------------------------------------- install/undo

    def install(self, layers=None) -> "SpanTracer":
        """Wrap every layer, or only those named in ``layers``."""
        for layer, entries in SPANS.items():
            if layers is not None and layer not in layers:
                continue
            for cls, methods in entries:
                for method in methods:
                    name = f"{layer}.{cls.__name__}.{method}"
                    self.layer_of[name] = layer
                    self._patch(cls, method,
                                self._span(name, vars(cls)[method]))
        for layer, entries in FUNCTIONS.items():
            if layers is not None and layer not in layers:
                continue
            for module, attr in entries:
                name = f"{layer}.{attr}"
                self.layer_of[name] = layer
                self._patch(module, attr, self._span(name, getattr(module, attr)))
        if layers is None or "sim" in layers:
            for name, (cls, method) in COUNTERS.items():
                self._patch(cls, method, self._counting(name, vars(cls)[method]))
            self._patch(Simulator, "schedule_many",
                        self._counting_many(vars(Simulator)["schedule_many"]))
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- queries

    def calls(self, span: str, *, from_other_layer: bool = False) -> int:
        """Calls of one span (``layer.Class.method`` or ``layer.function``);
        ``from_other_layer`` counts only calls whose parent span belongs to
        another layer (so a ``super()`` chain counts once)."""
        layer = self.layer_of.get(span)
        return sum(edge[0] for (parent, name), edge in self.edges.items()
                   if name == span and not (
                       from_other_layer and self.layer_of.get(parent) == layer))

    def calls_matching(self, suffix: str, *, from_other_layer: bool = False) -> int:
        """Calls summed over every span whose name ends with ``suffix``."""
        return sum(self.calls(name, from_other_layer=from_other_layer)
                   for name in {n for _, n in self.edges} if name.endswith(suffix))

    def inclusive_s(self, suffix: str) -> float:
        """Inclusive seconds of the spans ending with ``suffix``, counted
        only where the parent is not the same span (no double counting)."""
        return sum(edge[1] for (parent, name), edge in self.edges.items()
                   if name.endswith(suffix) and parent != name)

    def self_s(self, suffix: str) -> float:
        return sum(edge[2] for (_, name), edge in self.edges.items()
                   if name.endswith(suffix))

    def layer_self_s(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for (_, name), edge in self.edges.items():
            layer = self.layer_of[name]
            totals[layer] = totals.get(layer, 0.0) + edge[2]
        return totals

    def write(self, path) -> None:
        """Write the aggregated spans, one record per (parent, span) edge."""
        records = [{"parent": parent, "span": name,
                    "layer": self.layer_of[name], "count": edge[0],
                    "inclusive_s": edge[1], "self_s": edge[2]}
                   for (parent, name), edge in sorted(self.edges.items())]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"edges": records, "counts": dict(self.counts)}, fh,
                      indent=1)
