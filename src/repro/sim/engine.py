"""The discrete-event simulation kernel.

A :class:`Simulator` owns a binary heap of scheduled events and a simulated
clock.  Components schedule callbacks at relative delays and may cancel them
through the returned :class:`~repro.sim.events.EventHandle`.

The kernel is deliberately minimal — no processes, no coroutines — because
every protocol in this reproduction is naturally written as a callback state
machine (timers armed and cancelled in response to radio events).  A heap
scheduler with lazy cancellation handles the workload's dominant pattern
(millions of armed-then-cancelled backoff timers) in O(log n) per operation.

Hot-path notes
--------------
The heap stores ``(time, priority, seq, callback, args, event)`` tuples
rather than bare :class:`~repro.sim.events.Event` objects: heap sift
comparisons then run as C tuple comparisons, never entering Python (the
unique ``seq`` breaks every tie first), and the run loop dispatches straight
off the tuple without touching the event's attributes.  :meth:`Simulator.schedule`
builds the event with ``object.__new__`` plus direct slot stores — skipping
the ``__init__`` call frame is worth ~15% of total kernel time at this call
volume — and :meth:`Simulator.run` is one inlined loop with hoisted lookups
because it is *the* inner loop of every experiment.

Lazy cancellation has a pathological mode: a cancellation storm (elections
cancel ~90% of armed timers) leaves the heap dominated by dead entries,
inflating the depth of every subsequent sift.  Cancellation therefore
notifies the scheduler (:meth:`Simulator._note_cancelled`), which
opportunistically compacts the heap — filter out cancelled entries and
re-heapify, O(n) — once they outnumber live events.  Compaction removes only
already-dead entries and re-heapifies on the same total order, so observable
event ordering is bit-identical with or without it.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Iterable

from repro.sim.events import EVENT_PRIORITY_DEFAULT, Event, EventHandle

__all__ = ["Simulator", "SimulationError"]

#: Compaction triggers once at least this many cancelled entries are heaped
#: *and* cancelled entries outnumber live ones.  The floor keeps small heaps
#: (where a full O(n) rebuild buys nothing) untouched.
_COMPACT_MIN_CANCELLED = 512

_new_event = object.__new__

#: Shared sixth-tuple-element for bulk-scheduled events, which are never
#: cancellable: lets :meth:`Simulator.schedule_many` heap entries skip event
#: allocation entirely.  Its ``cancelled`` flag is False forever.
_UNCANCELLABLE = Event(0.0, 0, -1, lambda: None)


class SimulationError(RuntimeError):
    """Raised for kernel misuse (negative delays, running a finished sim)."""


class Simulator:
    """A single-threaded discrete-event simulator.

    Parameters
    ----------
    start_time:
        Initial value of the simulated clock, in seconds.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(2.0, fired.append, "b")
    >>> _ = sim.schedule(1.0, fired.append, "a")
    >>> sim.run()
    >>> fired
    ['a', 'b']
    """

    def __init__(self, start_time: float = 0.0):
        #: Current simulated time in seconds (read-only by convention).
        self.now = float(start_time)
        self._heap: list[tuple[float, int, int, Callable[..., None], tuple, Event]] = []
        self._seq = 0
        self._running = False
        self._processed = 0
        self._cancelled = 0  # cancelled entries believed to still be heaped

    # ------------------------------------------------------------------ clock

    @property
    def events_processed(self) -> int:
        """Number of events fired so far (cancelled events excluded)."""
        return self._processed

    @property
    def pending(self) -> int:
        """Number of events still in the heap, including cancelled ones."""
        return len(self._heap)

    # ------------------------------------------------------------- scheduling

    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = EVENT_PRIORITY_DEFAULT,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        ``delay`` may be zero (the event fires this instant, after currently
        queued same-time events) but never negative — simulated time only
        moves forward.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        time = self.now + delay
        if time.__class__ is not float:  # e.g. a numpy scalar delay
            time = float(time)
        seq = self._seq
        self._seq = seq + 1
        event = _new_event(Event)
        event.time = time
        event.priority = priority
        event.seq = seq
        event.callback = callback
        event.args = args
        event.cancelled = False
        event.sim = self
        heappush(self._heap, (time, priority, seq, callback, args, event))
        return event

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = EVENT_PRIORITY_DEFAULT,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at an absolute simulated time."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time!r}, clock already at {self.now!r}"
            )
        time = float(time)
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, priority, seq, callback, args, False, self)
        heappush(self._heap, (time, priority, seq, callback, args, event))
        return event

    def schedule_many(
        self, items: Iterable[tuple[float, Callable[..., None], tuple]]
    ) -> None:
        """Bulk-schedule ``(delay, callback, args)`` triples at default
        priority, in order, without returning handles.

        This is the channel fan-out fast path: one broadcast schedules two
        events per reachable receiver, none of which is ever cancelled, so
        handle construction and delay validation are pure overhead — the
        heap entries share one immortal uncancellable sentinel and allocate
        nothing per event.  Delays must be non-negative (callers pass
        precomputed propagation delays).  Sequence numbers are assigned in
        iteration order, so firing order is identical to an equivalent
        series of :meth:`schedule` calls.
        """
        heap = self._heap
        now = self.now
        seq = self._seq
        live = _UNCANCELLABLE
        for delay, callback, args in items:
            heappush(heap, (now + delay, 0, seq, callback, args, live))
            seq += 1
        self._seq = seq

    # ------------------------------------------------------------ cancellation

    def _note_cancelled(self) -> None:
        """Called by :meth:`Event.cancel` on an event this scheduler owns.

        Keeps an (approximate — a handle cancelled after its event fired
        still counts) tally of dead heap entries and compacts the heap when
        they dominate, so cancellation storms stop inflating sift depth for
        every later operation.
        """
        self._cancelled = cancelled = self._cancelled + 1
        heap = self._heap
        if cancelled >= _COMPACT_MIN_CANCELLED and 2 * cancelled > len(heap):
            # In-place so a run() loop holding a reference keeps seeing it.
            heap[:] = [entry for entry in heap if not entry[5].cancelled]
            heapify(heap)
            self._cancelled = 0

    # ---------------------------------------------------------------- running

    def step(self) -> bool:
        """Fire the next non-cancelled event.  Returns False when drained."""
        heap = self._heap
        while heap:
            entry = heappop(heap)
            if entry[5].cancelled:
                if self._cancelled:
                    self._cancelled -= 1
                continue
            self.now = entry[0]
            self._processed += 1
            entry[3](*entry[4])
            return True
        return False

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run until the heap drains, the clock passes ``until``, or
        ``max_events`` events have fired (whichever comes first).

        When stopping on ``until``, the clock is advanced to exactly
        ``until`` so repeated ``run(until=...)`` calls tile cleanly.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        heap = self._heap
        pop = heappop
        try:
            if until is None and max_events is None:
                # Unbounded drain: the tightest loop the kernel has.
                while heap:
                    entry = pop(heap)
                    if entry[5].cancelled:
                        if self._cancelled:
                            self._cancelled -= 1
                        continue
                    self.now = entry[0]
                    self._processed += 1
                    entry[3](*entry[4])
                return
            fired = 0
            while heap:
                if max_events is not None and fired >= max_events:
                    return
                entry = heap[0]
                if entry[5].cancelled:
                    pop(heap)
                    if self._cancelled:
                        self._cancelled -= 1
                    continue
                time = entry[0]
                if until is not None and time > until:
                    break
                pop(heap)
                self.now = time
                self._processed += 1
                fired += 1
                entry[3](*entry[4])
            if until is not None and until > self.now:
                self.now = until
        finally:
            self._running = False

    def drain(self) -> None:
        """Discard every pending event without firing it."""
        self._heap.clear()
        self._cancelled = 0


def run_all(simulators: Iterable[Simulator]) -> None:
    """Convenience: run several independent simulators to completion."""
    for sim in simulators:
        sim.run()
