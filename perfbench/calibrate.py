"""A fixed pure-Python loop that measures how fast this host runs right now.

The benchmark's host shares its cores with other tenants, and its speed
drifts by tens of percent over minutes.  :func:`calibrate` runs a fixed
amount of interpreter work shaped like a discrete-event loop (a binary heap
of small slotted objects, bound-method dispatch, dict updates) that calls
no code of the program under test, so a slower host slows both alike.  It
runs in the benchmark's own process, between the program's phases, so the
program's state (its heap, the allocator's arenas, the caches it leaves
warm or cold) can still move it, and a scaled time can move for that
reason as well as for the program's speed.  The benchmark therefore prints
the unscaled host values next to the scaled ones, and
``perfbench/SPREAD.md`` compares the spread of both.  :class:`HostClock`
stands in where a phase is timed but not scaled (traced passes).
"""

from __future__ import annotations

import gc
import heapq
import itertools
import multiprocessing
import time


class _Token:
    __slots__ = ("when", "owner", "hops")

    def __init__(self, when: float, owner: "_Owner"):
        self.when = when
        self.owner = owner
        self.hops = 0


class _Owner:
    def __init__(self, key: int):
        self.key = key
        self.seen: dict[int, float] = {}

    def handle(self, token: _Token, heap: list, seq) -> None:
        token.hops += 1
        self.seen[token.hops & 63] = token.when
        if token.hops < 4:
            heapq.heappush(heap, (token.when + 1.0 + (self.key & 7) * 0.125,
                                  next(seq), token))


def calibrate(rounds: int = 10000) -> float:
    """Seconds this host takes for the fixed loop.  The cyclic collector
    is off meanwhile (the loop makes no cycles), so the program's heap
    cannot change the calibration's cost."""
    gc.disable()
    try:
        owners = [_Owner(key) for key in range(64)]
        heap: list = []
        seq = itertools.count()
        started = time.perf_counter()
        for r in range(rounds):
            heapq.heappush(heap, (r * 0.01, next(seq),
                                  _Token(r * 0.01, owners[r & 63])))
            while len(heap) > 128:
                token = heapq.heappop(heap)[2]
                token.owner.handle(token, heap, seq)
        while heap:
            token = heapq.heappop(heap)[2]
            token.owner.handle(token, heap, seq)
        return time.perf_counter() - started
    finally:
        gc.enable()


def _calibrate_into(barrier, queue) -> None:
    barrier.wait()
    queue.put(calibrate())


def calibrate_cores(cores: int) -> float:
    """Mean seconds of ``cores`` copies of the fixed loop run at once, one
    per forked process: the host's speed for work spread over that many
    cores, such as the campaign's process pool."""
    ctx = multiprocessing.get_context("fork")
    barrier, queue = ctx.Barrier(cores), ctx.SimpleQueue()
    procs = [ctx.Process(target=_calibrate_into, args=(barrier, queue))
             for _ in range(cores)]
    for proc in procs:
        proc.start()
    samples = [queue.get() for _ in procs]
    for proc in procs:
        proc.join()
    return sum(samples) / cores


#: Calibration time of the reference host speed the benchmark's times are
#: scaled to (about this machine's typical value).
REFERENCE_S = 0.05


class Speedometer:
    """Calibrates at the boundaries of timed phases.

    Each phase is scaled by ``REFERENCE_S`` over the mean of the
    calibrations just before and just after it, which turns its host
    seconds into seconds at the reference speed.  With ``cores`` above 1
    each calibration is :func:`calibrate_cores`, for phases that run on
    that many cores; otherwise it is :func:`calibrate`, in-process.
    """

    def __init__(self, cores: int = 1):
        self.cores = cores
        self.samples = [self._calibrate()]

    def _calibrate(self) -> float:
        return calibrate() if self.cores == 1 else calibrate_cores(self.cores)

    def close(self) -> float:
        """End the current phase and return its scale factor."""
        self.samples.append(self._calibrate())
        return REFERENCE_S / ((self.samples[-2] + self.samples[-1]) / 2)


class HostClock:
    """A :class:`Speedometer` that never calibrates: every phase keeps its
    host seconds (scale factor 1)."""

    def __init__(self):
        self.samples: list[float] = []

    def close(self) -> float:
        return 1.0
