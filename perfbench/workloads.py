"""The benchmark's workloads: which cells each runs, how a run is timed,
and what a traced run reports per layer.

Every workload is a closed loop: one process runs its cells back to back,
pass after pass, while another pass still fits in the run's time (at least
one).  The campaign workload first times its set-up with one-cell cold
campaigns, then settles its grid through ``run_campaign`` on a 2-worker
pool (in ``COLD_CHUNKS`` campaigns into one cache), replays it warm from
the cache, and reruns the same cells serially in-process to check that all
three agree.

Every cell runs the same way (:func:`run_timed`): built, then run in slices
of simulated time, each slice's host seconds fed to a :class:`Segments`.
Calibration loops run between phases and the times are scaled to a
reference host speed (see :mod:`perfbench.calibrate`), except the campaign's
set-up probes, which no calibration steadied.  The unscaled host values are
reported alongside.
"""

from __future__ import annotations

import gc
import math
import multiprocessing
import os
import resource
import shutil
import statistics
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field

from repro.campaign import run_campaign
from repro.experiments.fig1_ssaf import Fig1Config

from perfbench.calibrate import HostClock, Speedometer
from perfbench.cells import (
    OUTPUT_KEYS,
    CellOutcome,
    CellSpec,
    build_cell,
    campaign_run_one,
    outputs_of,
)
from perfbench.tracer import LAYERS

#: Where a run keeps its scratch files (campaign cache, journals, spans),
#: relative to the checkout it runs from.
SCRATCH_DIR = ".perfbench"

#: A cell's run is timed in slices of this many simulated seconds, so
#: calibrations can be taken inside long cells.
SLICE_S = 0.25

#: Host seconds of timed work between two calibrations.
SEGMENT_S = 0.5


@dataclass
class RunResult:
    """What one run of a workload measured and checked."""
    #: End-to-end metrics, times scaled to the reference host speed (the
    #: campaign's set-up probes excepted).
    metrics: dict
    #: ``{cell label: outputs}`` of every distinct cell, for pins and digest.
    outputs: dict
    attempted: int
    failed: int
    problems: list = field(default_factory=list)
    #: The same metrics in unscaled host units.
    host_metrics: dict = field(default_factory=dict)
    #: Sample counts behind the metrics (passes, cells, set-ups).
    samples: dict = field(default_factory=dict)


@dataclass
class Timed:
    """A timed cell: host seconds, and seconds at the reference speed once
    the segments it was timed in are closed."""
    raw: CellOutcome
    scaled_s: dict = field(default_factory=lambda: {"setup": 0.0, "run": 0.0})
    #: The program's own exact counters, read after the run.
    program: Counter = field(default_factory=Counter)

    def get(self, scaled: bool) -> CellOutcome:
        if not scaled:
            return self.raw
        return CellOutcome(self.raw.spec, self.scaled_s["setup"],
                           self.scaled_s["run"], self.raw.outputs)


def _quantile(values, q: float) -> float:
    """``q``-quantile by linear interpolation between order statistics."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def peak_rss_mb(include_children: bool = False) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def sane(outputs: dict) -> bool:
    """Checks every cell's outputs must pass, whatever the seed.  A light
    campaign cell may generate no packet at all (its CBR start jitter can
    exceed its traffic window), so traffic is checked per run instead."""
    return (outputs["events_processed"] > 0
            and 0 <= outputs["delivered"] <= outputs["generated"]
            and outputs["mac_packets"] >= 0)


class Segments:
    """Timed host work split into segments of about ``SEGMENT_S`` seconds;
    closing a segment calibrates and scales every part timed in it."""

    def __init__(self, speed: Speedometer | HostClock):
        self.speed = speed
        self.pending: list[tuple[Timed, str, float]] = []
        self.pending_s = 0.0

    def add(self, cell: Timed, kind: str, host_s: float) -> None:
        self.pending.append((cell, kind, host_s))
        self.pending_s += host_s
        if self.pending_s >= SEGMENT_S:
            self.close()

    def close(self) -> None:
        if not self.pending:
            return
        scale = self.speed.close()
        for cell, kind, host_s in self.pending:
            cell.scaled_s[kind] += host_s * scale
        self.pending, self.pending_s = [], 0.0


def run_timed(spec: CellSpec, segments: Segments, fig1_config=None) -> Timed:
    """Build and run one cell, its host time fed to ``segments``.  The run
    goes in slices of simulated time so a calibration can fall inside a
    long cell; ``Simulator.run(until=...)`` calls tile exactly, so the
    outputs are those of one uninterrupted run."""
    gc.collect()
    started = time.perf_counter()
    net, duration_s = build_cell(spec, fig1_config)
    setup_s = time.perf_counter() - started
    cell = Timed(CellOutcome(spec, setup_s, 0.0, {}))
    segments.add(cell, "setup", setup_s)
    run_s = 0.0
    for i in range(1, math.ceil(duration_s / SLICE_S) + 1):
        started = time.perf_counter()
        net.run(until=min(i * SLICE_S, duration_s))
        elapsed = time.perf_counter() - started
        run_s += elapsed
        segments.add(cell, "run", elapsed)
    cell.raw = CellOutcome(spec, setup_s, run_s, outputs_of(net))
    cell.program = program_counters(net)
    return cell


def program_counters(net) -> Counter:
    """Exact counters the program keeps itself, read after a cell's run."""
    return Counter({
        "mac.tx_attempts": sum(mac.tx_attempts for mac in net.macs),
        "mac.ack_timeouts": sum(mac.ack_timeouts for mac in net.macs),
        "mac.queue_drops": sum(mac.queue.dropped for mac in net.macs),
        "net.originated": net.metrics.generated,
        "net.delivered": net.metrics.delivered,
    })


def check_outputs(result: RunResult, label: str, outputs: dict,
                  expected=()) -> None:
    """Count one attempted cell; it fails if its outputs are not sane,
    differ from an earlier run of the same cell in this process, or differ
    from any of ``expected`` (other paths' outputs of the same cell)."""
    result.attempted += 1
    first = result.outputs.setdefault(label, outputs)
    if first != outputs or not sane(outputs) or any(
            other != outputs for other in expected):
        result.failed += 1
        result.problems.append(f"{label}: outputs {outputs}, earlier "
                               f"{first}, other paths {list(expected)}")


def repeat_passes(seconds: float, run_pass) -> list:
    """Call ``run_pass()`` at least once, and again while another pass
    should still end within ``seconds`` of the start."""
    started = time.perf_counter()
    passes, pass_s = [], 0.0
    while not passes or time.perf_counter() - started + pass_s <= seconds:
        pass_started = time.perf_counter()
        passes.append(run_pass())
        pass_s = time.perf_counter() - pass_started
    return passes


class CellLoop:
    """Cells run back to back in one process, pass after pass."""

    def __init__(self, cells, setup_rounds: int, scenario_cells: int):
        self.cells = cells            # seed -> [CellSpec], scenario by scenario
        self.setup_rounds = setup_rounds
        #: Cells per scenario; a traced run covers the first scenario only.
        self.scenario_cells = scenario_cells

    # ------------------------------------------------------------- untraced

    def _setup_samples(self, specs, speed) -> list[tuple]:
        """Build every cell's network ``setup_rounds`` times, without
        running it, so set-up has several samples even in a one-pass run.
        Returns ``(host seconds, scale)`` pairs."""
        samples = []
        for _ in range(self.setup_rounds):
            for spec in specs:
                gc.collect()
                started = time.perf_counter()
                build_cell(spec)
                samples.append(time.perf_counter() - started)
        if not samples:
            return []
        scale = speed.close()
        return [(s, scale) for s in samples]

    @staticmethod
    def run_pass(specs, result: RunResult, speed) -> list[Timed]:
        """Run every cell once, timed against ``speed``."""
        timed: list[Timed] = []
        segments = Segments(speed)
        for spec in specs:
            try:
                cell = run_timed(spec, segments)
            except Exception as exc:  # noqa: BLE001 - counted, reported
                result.attempted += 1
                result.failed += 1
                result.problems.append(f"{spec.label} raised {exc!r}")
                continue
            timed.append(cell)
            check_outputs(result, spec.label, cell.raw.outputs)
        segments.close()
        return timed

    @staticmethod
    def _metrics(passes: list[list[Timed]], setups: list[tuple],
                 scaled: bool) -> dict:
        done = [t.get(scaled) for p in passes for t in p]
        setup_all = [v * k if scaled else v for v, k in setups] + [
            o.setup_s for o in done]
        cell_walls = [o.setup_s + o.run_s for o in done]
        run_s = sum(o.run_s for o in done)
        return {
            "wall_s": statistics.median(
                sum(t.get(scaled).run_s for t in p) for p in passes if p),
            "setup_s": statistics.median(setup_all),
            "events_per_s": sum(o.outputs["events_processed"]
                                for o in done) / run_s,
            "cells_per_s": len(done) / sum(cell_walls),
            "cell_wall_s.p50": _quantile(cell_walls, 0.5),
            "cell_wall_s.p90": _quantile(cell_walls, 0.9),
            "peak_rss_mb": peak_rss_mb(),
        }

    def measure(self, seed: int, seconds: float) -> RunResult:
        specs = self.cells(seed)
        result = RunResult(metrics={}, outputs={}, attempted=0, failed=0)
        started = time.perf_counter()
        speed = Speedometer()
        setups = self._setup_samples(specs, speed)
        passes = repeat_passes(seconds - (time.perf_counter() - started),
                               lambda: self.run_pass(specs, result, speed))
        if not any(passes):
            return result
        result.metrics = self._metrics(passes, setups, scaled=True)
        result.host_metrics = self._metrics(passes, setups, scaled=False)
        result.samples = {"passes": len(passes),
                          "cells": sum(len(p) for p in passes),
                          "setups": len(setups) + sum(len(p) for p in passes),
                          "calibrations": len(speed.samples)}
        return result

    # --------------------------------------------------------------- traced

    def traced(self, seed: int, tracer) -> tuple[RunResult, dict]:
        """One untraced pass over the first scenario's cells, then the same
        pass with ``tracer`` installed, whose outputs must repeat the
        untraced ones.  Returns the result and its layer report inputs."""
        specs = self.cells(seed)[:self.scenario_cells]
        result = RunResult(metrics={}, outputs={}, attempted=0, failed=0)
        plain = self.run_pass(specs, result, HostClock())
        tracer.install()
        try:
            traced = self.run_pass(specs, result, HostClock())
        finally:
            tracer.uninstall()
        report = {
            "traced_wall_s": sum(t.raw.setup_s + t.raw.run_s for t in traced),
            "untraced_wall_s": sum(t.raw.setup_s + t.raw.run_s for t in plain),
            "program": sum((t.program for t in traced), Counter()),
        }
        return result, report


# ----------------------------------------------------------- campaign sweep

def _scenario_seeds(seed: int, count: int) -> range:
    """``count`` scenario seeds per benchmark seed: 1..count for seed 1,
    count+1..2*count for seed 2, and so on."""
    return range((seed - 1) * count + 1, seed * count + 1)


#: The campaign grid: 2 protocols x 5 intervals x 12 scenarios of 3 s
#: Fig. 1 cells.  With 1 s of traffic, intervals of 1 s and 0.5 s send
#: exactly 1 and 2 packets per flow, so the cells at the median (1 s) and at
#: the 90th percentile (0.5 s) of the cell walls do the same amount of work
#: in every run.
CAMPAIGN_PROTOCOLS = ("counter1", "ssaf")
CAMPAIGN_INTERVALS_S = (0.5, 0.75, 1.0, 4.0, 8.0)
CAMPAIGN_SCENARIOS = 12
CAMPAIGN_DURATION_S = 3.0
CAMPAIGN_WORKERS = 2

#: The cold pass settles the grid in this many campaigns of equal shares
#: of its scenarios (20 cells each), all into one cache, with a two-core
#: calibration before, between and after them, so the scaling follows the
#: host's drift through the pass.
COLD_CHUNKS = 6

#: One-cell cold campaigns that time the campaign's set-up, per run.
SETUP_PROBES = 20


def campaign_config(seed: int) -> Fig1Config:
    return Fig1Config(duration_s=CAMPAIGN_DURATION_S,
                      protocols=CAMPAIGN_PROTOCOLS,
                      intervals_s=CAMPAIGN_INTERVALS_S,
                      seeds=tuple(_scenario_seeds(seed, CAMPAIGN_SCENARIOS)))


def probe_config(seed: int) -> Fig1Config:
    """The set-up probe's grid: the campaign's first cell, built but not
    simulated (0 s), so its cold campaign is set-up only: fingerprint,
    journal, cache, pool start and one network build in a worker."""
    return Fig1Config(duration_s=0.0, protocols=CAMPAIGN_PROTOCOLS[:1],
                      intervals_s=CAMPAIGN_INTERVALS_S[:1],
                      seeds=(_scenario_seeds(seed, 1)[0],))


def _specs(config: Fig1Config) -> list[CellSpec]:
    return [CellSpec("fig1", p, x, s) for p in config.protocols
            for x in config.intervals_s for s in config.seeds]


def _settled(records) -> dict:
    """``{label: outputs}`` of a campaign's settled cell records."""
    settled = {}
    for record in records:
        if record.status == "done":
            label = CellSpec("fig1", record.protocol, record.x, record.seed).label
            settled[label] = {k: record.summary.metrics[k] for k in OUTPUT_KEYS}
    return settled


def _campaign(config: Fig1Config, cache_dir: str, campaign_dir: str,
              seeds=None):
    """Settle ``config``'s grid, or its part on ``seeds``, through
    ``run_campaign`` on the pool, and wait for the pool's workers, which the
    runner does not join.  The cells' cache keys hash ``config``, so a part
    settles the same keys as the whole."""
    outcome = run_campaign(
        campaign_run_one, runner_name="perfbench.fig1",
        protocols=config.protocols, xs=config.intervals_s,
        seeds=config.seeds if seeds is None else seeds, config=config,
        cache_dir=cache_dir,
        campaign_dir=campaign_dir, workers=CAMPAIGN_WORKERS)
    for worker in multiprocessing.active_children():
        worker.join()
    return outcome


class CampaignSweep:
    """Cold campaign on a process pool, warm replay, serial in-process check.

    Two speedometers time a run: a one-core one for the serial pass, and a
    two-core one (:func:`perfbench.calibrate.calibrate_cores`) for the cold
    pass, which runs on the pool."""

    @staticmethod
    def setup_probes(seed: int, result: RunResult) -> list[float]:
        """Host seconds of ``SETUP_PROBES`` one-cell cold campaigns, each
        with a fresh cache and journal.  They are not scaled: no
        calibration narrowed their spread consistently."""
        config = probe_config(seed)
        label = _specs(config)[0].label
        samples = []
        for _ in range(SETUP_PROBES):
            scratch = tempfile.mkdtemp(prefix="probe-", dir=SCRATCH_DIR)
            try:
                gc.collect()
                started = time.perf_counter()
                outcome = _campaign(config, os.path.join(scratch, "cache"),
                                    os.path.join(scratch, "journal"))
                samples.append(time.perf_counter() - started)
            finally:
                shutil.rmtree(scratch, ignore_errors=True)
            result.attempted += 1
            if label not in _settled(outcome.records.values()):
                result.failed += 1
                result.problems.append(f"set-up probe {label} did not settle")
        return samples

    @staticmethod
    def run_pass(seed: int, result: RunResult, speed, pool_speed,
                 tracer=None) -> dict:
        """Cold, warm and serial settlement of the grid; returns timings.
        The cold pass is timed against ``pool_speed``, the serial pass
        against ``speed``; the warm replay is timed for the traced report
        only.  With ``tracer``, the campaign layer is traced through the
        cold and warm passes and every other layer through the serial
        pass."""
        config = campaign_config(seed)
        specs = _specs(config)
        per_chunk = CAMPAIGN_SCENARIOS // COLD_CHUNKS
        chunks = [config.seeds[i * per_chunk:(i + 1) * per_chunk]
                  for i in range(COLD_CHUNKS)]
        scratch = tempfile.mkdtemp(prefix="campaign-", dir=SCRATCH_DIR)
        timings = {"cold_s": 0.0, "cold_scaled_s": 0.0, "cache_hits": 0}
        cold_records, quarantined = [], 0
        try:
            if tracer is not None:
                tracer.install(["campaign"])
            cache = os.path.join(scratch, "cache")
            for i, chunk in enumerate(chunks):
                gc.collect()
                started = time.perf_counter()
                cold = _campaign(config, cache, os.path.join(scratch, f"cold{i}"),
                                 seeds=chunk)
                elapsed = time.perf_counter() - started
                timings["cold_s"] += elapsed
                timings["cold_scaled_s"] += elapsed * pool_speed.close()
                cold_records += cold.records.values()
                timings["cache_hits"] += cold.summary["cache_hits"]
                quarantined += len(cold.quarantined)
            timings["cell_walls"] = [r.wall_s for r in cold_records
                                     if r.status == "done"]
            started = time.perf_counter()
            warm = _campaign(config, cache, os.path.join(scratch, "warm"))
            timings["warm_s"] = time.perf_counter() - started
            timings["cache_lookups"] = 2 * len(specs)
            timings["cache_hits"] += warm.summary["cache_hits"]
            speed.close()   # a fresh one-core calibration opens the serial pass
            if tracer is not None:
                tracer.install([layer for layer in LAYERS
                                if layer != "campaign"])
            segments = Segments(speed)
            serial = [run_timed(spec, segments, config) for spec in specs]
            segments.close()
            timings["serial"] = serial
        finally:
            if tracer is not None:
                tracer.uninstall()
            shutil.rmtree(scratch, ignore_errors=True)

        cold_out = _settled(cold_records)
        warm_out = _settled(warm.records.values())
        for spec, timed in zip(specs, serial):
            check_outputs(result, spec.label, timed.raw.outputs,
                          (cold_out.get(spec.label), warm_out.get(spec.label)))
        if quarantined:
            result.problems.append(f"{quarantined} cells quarantined")
        if warm.summary["cache_hits"] != len(specs):
            result.problems.append(
                f"warm replay hit the cache {warm.summary['cache_hits']} "
                f"of {len(specs)} times")
        return timings

    @staticmethod
    def _metrics(passes: list[dict], probes: list[float], scaled: bool) -> dict:
        serial = [t.get(scaled) for p in passes for t in p["serial"]]
        cold = [p["cold_scaled_s"] if scaled else p["cold_s"] for p in passes]
        # Per-cell walls come from the serial in-process rerun: the pool's
        # own walls share two cores with the coordinator and the other
        # worker, and spread too widely to compare commits by.
        walls = [o.setup_s + o.run_s for o in serial]
        return {
            "wall_s": statistics.median(cold),
            "setup_s": statistics.median(probes),
            "events_per_s": (sum(o.outputs["events_processed"] for o in serial)
                             / sum(o.run_s for o in serial)),
            "cells_per_s": (sum(len(p["cell_walls"]) for p in passes)
                            / sum(cold)),
            "cell_wall_s.p50": _quantile(walls, 0.5),
            "cell_wall_s.p90": _quantile(walls, 0.9),
            "peak_rss_mb": peak_rss_mb(include_children=True),
        }

    def measure(self, seed: int, seconds: float) -> RunResult:
        result = RunResult(metrics={}, outputs={}, attempted=0, failed=0)
        os.makedirs(SCRATCH_DIR, exist_ok=True)
        started = time.perf_counter()
        probes = self.setup_probes(seed, result)
        pool_speed = Speedometer(cores=CAMPAIGN_WORKERS)
        speed = Speedometer()
        passes = repeat_passes(
            seconds - (time.perf_counter() - started),
            lambda: self.run_pass(seed, result, speed, pool_speed))
        result.metrics = self._metrics(passes, probes, scaled=True)
        result.host_metrics = self._metrics(passes, probes, scaled=False)
        result.samples = {"passes": len(passes),
                          "cells": sum(len(p["cell_walls"]) for p in passes),
                          "setups": len(probes),
                          "calibrations": len(speed.samples),
                          "pool_calibrations": len(pool_speed.samples)}
        return result

    def traced(self, seed: int, tracer) -> tuple[RunResult, dict]:
        """An untraced pass, then a traced one whose outputs must repeat
        it.  Returns the result and its layer report inputs."""
        os.makedirs(SCRATCH_DIR, exist_ok=True)
        result = RunResult(metrics={}, outputs={}, attempted=0, failed=0)
        plain = self.run_pass(seed, result, HostClock(), HostClock())
        timings = self.run_pass(seed, result, HostClock(), HostClock(),
                                tracer=tracer)

        def serial_wall(run: dict) -> float:
            return sum(t.raw.setup_s + t.raw.run_s for t in run["serial"])

        n_cells = len(plain["cell_walls"])
        report = {
            "traced_wall_s": serial_wall(timings),
            "untraced_wall_s": serial_wall(plain),
            "program": sum((t.program for t in timings["serial"]), Counter()),
            "campaign": {
                "cache_hit_ratio": timings["cache_hits"] / timings["cache_lookups"],
                "overhead_ms_per_cell": 1000.0 * (
                    CAMPAIGN_WORKERS * plain["cold_s"]
                    - sum(plain["cell_walls"])) / n_cells,
                "pool_efficiency": sum(plain["cell_walls"]) / (
                    CAMPAIGN_WORKERS * plain["cold_s"]),
                "warm_ms_per_cell": 1000.0 * plain["warm_s"] / n_cells,
            },
        }
        return result, report


WORKLOADS = {
    "flood_load": CellLoop(
        lambda seed: [CellSpec("fig1", protocol, interval, seed)
                      for protocol in ("counter1", "ssaf")
                      for interval in (0.2, 2.0)],
        setup_rounds=8, scenario_cells=4),
    "route_fig3": CellLoop(
        lambda seed: [CellSpec("fig3", protocol, 6, scenario)
                      for scenario in _scenario_seeds(seed, 3)
                      for protocol in ("aodv", "routeless")],
        setup_rounds=4, scenario_cells=2),
    "mobile_2k": CellLoop(
        lambda seed: [CellSpec("mobile", "routeless", 2, scenario)
                      for scenario in _scenario_seeds(seed, 3)],
        setup_rounds=0, scenario_cells=1),
    "campaign_sweep": CampaignSweep(),
}
