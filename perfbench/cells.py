"""The simulated cells the benchmark runs, built through the public API.

Each cell mirrors one experiment module's ``run_one`` (Fig. 1 flooding,
Fig. 3 routing, the mobility extension) but keeps the phases apart, so the
benchmark can time set-up (placement, link budget, stack wiring, traffic)
separately from the simulation run and read the kernel's event count.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from repro.experiments.common import (
    ScenarioConfig,
    attach_cbr,
    build_protocol_network,
    pick_flows,
)
from repro.experiments.fig1_ssaf import Fig1Config
from repro.experiments.result import ExperimentResult
from repro.sim.rng import RandomStreams
from repro.topology.mobility import MobilityConfig, RandomWaypoint

#: The simulated outputs pinned per cell and folded into the digest.
OUTPUT_KEYS = ("events_processed", "mac_packets", "generated", "delivered",
               "avg_delay_s", "avg_hops")

#: Fig. 3 density: 150 nodes on 1100 m x 1100 m.
_FIG3_DENSITY_PER_M2 = 150 / 1100.0 ** 2


@dataclass(frozen=True)
class CellSpec:
    """One cell: a figure shape, a protocol, the swept x and a seed."""
    shape: str       # "fig1", "fig3" or "mobile"
    protocol: str
    x: float         # fig1: CBR interval (s); fig3/mobile: bidirectional pairs
    seed: int

    @property
    def label(self) -> str:
        return f"{self.shape}/{self.protocol}/x={self.x:g}/seed={self.seed}"


@dataclass
class CellOutcome:
    spec: CellSpec
    setup_s: float
    run_s: float
    outputs: dict


def _fig1_network(protocol: str, interval_s: float, seed: int,
                  config: Fig1Config):
    """Fig. 1 scale; the same scenario, flows and traffic as
    :func:`repro.experiments.fig1_ssaf.run_one`."""
    scenario = ScenarioConfig(n_nodes=config.n_nodes, width_m=config.terrain_m,
                              height_m=config.terrain_m,
                              range_m=config.range_m, seed=seed)
    net = build_protocol_network(protocol, scenario)
    flows = pick_flows(config.n_nodes, config.n_connections,
                       RandomStreams(seed + 7777).stream("fig1.flows"),
                       distinct_endpoints=False)
    attach_cbr(net, flows, interval_s=interval_s,
               stop_s=config.duration_s - 2.0)
    return net, config.duration_s


def _fig3_network(protocol: str, n_pairs: int, seed: int):
    """Fig. 3 scale (150 nodes on 1100 m, 30 s); the same scenario, flows
    and traffic as :func:`repro.experiments.fig3_rr_vs_aodv.run_one`."""
    duration_s = 30.0
    scenario = ScenarioConfig(n_nodes=150, width_m=1100.0, height_m=1100.0,
                              range_m=250.0, seed=seed)
    net = build_protocol_network(protocol, scenario)
    flows = pick_flows(150, n_pairs,
                       RandomStreams(seed + 8888).stream("fig3.flows"),
                       bidirectional=True, distinct_endpoints=True)
    attach_cbr(net, flows, interval_s=1.0, stop_s=duration_s - 3.0)
    return net, duration_s


def _mobile_network(protocol: str, n_pairs: int, seed: int):
    """2000 nodes at Fig. 3 density (so the sparse link budget is chosen),
    random waypoint at 2.5-10 m/s with the flow endpoints pinned, 8 s."""
    n_nodes, duration_s = 2000, 8.0
    side_m = math.sqrt(n_nodes / _FIG3_DENSITY_PER_M2)
    scenario = ScenarioConfig(n_nodes=n_nodes, width_m=side_m, height_m=side_m,
                              range_m=250.0, seed=seed)
    net = build_protocol_network(protocol, scenario)
    flows = pick_flows(n_nodes, n_pairs,
                       RandomStreams(seed + 4242).stream("mobility.flows"),
                       bidirectional=True)
    endpoints = {node for flow in flows for node in flow}
    RandomWaypoint(net.ctx, net.channel, arena=scenario.arena,
                   config=MobilityConfig(min_speed_mps=2.5, max_speed_mps=10.0),
                   frozen=endpoints)
    attach_cbr(net, flows, interval_s=1.0, stop_s=duration_s - 3.0)
    return net, duration_s


def build_cell(spec: CellSpec, fig1_config: Fig1Config | None = None):
    """Assemble the cell's network; returns ``(network, duration_s)``."""
    if spec.shape == "fig1":
        return _fig1_network(spec.protocol, spec.x, spec.seed,
                             fig1_config or Fig1Config())
    if spec.shape == "fig3":
        return _fig3_network(spec.protocol, int(spec.x), spec.seed)
    if spec.shape == "mobile":
        return _mobile_network(spec.protocol, int(spec.x), spec.seed)
    raise ValueError(f"unknown cell shape {spec.shape!r}")


def outputs_of(net) -> dict:
    summary = net.summary()
    return {
        "events_processed": net.simulator.events_processed,
        "mac_packets": summary.mac_packets,
        "generated": summary.generated,
        "delivered": summary.delivered,
        "avg_delay_s": summary.avg_delay_s,
        "avg_hops": summary.avg_hops,
    }


def campaign_run_one(protocol: str, interval_s: float, seed: int,
                     config: Fig1Config) -> ExperimentResult:
    """``run_one`` for :func:`repro.campaign.run_campaign`: a Fig. 1 cell
    whose result also carries the kernel's event count, so cold, warm and
    serial results can be compared on every pinned output."""
    started = time.perf_counter()
    net, duration_s = _fig1_network(protocol, interval_s, seed, config)
    net.run(until=duration_s)
    return ExperimentResult.from_summary(
        net.summary(), config=config, seed=seed,
        wall_s=time.perf_counter() - started,
        events_processed=net.simulator.events_processed)
