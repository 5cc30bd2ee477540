"""Dense vs sparse link budgets are equivalent end to end (satellite of the
sparse-channel PR).

The sparse representation is a pure speed/memory optimization: on the same
seed it must produce the *same events in the same order* as the dense
matrices — identical reach sets, identical received powers, and identical
run metrics under static, mobility, and fault-plan scenarios.  The fig1
cells additionally pin the sparse path to the recorded seed-implementation
golden numbers.
"""

import numpy as np
import pytest

from repro.experiments.common import (
    ScenarioConfig,
    attach_cbr,
    build_protocol_network,
    pick_flows,
)
from repro.experiments.fig1_ssaf import Fig1Config
from repro.faults import FaultPlan, LinkDegradation, Partition, install_plan
from repro.sim.rng import RandomStreams
from repro.topology.arena import Arena
from repro.topology.mobility import MobilityConfig, RandomWaypoint

from tests.experiments.test_golden_equivalence import EXACT, GOLDEN, INTERVAL_S
from tests.phy.rows import link_row


def run_fig1_cell(protocol: str, seed: int, link_budget: str):
    config = Fig1Config()
    scenario = ScenarioConfig(
        n_nodes=config.n_nodes, width_m=config.terrain_m,
        height_m=config.terrain_m, range_m=config.range_m, seed=seed,
        link_budget=link_budget)
    net = build_protocol_network(protocol, scenario)
    flows = pick_flows(config.n_nodes, config.n_connections,
                       RandomStreams(seed + 7777).stream("fig1.flows"),
                       distinct_endpoints=False)
    attach_cbr(net, flows, interval_s=INTERVAL_S,
               stop_s=config.duration_s - 2.0)
    net.run(until=config.duration_s)
    return net


def metrics_tuple(net):
    summary = net.summary()
    return (net.simulator.events_processed, net.channel.tx_count,
            summary.delivered, summary.generated, summary.avg_delay_s,
            summary.avg_hops, net.channel.airtime_s)


@pytest.mark.parametrize("protocol,seed", sorted(GOLDEN))
def test_fig1_sparse_hits_golden_numbers(protocol, seed):
    """The sparse channel reproduces the seed implementation's recording —
    not merely dense-of-today, but the original golden constants."""
    events, tx, delivered, generated, delay, hops, airtime = \
        GOLDEN[(protocol, seed)]
    net = run_fig1_cell(protocol, seed, link_budget="sparse")
    assert net.channel.link_budget == "sparse"
    summary = net.summary()
    assert net.simulator.events_processed == events
    assert net.channel.tx_count == tx
    assert summary.delivered == delivered
    assert summary.generated == generated
    assert summary.avg_delay_s == EXACT(delay)
    assert summary.avg_hops == EXACT(hops)
    assert net.channel.airtime_s == EXACT(airtime)


def test_static_reach_sets_and_rx_powers_identical():
    scenario = dict(n_nodes=80, width_m=700.0, height_m=700.0,
                    range_m=250.0, seed=5)
    dense = build_protocol_network(
        "counter1", ScenarioConfig(link_budget="dense", **scenario))
    sparse = build_protocol_network(
        "counter1", ScenarioConfig(link_budget="sparse", **scenario))
    assert dense.channel.link_budget == "dense"
    assert sparse.channel.link_budget == "sparse"
    for node in range(80):
        d_row = link_row(dense.channel, node)
        s_row = link_row(sparse.channel, node)
        assert np.array_equal(d_row.reach, s_row.reach)
        d_power = d_row.power_array
        s_power = s_row.power_array
        np.testing.assert_allclose(s_power, d_power, rtol=0.0, atol=1e-9)
        assert np.array_equal(d_power, s_power)  # in fact bit-identical


def _mobility_net(link_budget: str):
    scenario = ScenarioConfig(n_nodes=60, width_m=700.0, height_m=700.0,
                              range_m=250.0, seed=3,
                              link_budget=link_budget)
    net = build_protocol_network("counter1", scenario)
    flows = pick_flows(60, 4, RandomStreams(3 + 4242).stream("mob.flows"),
                       bidirectional=True)
    endpoints = {node for flow in flows for node in flow}
    RandomWaypoint(net.ctx, net.channel, arena=Arena(700.0, 700.0),
                   config=MobilityConfig(min_speed_mps=2.0, max_speed_mps=10.0),
                   frozen=endpoints)
    attach_cbr(net, flows, interval_s=1.0, stop_s=8.0)
    net.run(until=10.0)
    return net


def test_mobility_run_metrics_identical():
    """Random-waypoint mobility drives ``move_nodes`` on the sparse path
    and full rebuilds on the dense path; same seed, same outcome."""
    dense = _mobility_net("dense")
    sparse = _mobility_net("sparse")
    assert metrics_tuple(dense) == metrics_tuple(sparse)
    assert dense.summary().generated > 0
    np.testing.assert_array_equal(dense.channel.positions,
                                  sparse.channel.positions)


def _faulted_net(link_budget: str):
    scenario = ScenarioConfig(n_nodes=60, width_m=700.0, height_m=700.0,
                              range_m=250.0, seed=4,
                              link_budget=link_budget)
    net = build_protocol_network("counter1", scenario)
    flows = pick_flows(60, 4, RandomStreams(4 + 4242).stream("chaos.flows"),
                       bidirectional=True)
    endpoints = {node for flow in flows for node in flow}
    plan = FaultPlan(name="sparse-equivalence", faults=(
        LinkDegradation(pairs=((1, 2), (5, 9)), loss_db=200.0,
                        start_s=2.0, stop_s=6.0),
        Partition(groups=((10, 11, 12), (20, 21, 22)),
                  start_s=3.0, stop_s=7.0),
    ))
    install_plan(net, plan, exempt=endpoints)
    attach_cbr(net, flows, interval_s=1.0, stop_s=8.0)
    net.run(until=10.0)
    return net


def test_fault_plan_run_metrics_identical():
    """Fault-driven link offsets flow through ``set_link_offsets`` — the
    sparse path patches only offset-bearing rows, the dense path reuses
    cached distances; both land on the same run."""
    dense = _faulted_net("dense")
    sparse = _faulted_net("sparse")
    assert metrics_tuple(dense) == metrics_tuple(sparse)
    assert dense.summary().generated > 0
