"""Golden equivalence for the routing protocols: small Figure 3 cells.

``test_golden_equivalence`` pins fig1 flooding cells; these pin the
other half of the receive path — AODV's MAC unicasts with their ACKs and
route discovery, and Routeless Routing's hop-count elections with their
network-level acknowledgements.  The constants were recorded on a
fault-free run of each cell; every optimization of the kernel, ports,
radio, MAC or packets must reproduce the same events in the same order,
so the counters match exactly and the float metrics to within a strict
tolerance that only absorbs libm differences across platforms.

Each cell also runs with an :class:`~repro.obs.observe.Observability`
attached: the pinned numbers must not move (observing never perturbs a
run), and the ledger must pass the end-of-run invariants.

If an intentional behaviour change ever shifts these numbers, re-record
them and say so in the commit.
"""

import pytest

from repro.experiments.common import (
    ScenarioConfig,
    attach_cbr,
    build_protocol_network,
    pick_flows,
)
from repro.faults.invariants import check_invariants
from repro.obs.observe import Observability
from repro.sim.rng import RandomStreams

# Figure 3 density (≈ 125 nodes/km²) at a size that runs in well under a
# second per cell.
N_NODES = 60
TERRAIN_M = 700.0
N_PAIRS = 2
DURATION_S = 12.0

# (protocol, seed) -> (events_processed, tx_count, mac_packets, delivered,
#                      avg_delay_s, avg_hops, frames on the air by kind)
GOLDEN = {
    ("aodv", 1): (29430, 308, 308, 36, 0.008078278194416023, 2.5,
                  {"rreq": 118, "rrep": 5, "mac_ack": 95, "data": 90}),
    ("aodv", 2): (29235, 346, 346, 36, 0.009427151900079365, 3.0,
                  {"rreq": 118, "rrep": 6, "mac_ack": 114, "data": 108}),
    ("routeless", 1): (27941, 284, 284, 36, 0.015070278458177303, 2.0,
                       {"path_discovery": 22, "path_reply": 5,
                        "data": 114, "net_ack": 143}),
    ("routeless", 2): (34601, 371, 371, 36, 0.032522764376625185, 2.5,
                       {"path_discovery": 25, "path_reply": 7,
                        "data": 156, "net_ack": 183}),
}


def EXACT(value):
    return pytest.approx(value, rel=1e-12, abs=0.0)


def run_cell(protocol: str, seed: int, obs: Observability | None = None):
    """One fig3-shaped cell, wired like ``fig3_rr_vs_aodv.run_one``."""
    scenario = ScenarioConfig(n_nodes=N_NODES, width_m=TERRAIN_M,
                              height_m=TERRAIN_M, range_m=250.0, seed=seed)
    net = build_protocol_network(protocol, scenario, obs=obs)
    flows = pick_flows(N_NODES, N_PAIRS,
                       RandomStreams(seed + 8888).stream("fig3.flows"),
                       bidirectional=True, distinct_endpoints=True)
    attach_cbr(net, flows, interval_s=1.0, stop_s=DURATION_S - 3.0)
    net.run(until=DURATION_S)
    return net


#: Every golden cell, unobserved (ids as recorded) and observed.
CELLS = [pytest.param(protocol, seed, observed,
                      id=f"{protocol}-{seed}" + ("-observed" if observed else ""))
         for protocol, seed in sorted(GOLDEN) for observed in (False, True)]


@pytest.mark.parametrize("protocol,seed,observed", CELLS)
def test_fig3_cell_matches_recording(protocol, seed, observed):
    events, tx, mac_packets, delivered, delay, hops, by_kind = \
        GOLDEN[(protocol, seed)]
    obs = Observability() if observed else None
    net = run_cell(protocol, seed, obs)
    summary = net.summary()

    assert net.simulator.events_processed == events
    assert net.channel.tx_count == tx
    assert dict(net.channel.tx_count_by_kind) == by_kind
    assert summary.mac_packets == mac_packets
    assert summary.delivered == delivered
    assert summary.avg_delay_s == EXACT(delay)
    assert summary.avg_hops == EXACT(hops)
    if observed:
        # Routeless retransmits on election timeouts; only AODV's unicast
        # chains promise a single forwarder per hop.
        assert check_invariants(
            obs, single_forwarder=(protocol == "aodv")) == []
