"""Dirty-row sparse link budget: moves and offset changes only mark rows
dirty, and a row read afterwards is bit-identical to a fresh eager
``set_positions`` build — ids, powers, power arrays and delays."""

import numpy as np
import pytest

from repro.experiments.common import (
    ScenarioConfig,
    attach_cbr,
    build_protocol_network,
    pick_flows,
)
from repro.faults import FaultPlan, LinkDegradation, Partition, install_plan
from repro.phy.channel import Channel
from repro.phy.propagation import FreeSpace, RayleighFading, range_to_threshold_dbm
from repro.sim.components import SimContext
from repro.sim.rng import RandomStreams
from repro.topology.mobility import MobilityConfig, RandomWaypoint
from tests.phy.rows import link_row

TX_DBM = 15.0


def make_channel(positions, model=None, **kw):
    model = model or FreeSpace()
    threshold = range_to_threshold_dbm(model, TX_DBM, 250.0)
    return Channel(SimContext(), np.asarray(positions, dtype=float), model,
                   TX_DBM, threshold, link_budget="sparse", **kw)


def eager_copy(channel):
    """A fresh channel built eagerly from ``channel``'s current state."""
    fresh = Channel(SimContext(), channel.positions, channel.model,
                    channel.tx_power_dbm, channel.reach_threshold_dbm,
                    propagation_delay=channel._propagation_delay,
                    link_budget="sparse")
    if channel._offset_pairs:
        fresh.set_link_offsets(dict(channel._offset_pairs))
    return fresh


def assert_rows_match_eager(channel, nodes=None):
    fresh = eager_copy(channel)
    for node in range(channel.n_nodes) if nodes is None else nodes:
        lazy, eager = link_row(channel, node), link_row(fresh, node)
        assert np.array_equal(lazy.reach, eager.reach), node
        assert lazy.reach.dtype == eager.reach.dtype
        assert np.array_equal(lazy.power_array, eager.power_array), node
        assert lazy.ids == eager.ids, node
        assert lazy.powers == eager.powers, node
        assert lazy.delays == eager.delays, node


def positions_for(n, dim, seed, extent=900.0):
    return np.random.default_rng(seed).uniform(0, extent, size=(n, dim))


def frozen_endpoint_ticks(channel, positions, seed, ticks=20, step=60.0):
    """Move every node but four per tick; read a random tenth of the rows
    after each tick (so most rows stay dirty across several ticks) and
    every row after the last one."""
    rng = np.random.default_rng(seed)
    n, dim = positions.shape
    moving = np.setdiff1d(np.arange(n), rng.choice(n, size=4, replace=False))
    for _ in range(ticks):
        positions[moving] += rng.uniform(-step, step, size=(len(moving), dim))
        channel.move_nodes(moving, positions[moving])
        assert_rows_match_eager(
            channel, rng.choice(n, size=n // 10, replace=False).tolist())
    assert_rows_match_eager(channel)


@pytest.mark.parametrize("dim", [2, 3])
def test_frozen_endpoint_ticks_match_eager_build(dim):
    positions = positions_for(300, dim, seed=dim)
    channel = make_channel(positions)
    frozen_endpoint_ticks(channel, positions.copy(), seed=10 + dim)


def test_stochastic_fading_widened_reach_matches_eager_build():
    positions = positions_for(200, 2, seed=4)
    channel = make_channel(positions, model=RayleighFading())
    assert channel._headroom_db > 0
    frozen_endpoint_ticks(channel, positions.copy(), seed=14)


def test_move_that_shifts_the_grid_frame_matches_eager_build():
    positions = positions_for(150, 2, seed=6, extent=800.0)
    channel = make_channel(positions)
    ncells = list(channel._grid._ncells)
    origin = channel._grid._origin.copy()
    # One node crosses below the minimum cell, another past the maximum:
    # the normalized frame shifts and the cell count grows.
    positions[[0, 1]] = [[-700.0, -450.0], [1900.0, 2100.0]]
    channel.move_nodes([0, 1], positions[[0, 1]])
    assert (channel._grid._origin < origin).all()
    assert channel._grid._ncells[0] > ncells[0]
    assert_rows_match_eager(channel)
    # And back inside the original frame.
    positions[[0, 1]] = [[400.0, 400.0], [420.0, 380.0]]
    channel.move_nodes([0, 1], positions[[0, 1]])
    assert_rows_match_eager(channel)


@pytest.mark.parametrize("dim", [2, 3])
def test_top_row_node_leaving_shrinks_frame_and_marks_old_neighbors(dim):
    """The only node of the top cell row on every axis moves diagonally
    past the bottom: the frame shrinks at the top, and the node next to
    its old cell (but not its new one) must still be marked dirty."""
    channel = make_channel(np.zeros((5, dim)))
    size = channel._grid.cell_size_m
    # Cells 0, 1, 2, 3 and -1 along the diagonal; 2 and 3 can hear each
    # other, and 3 is alone in the top row.
    cells = np.array([0.5, 1.5, 2.9, 3.1, -0.5])
    positions = cells[:, None] * size * np.ones(dim)
    channel.set_positions(positions)
    old = channel.positions.copy()
    channel.move_nodes([3], [[-1.5 * size] * dim])
    grid = channel._grid
    assert (grid._origin + grid._ncells - 1 == 2).all()  # top row gone
    assert channel._stale == _geometric_dirty(channel, old, np.array([3]))
    assert 2 in channel._stale
    assert_rows_match_eager(channel)


def test_offset_link_to_a_far_node_follows_its_moves():
    """A positive offset puts a pair in its source's row at any range; a
    move of the far endpoint dirties that source's row too."""
    positions = np.array([[0.0, 0.0], [3000.0, 0.0], [100.0, 0.0]])
    channel = make_channel(positions)
    channel.set_link_offsets({(0, 1): 60.0})
    before = link_row(channel, 0)
    assert 1 in before.reach
    channel.move_nodes([1], [[3500.0, 0.0]])
    assert 0 in channel._stale
    assert link_row(channel, 0).powers != before.powers
    assert_rows_match_eager(channel)


def _mobile_net(faults: bool):
    scenario = ScenarioConfig(n_nodes=150, width_m=900.0, height_m=900.0,
                              range_m=250.0, seed=8, link_budget="sparse")
    net = build_protocol_network("routeless", scenario)
    flows = pick_flows(150, 2, RandomStreams(8 + 4242).stream("lazy.flows"),
                       bidirectional=True)
    endpoints = {node for flow in flows for node in flow}
    if faults:
        install_plan(net, FaultPlan(name="lazy-rows", faults=(
            LinkDegradation(pairs=((1, 2), (5, 9), (30, 31)), loss_db=200.0,
                            start_s=1.0, stop_s=4.0),
            Partition(groups=((10, 11, 12), (20, 21, 22)),
                      start_s=2.0, stop_s=5.0),
        )), exempt=endpoints)
    RandomWaypoint(net.ctx, net.channel, arena=scenario.arena,
                   config=MobilityConfig(min_speed_mps=20.0,
                                         max_speed_mps=40.0),
                   frozen=endpoints)
    attach_cbr(net, flows, interval_s=0.5, stop_s=5.0)
    return net


def test_fault_plan_offsets_interleaved_with_moves_match_eager_build():
    net = _mobile_net(faults=True)
    saw_offsets = False
    for until in (0.5, 1.5, 2.5, 3.5, 4.5, 5.5):
        net.run(until=until)
        saw_offsets |= bool(net.channel._offset_pairs)
        assert_rows_match_eager(net.channel)
    assert saw_offsets
    assert not net.channel._offset_pairs  # every fault has healed


def _geometric_dirty(channel, old_positions, ids):
    """Sources whose cell is within one cell of a moved node's old or new
    cell — the marking rule, computed independently of the grid."""
    size = channel._grid.cell_size_m
    cells = np.floor(channel.positions / size)
    moved = np.floor(np.concatenate([old_positions[ids],
                                     channel.positions[ids]]) / size)
    gap = np.abs(cells[:, None, :] - moved[None, :, :]).max(axis=-1)
    return set(np.flatnonzero((gap <= 1).any(axis=1)).tolist())


def test_rows_built_counts_setup_plus_dirty_rows_read():
    net = _mobile_net(faults=False)
    channel = net.channel
    assert channel.rows_built == channel.n_nodes
    pending: set[int] = set()
    reads = []
    move, transmit = channel.move_nodes, channel.transmit

    def tracked_move(ids, new_positions):
        old = channel.positions.copy()
        move(ids, new_positions)
        pending.update(_geometric_dirty(channel, old, np.asarray(ids)))

    def tracked_transmit(src_id, frame, duration):
        if src_id in pending:
            pending.discard(src_id)
            reads.append(src_id)
        transmit(src_id, frame, duration)

    channel.move_nodes = tracked_move
    channel.transmit = tracked_transmit
    net.run(until=6.0)
    assert reads
    assert channel.rows_built == channel.n_nodes + len(reads)
    # Far fewer rows are built than an eager rebuild per tick would build.
    ticks = round(6.0 / MobilityConfig().tick_s)
    assert len(reads) < ticks * channel.n_nodes / 4


def test_rows_built_unit_counts():
    positions = positions_for(200, 2, seed=9)
    channel = make_channel(positions)
    assert channel.rows_built == 200
    old = channel.positions.copy()
    ids = np.array([3, 50, 120])
    channel.move_nodes(ids, old[ids] + [300.0, -260.0])  # across cells
    assert channel.rows_built == 200  # marking builds nothing
    dirty = _geometric_dirty(channel, old, ids)
    assert channel._stale == dirty
    for node in range(200):
        channel.neighbors(node)
        channel.neighbors(node)  # a refreshed row is not rebuilt again
    assert channel.rows_built == 200 + len(dirty)
    channel.set_positions(channel.positions)
    assert channel.rows_built == 400 + len(dirty)
