"""3-D channel geometry: dense/sparse bit-equivalence over (N, 3)
positions, incremental moves, and the 2-D-degeneracy guarantee."""

import numpy as np
import pytest

from repro.phy.channel import Channel
from repro.phy.propagation import FreeSpace, range_to_threshold_dbm
from repro.sim.components import SimContext
from tests.phy.rows import link_row


def make_channel(positions, link_budget="dense"):
    model = FreeSpace()
    threshold = range_to_threshold_dbm(model, 15.0, 250.0)
    return Channel(SimContext(), np.asarray(positions, dtype=float), model,
                   15.0, threshold, link_budget=link_budget)


def positions_3d(n, seed, extent=900.0, depth=200.0):
    rng = np.random.default_rng(seed)
    return np.column_stack([rng.uniform(0, extent, n),
                            rng.uniform(0, extent, n),
                            rng.uniform(0, depth, n)])


def assert_budgets_identical(a, b):
    assert a.n_nodes == b.n_nodes
    for node in range(a.n_nodes):
        row_a, row_b = link_row(a, node), link_row(b, node)
        assert np.array_equal(row_a.reach, row_b.reach)
        assert np.array_equal(row_a.power_array, row_b.power_array)


@pytest.mark.parametrize("n", [64, 512])
def test_sparse_matches_dense_3d(n):
    positions = positions_3d(n, seed=n)
    dense = make_channel(positions, "dense")
    sparse = make_channel(positions, "sparse")
    assert dense.dim == sparse.dim == 3
    assert_budgets_identical(dense, sparse)


def test_depth_zero_degenerate_matches_2d_exactly():
    """(N, 3) positions with z == 0 produce link budgets float-equal to the
    same (N, 2) positions: dz² == 0.0 adds nothing, bitwise."""
    rng = np.random.default_rng(11)
    flat = rng.uniform(0, 700.0, size=(100, 2))
    stacked = np.hstack([flat, np.zeros((100, 1))])
    for budget in ("dense", "sparse"):
        ch2 = make_channel(flat, budget)
        ch3 = make_channel(stacked, budget)
        assert_budgets_identical(ch2, ch3)


def test_move_nodes_3d_matches_rebuild():
    positions = positions_3d(128, seed=5)
    sparse = make_channel(positions, "sparse")
    moved = np.array([3, 17, 60, 127])
    positions = positions.copy()
    positions[moved] += np.array([40.0, -25.0, 30.0])
    positions[moved, 2] = np.clip(positions[moved, 2], 0.0, 200.0)
    sparse.move_nodes(moved, positions[moved])
    fresh = make_channel(positions, "dense")
    assert_budgets_identical(sparse, fresh)


def test_pair_distance_3d():
    positions = np.array([[0.0, 0.0, 0.0], [3.0, 4.0, 12.0]])
    for budget in ("dense", "sparse"):
        channel = make_channel(positions, budget)
        assert channel.pair_distance_m(0, 1) == pytest.approx(13.0)


class TestValidation:
    def test_constructor_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match=r"\(N, 2\) or \(N, 3\)"):
            make_channel(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            make_channel(np.zeros(8))

    def test_set_positions_reports_configured_dim(self):
        channel = make_channel(positions_3d(10, seed=1))
        with pytest.raises(ValueError, match="3-D channel"):
            channel.set_positions(np.zeros((10, 2)))

    def test_move_nodes_reports_configured_dim(self):
        channel = make_channel(np.zeros((5, 2)))
        with pytest.raises(ValueError, match="2-D channel"):
            channel.move_nodes(np.array([0, 1]), np.zeros((2, 3)))

    def test_dim_attribute(self):
        assert make_channel(np.zeros((3, 2))).dim == 2
        assert make_channel(np.zeros((3, 3))).dim == 3
