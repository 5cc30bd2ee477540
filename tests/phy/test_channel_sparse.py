"""The sparse link budget: mode resolution, bit-identical equivalence with
the dense matrices, incremental updates, and the bounded neighbor cache."""

import math

import numpy as np
import pytest

from repro.obs.observe import Observability
from repro.phy.channel import (
    AUTO_SPARSE_MIN_NODES,
    NEIGHBOR_CACHE_THRESHOLDS,
    Channel,
)
from repro.phy.propagation import (
    FreeSpace,
    LogDistance,
    RayleighFading,
    TwoRayGround,
    range_to_threshold_dbm,
)
from repro.sim.components import SimContext
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from tests.phy.rows import link_row


@pytest.fixture
def ctx2() -> SimContext:
    """A second independent context, for dense-vs-sparse comparisons."""
    return SimContext(Simulator(), RandomStreams(42), obs=Observability())


@pytest.fixture
def ctx_observed():
    obs = Observability()
    return SimContext(Simulator(), RandomStreams(42), obs=obs), obs


MODEL = FreeSpace()
TX_DBM = 15.0
THRESHOLD = range_to_threshold_dbm(MODEL, TX_DBM, 250.0)


def positions_for(n, extent, seed=7):
    return np.random.default_rng(seed).uniform(0, extent, size=(n, 2))


def make_channel(ctx, positions, link_budget, **kw):
    return Channel(ctx, positions, MODEL, TX_DBM, THRESHOLD,
                   link_budget=link_budget, **kw)


def assert_budgets_identical(dense, sparse):
    assert dense.n_nodes == sparse.n_nodes
    for i in range(dense.n_nodes):
        d, s = link_row(dense, i), link_row(sparse, i)
        assert np.array_equal(d.reach, s.reach), i
        assert np.array_equal(d.power_array, s.power_array), i
        assert d.ids == s.ids, i
        assert d.powers == s.powers, i
        assert d.delays == s.delays, i


class TestModeResolution:
    def test_auto_picks_dense_below_cutoff(self, ctx):
        channel = make_channel(ctx, positions_for(50, 500), "auto")
        assert channel.link_budget == "dense"

    def test_auto_picks_sparse_at_cutoff(self, ctx):
        n = AUTO_SPARSE_MIN_NODES
        channel = make_channel(ctx, positions_for(n, 8000), "auto")
        assert channel.link_budget == "sparse"

    def test_auto_with_shadowing_stays_dense(self, ctx):
        n = AUTO_SPARSE_MIN_NODES
        channel = make_channel(ctx, positions_for(n, 8000), "auto",
                               shadowing_sigma_db=4.0)
        assert channel.link_budget == "dense"

    def test_explicit_sparse_with_shadowing_raises(self, ctx):
        with pytest.raises(ValueError, match="shadowing"):
            make_channel(ctx, positions_for(10, 500), "sparse",
                         shadowing_sigma_db=4.0)

    def test_unknown_mode_raises(self, ctx):
        with pytest.raises(ValueError, match="link_budget"):
            make_channel(ctx, positions_for(10, 500), "csr")

    def test_requested_vs_resolved_mode_recorded(self, ctx):
        channel = make_channel(ctx, positions_for(10, 500), "sparse")
        assert channel.link_budget_mode == "sparse"
        assert channel.link_budget == "sparse"


class TestDenseSparseEquivalence:
    def test_static_budgets_bit_identical(self, ctx, ctx2):
        positions = positions_for(200, 1200)
        dense = make_channel(ctx, positions, "dense")
        sparse = make_channel(ctx2, positions, "sparse")
        assert_budgets_identical(dense, sparse)

    @pytest.mark.parametrize("model", [
        FreeSpace(), TwoRayGround(), LogDistance(), RayleighFading()])
    def test_equivalence_across_models(self, ctx, ctx2, model):
        positions = positions_for(120, 900)
        threshold = range_to_threshold_dbm(model, TX_DBM, 250.0)
        dense = Channel(ctx, positions, model, TX_DBM, threshold,
                        link_budget="dense")
        sparse = Channel(ctx2, positions, model, TX_DBM, threshold,
                         link_budget="sparse")
        assert_budgets_identical(dense, sparse)

    def test_set_positions_rebuild_stays_identical(self, ctx, ctx2):
        positions = positions_for(150, 1000)
        dense = make_channel(ctx, positions, "dense")
        sparse = make_channel(ctx2, positions, "sparse")
        moved = positions + np.random.default_rng(1).uniform(
            -40, 40, size=positions.shape)
        dense.set_positions(moved)
        sparse.set_positions(moved)
        assert_budgets_identical(dense, sparse)

    def test_move_nodes_partial_matches_full_rebuild(self, ctx, ctx2):
        positions = positions_for(150, 1000)
        dense = make_channel(ctx, positions, "dense")
        sparse = make_channel(ctx2, positions, "sparse")
        rng = np.random.default_rng(2)
        current = positions.copy()
        for _ in range(4):
            ids = rng.choice(150, size=20, replace=False)
            current[ids] += rng.uniform(-150, 150, size=(20, 2))
            dense.set_positions(current)
            sparse.move_nodes(ids, current[ids])
            assert_budgets_identical(dense, sparse)

    def test_move_nodes_all_nodes_matches_full_rebuild(self, ctx, ctx2):
        positions = positions_for(150, 1000)
        dense = make_channel(ctx, positions, "dense")
        sparse = make_channel(ctx2, positions, "sparse")
        moved = positions + np.random.default_rng(3).uniform(
            -5, 5, size=positions.shape)
        dense.set_positions(moved)
        sparse.move_nodes(np.arange(150), moved)
        assert_budgets_identical(dense, sparse)

    def test_neighbors_explicit_threshold_identical(self, ctx, ctx2):
        positions = positions_for(150, 1000)
        dense = make_channel(ctx, positions, "dense")
        sparse = make_channel(ctx2, positions, "sparse")
        for node in (0, 42, 149):
            for delta in (-12.0, -3.0, 0.0, 3.0, 12.0):
                threshold = THRESHOLD + delta
                assert np.array_equal(dense.neighbors(node, threshold),
                                      sparse.neighbors(node, threshold))

    def test_pair_distance_identical(self, ctx, ctx2):
        positions = positions_for(60, 600)
        dense = make_channel(ctx, positions, "dense")
        sparse = make_channel(ctx2, positions, "sparse")
        for i, j in ((0, 1), (5, 59), (30, 7)):
            assert dense.pair_distance_m(i, j) == sparse.pair_distance_m(i, j)


class TestSparseOffsets:
    def test_matrix_and_mapping_forms_agree(self, ctx, ctx2):
        positions = positions_for(100, 800)
        dense = make_channel(ctx, positions, "dense")
        sparse = make_channel(ctx2, positions, "sparse")
        matrix = np.zeros((100, 100))
        matrix[3, 4] = -200.0
        matrix[10, 11] = -3.5
        dense.set_link_offsets(matrix)
        sparse.set_link_offsets({(3, 4): -200.0, (10, 11): -3.5})
        assert_budgets_identical(dense, sparse)
        assert 4 not in sparse.neighbors(3)

    def test_positive_offset_extends_reach_beyond_grid_radius(self, ctx):
        positions = np.array([[0.0, 0.0], [2000.0, 0.0], [100.0, 0.0]])
        sparse = make_channel(ctx, positions, "sparse")
        assert 1 not in sparse.neighbors(0)
        sparse.set_link_offsets({(0, 1): 60.0})
        assert 1 in sparse.neighbors(0)
        # And the explicit-threshold query sees it too.
        assert 1 in sparse.neighbors(0, THRESHOLD)

    def test_clearing_offsets_restores_budget(self, ctx, ctx2):
        positions = positions_for(100, 800)
        dense = make_channel(ctx, positions, "dense")
        sparse = make_channel(ctx2, positions, "sparse")
        sparse.set_link_offsets({(3, 4): -200.0})
        sparse.set_link_offsets(None)
        assert_budgets_identical(dense, sparse)

    def test_wrong_matrix_shape_raises_both_modes(self, ctx, ctx2):
        dense = make_channel(ctx, positions_for(10, 300), "dense")
        sparse = make_channel(ctx2, positions_for(10, 300), "sparse")
        for channel in (dense, sparse):
            with pytest.raises(ValueError, match="offsets"):
                channel.set_link_offsets(np.zeros((2, 2)))

    def test_out_of_range_pair_raises(self, ctx):
        sparse = make_channel(ctx, positions_for(10, 300), "sparse")
        with pytest.raises(ValueError, match="outside"):
            sparse.set_link_offsets({(0, 99): -3.0})

    def test_dense_offsets_reuse_cached_distances(self, ctx):
        dense = make_channel(ctx, positions_for(50, 500), "dense")
        before = dense.distance_m
        dense.set_link_offsets({(0, 1): -200.0})
        assert dense.distance_m is before  # geometry pass skipped


class TestNeighborCacheBound:
    def test_lru_evicts_oldest_threshold(self, ctx):
        channel = make_channel(ctx, positions_for(30, 400), "dense")
        first = THRESHOLD - 1.0
        channel.neighbors(0, first)
        for k in range(NEIGHBOR_CACHE_THRESHOLDS):
            channel.neighbors(0, THRESHOLD + k)
        assert len(channel._neighbors_cache) == NEIGHBOR_CACHE_THRESHOLDS
        assert first not in channel._neighbors_cache

    def test_recently_used_threshold_survives(self, ctx):
        channel = make_channel(ctx, positions_for(30, 400), "dense")
        keep = THRESHOLD - 1.0
        channel.neighbors(0, keep)
        for k in range(NEIGHBOR_CACHE_THRESHOLDS - 1):
            channel.neighbors(0, THRESHOLD + k)
            channel.neighbors(0, keep)  # refresh recency
        assert keep in channel._neighbors_cache

    def test_rebuild_invalidates_cache(self, ctx):
        channel = make_channel(ctx, positions_for(30, 400), "sparse")
        channel.neighbors(0, THRESHOLD - 1.0)
        assert channel._neighbors_cache
        channel.set_positions(channel.positions + 1.0)
        assert not channel._neighbors_cache


class TestLinkBudgetBytes:
    def test_sparse_is_much_smaller_than_dense(self, ctx, ctx2):
        positions = positions_for(500, 2000)
        dense = make_channel(ctx, positions, "dense")
        sparse = make_channel(ctx2, positions, "sparse")
        assert sparse.link_budget_bytes() > 0
        assert sparse.link_budget_bytes() < dense.link_budget_bytes() / 4

    def test_gauge_reports_peak(self, ctx_observed):
        ctx, obs = ctx_observed
        channel = make_channel(ctx, positions_for(64, 600), "sparse")
        family = obs.registry.get("repro_channel_link_budget_bytes")
        samples = family.describe()["samples"]
        assert list(samples.values())[0] == pytest.approx(
            channel.link_budget_bytes())


class TestMaxRange:
    @pytest.mark.parametrize("model", [
        FreeSpace(), TwoRayGround(), LogDistance()])
    def test_inversion_brackets_the_threshold(self, model):
        threshold = range_to_threshold_dbm(model, TX_DBM, 250.0)
        radius = model.max_range_m(TX_DBM, threshold)
        assert radius >= 250.0 * (1 - 1e-9)
        assert model.rx_power_dbm(TX_DBM, radius * 1.001) < threshold

    def test_unreachable_threshold_gives_zero(self):
        assert MODEL.max_range_m(TX_DBM, 1000.0) == 0.0


class TestTransmitThroughSparse:
    def test_broadcast_delivery_identical(self, ctx, ctx2):
        from repro.mac.frame import Frame
        from repro.phy.radio import RadioConfig, Transceiver

        positions = positions_for(80, 600)
        received = {"dense": [], "sparse": []}
        for name, context in (("dense", ctx), ("sparse", ctx2)):
            channel = make_channel(context, positions, name)
            config = RadioConfig(tx_power_dbm=TX_DBM,
                                 rx_threshold_dbm=THRESHOLD)
            radios = [Transceiver(context, i, channel, config)
                      for i in range(80)]
            bucket = received[name]
            for radio in radios[1:]:
                radio.to_mac.connect(
                    lambda frame, info, b=bucket, r=radio:
                    b.append((r.node_id, info.power_dbm)))
            frame = Frame(src=0, dst=None, seq=0, payload=None,
                          size_bytes=100)
            radios[0].transmit(frame, 0.001)
            context.simulator.run()
        assert received["dense"] == received["sparse"]
        assert received["dense"]


def test_move_nodes_validates_input(ctx):
    channel = make_channel(ctx, positions_for(20, 300), "sparse")
    with pytest.raises(ValueError, match="new_positions"):
        channel.move_nodes([0, 1], np.zeros((3, 2)))
    with pytest.raises(ValueError, match="out of range"):
        channel.move_nodes([99], np.zeros((1, 2)))
    channel.move_nodes([], np.empty((0, 2)))  # no-op


def test_grid_cell_size_tracks_reach_radius(ctx):
    channel = make_channel(ctx, positions_for(50, 500), "sparse")
    assert channel._grid.cell_size_m == pytest.approx(
        channel._candidate_radius_m)
    assert channel._candidate_radius_m >= 250.0
    # Deterministic model: no fade headroom widening.
    assert math.isclose(
        channel._candidate_radius_m,
        MODEL.max_range_m(TX_DBM, THRESHOLD), rel_tol=1e-12)
