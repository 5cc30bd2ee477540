"""Tests for LEACH-style cluster-head election."""

import numpy as np
import pytest

from repro.core.clustering import ClusterConfig, ClusterNode
from repro.stats.flows import jain_index
from tests.conftest import line_positions, make_mac_stack


def build(ctx, positions, config=None, energies=None):
    channel, radios, macs = make_mac_stack(ctx, np.asarray(positions))
    config = config if config is not None else ClusterConfig()
    nodes = [ClusterNode(ctx, i, mac, config,
                         energy=(energies[i] if energies else 1.0))
             for i, mac in enumerate(macs)]
    return channel, nodes


def dense_field(n=25, seed=2):
    rng = np.random.default_rng(seed)
    return rng.uniform(0, 300, size=(n, 2))  # everyone within ~1-2 hops


class TestElection:
    def test_every_node_is_head_or_member(self, ctx):
        channel, nodes = build(ctx, dense_field())
        ctx.simulator.run(until=1.5)  # all round-0 election windows closed
        for node in nodes:
            assert node.is_head or node.head is not None, node.node_id

    def test_members_point_at_real_in_range_heads(self, ctx):
        channel, nodes = build(ctx, dense_field())
        ctx.simulator.run(until=1.5)
        heads = {n.node_id for n in nodes if n.is_head}
        for node in nodes:
            if not node.is_head and node.head is not None:
                assert node.head in heads
                assert node.head in channel.neighbors(node.node_id)

    def test_heads_are_a_minority_on_a_clique(self, ctx):
        # Fully connected: the first announcement suppresses everyone, so a
        # round should elect very few heads.
        channel, nodes = build(ctx, line_positions(12, spacing=20.0))
        ctx.simulator.run(until=1.5)
        heads = sum(1 for n in nodes if n.is_head)
        assert 1 <= heads <= 3

    def test_fullest_battery_wins_on_clique(self, ctx):
        energies = [0.3] * 6
        energies[4] = 1.0
        config = ClusterConfig(jitter=0.001)
        channel, nodes = build(ctx, line_positions(6, spacing=20.0),
                               config=config, energies=energies)
        ctx.simulator.run(until=1.5)
        assert nodes[4].is_head

    def test_heads_learn_their_members(self, ctx):
        channel, nodes = build(ctx, line_positions(5, spacing=20.0))
        ctx.simulator.run(until=1.5)
        heads = [n for n in nodes if n.is_head]
        total_members = set().union(*(h.members for h in heads)) if heads else set()
        member_ids = {n.node_id for n in nodes if not n.is_head and n.head is not None}
        assert member_ids <= total_members | member_ids  # joins delivered
        assert any(h.members for h in heads)


class TestRotation:
    def test_role_rotates_and_energy_drains_evenly(self, ctx):
        config = ClusterConfig(round_s=1.0, head_drain=0.1, member_drain=0.01)
        channel, nodes = build(ctx, line_positions(8, spacing=20.0), config=config)
        ctx.simulator.run(until=25.0)
        # Everybody should have served at least once...
        served = [n.rounds_as_head for n in nodes]
        assert sum(served) > 0
        assert sum(1 for s in served if s > 0) >= 5
        # ...and residual energy stays fair across the cluster.
        assert jain_index([n.energy + 0.01 for n in nodes]) > 0.85

    def test_depleted_nodes_stop_volunteering(self, ctx):
        energies = [1.0, 1.0, 0.0, 1.0]
        channel, nodes = build(ctx, line_positions(4, spacing=20.0),
                               energies=energies)
        ctx.simulator.run(until=10.0)
        assert nodes[2].rounds_as_head == 0


class TestSparseTopology:
    def test_far_apart_clusters_elect_separate_heads(self, ctx):
        # Two islands out of radio range: one head each (no cross-talk).
        left = line_positions(4, spacing=20.0)
        right = line_positions(4, spacing=20.0) + np.array([5000.0, 0.0])
        channel, nodes = build(ctx, np.vstack([left, right]))
        ctx.simulator.run(until=1.5)
        left_heads = sum(1 for n in nodes[:4] if n.is_head)
        right_heads = sum(1 for n in nodes[4:] if n.is_head)
        assert left_heads >= 1 and right_heads >= 1
