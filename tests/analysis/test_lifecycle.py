"""Tests for packet journeys read from the packet ledger."""

import pytest

from repro.analysis.lifecycle import reconstruct_journeys
from repro.net.packet import PacketKind
from repro.obs.observe import Observability
from tests.conftest import line_network

DATA_0 = (PacketKind.DATA, 0, 0)


@pytest.fixture
def traced_run():
    obs = Observability()
    net = line_network("routeless", n=5, obs=obs)
    net.protocols[0].send_data(4)
    net.run(until=5.0)
    return obs, net


class TestReconstruction:
    def test_data_journey_reconstructed(self, traced_run):
        obs, net = traced_run
        journeys = reconstruct_journeys(obs)
        data = journeys[DATA_0]
        assert data.delivered
        assert data.relays == [1, 2, 3]
        assert data.retransmissions == 0
        assert data.delivery_time is not None

    def test_discovery_and_reply_present(self, traced_run):
        obs, net = traced_run
        journeys = reconstruct_journeys(obs)
        assert (PacketKind.PATH_DISCOVERY, 0, 0) in journeys
        reply = journeys[(PacketKind.PATH_REPLY, 4, 0)]
        assert reply.delivered
        assert reply.relays == [3, 2, 1]

    def test_events_time_ordered(self, traced_run):
        obs, net = traced_run
        for journey in reconstruct_journeys(obs).values():
            times = [e.time for e in journey.events]
            assert times == sorted(times)

    def test_candidates_recorded(self, traced_run):
        obs, net = traced_run
        data = reconstruct_journeys(obs)[DATA_0]
        candidates = [e.node for e in data.events if e.action == "candidate"]
        assert 1 in candidates  # node 1 competed for hop one

    def test_retransmissions_counted(self):
        from repro.net.routeless import RoutelessConfig
        obs = Observability()
        config = RoutelessConfig(arbiter_timeout_s=0.1, max_relay_retries=2)
        net = line_network("routeless", n=3, obs=obs,
                           protocol_config=config)
        net.protocols[0].send_data(2)
        net.run(until=3.0)
        net.radios[1].set_power(False)   # relay dies; source will retry
        net.protocols[0].send_data(2)
        net.run(until=8.0)
        journeys = reconstruct_journeys(obs)
        stuck = journeys[(PacketKind.DATA, 0, 1)]
        assert not stuck.delivered
        assert stuck.retransmissions >= 1

    def test_accepts_plain_record_lists(self, traced_run):
        obs, net = traced_run
        journeys = reconstruct_journeys(list(obs.ledger.entries))
        assert DATA_0 in journeys

    def test_ledger_and_observability_give_the_same_journeys(self, traced_run):
        obs, net = traced_run
        assert (reconstruct_journeys(obs.ledger).keys()
                == reconstruct_journeys(obs).keys())


class TestFloodingJourney:
    """SSAF on a line with 120 m spacing and a 250 m range: each copy
    reaches the next two nodes, both arm, and the farther one (weaker
    signal, shorter backoff) wins; its rebroadcast suppresses the nearer
    one.  The relays form one chain toward the target."""

    @pytest.fixture
    def journey(self):
        obs = Observability()
        net = line_network("ssaf", n=7, spacing=120.0, obs=obs)
        net.protocols[0].send_data(6)
        net.run(until=5.0)
        return reconstruct_journeys(obs)[DATA_0]

    def nodes(self, journey, action):
        return [e.node for e in journey.events if e.action == action]

    def test_candidates_and_suppressions(self, journey):
        assert self.nodes(journey, "candidate") == [1, 2, 3, 4, 5]
        assert self.nodes(journey, "suppressed") == [1, 3]
        for event in journey.events:
            if event.action == "candidate":
                assert event.detail["backoff_s"] >= 0.0

    def test_single_relay_chain(self, journey):
        assert journey.delivered
        assert journey.relays == [2, 4, 5]
        assert journey.retransmissions == 0

    def test_every_candidate_relays_or_is_suppressed_once(self, journey):
        outcomes = self.nodes(journey, "relay") + self.nodes(journey, "suppressed")
        assert sorted(outcomes) == self.nodes(journey, "candidate")

    def test_originate_then_deliver_at_the_target(self, journey):
        assert journey.events[0].action == "originate"
        assert journey.events[0].node == 0
        (deliver,) = [e for e in journey.events if e.action == "deliver"]
        assert deliver.node == 6
        assert deliver.time == journey.delivery_time
