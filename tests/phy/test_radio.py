"""Tests for the transceiver state machine: reception, collisions, carrier
sensing, power states."""

import pytest

from repro.mac.frame import Frame
from repro.phy.radio import RadioState
from tests.conftest import line_positions, make_phy_stack


def frame(src=0, dst=None, seq=0):
    return Frame(src=src, dst=dst, seq=seq, payload=None, size_bytes=100)


@pytest.fixture
def pair(ctx):
    """Two nodes well in range of each other."""
    channel, radios, config = make_phy_stack(ctx, line_positions(2, spacing=100.0))
    return ctx, channel, radios


class TestTransmitReceive:
    def test_frame_delivered_intact(self, pair):
        ctx, channel, (tx, rx) = pair
        got = []
        rx.to_mac.connect(lambda f, info: got.append((f, info)))
        tx.transmit(frame(), duration=0.001)
        ctx.simulator.run()
        assert len(got) == 1
        f, info = got[0]
        assert f.src == 0
        assert info.power_dbm >= rx.config.rx_threshold_dbm

    def test_sender_does_not_hear_itself(self, pair):
        ctx, channel, (tx, rx) = pair
        got = []
        tx.to_mac.connect(lambda f, info: got.append(f))
        tx.transmit(frame(), duration=0.001)
        ctx.simulator.run()
        assert got == []

    def test_out_of_range_node_hears_nothing(self, ctx):
        channel, radios, _ = make_phy_stack(ctx, line_positions(2, spacing=2000.0))
        got = []
        radios[1].to_mac.connect(lambda f, info: got.append(f))
        radios[0].transmit(frame(), duration=0.001)
        ctx.simulator.run()
        assert got == []

    def test_tx_state_during_transmission(self, pair):
        ctx, channel, (tx, rx) = pair
        tx.transmit(frame(), duration=0.01)
        assert tx.state == RadioState.TX
        ctx.simulator.run()
        assert tx.state == RadioState.IDLE

    def test_cannot_transmit_while_transmitting(self, pair):
        ctx, channel, (tx, rx) = pair
        assert tx.transmit(frame(), duration=0.01)
        assert not tx.transmit(frame(seq=1), duration=0.01)

    def test_tx_done_fires(self, pair):
        ctx, channel, (tx, rx) = pair
        done = []
        tx.tx_done.connect(lambda: done.append(ctx.now))
        tx.transmit(frame(), duration=0.005)
        ctx.simulator.run()
        assert done == [pytest.approx(0.005)]

    def test_rx_power_decreases_with_distance(self, ctx):
        channel, radios, _ = make_phy_stack(ctx, line_positions(3, spacing=100.0))
        powers = {}
        radios[1].to_mac.connect(lambda f, i: powers.__setitem__(1, i.power_dbm))
        radios[2].to_mac.connect(lambda f, i: powers.__setitem__(2, i.power_dbm))
        radios[0].transmit(frame(), duration=0.001)
        ctx.simulator.run()
        assert powers[1] > powers[2]


class TestCollisions:
    def test_overlapping_frames_collide(self, ctx):
        # Nodes 0 and 2 both in range of node 1; simultaneous transmissions.
        channel, radios, _ = make_phy_stack(ctx, line_positions(3, spacing=100.0))
        got = []
        radios[1].to_mac.connect(lambda f, i: got.append(f))
        radios[0].transmit(frame(src=0), duration=0.001)
        radios[2].transmit(frame(src=2), duration=0.001)
        ctx.simulator.run()
        assert got == []

    def test_non_overlapping_frames_both_received(self, ctx):
        channel, radios, _ = make_phy_stack(ctx, line_positions(3, spacing=100.0))
        got = []
        radios[1].to_mac.connect(lambda f, i: got.append(f.src))
        radios[0].transmit(frame(src=0), duration=0.001)
        ctx.simulator.schedule(0.002, radios[2].transmit, frame(src=2), 0.001)
        ctx.simulator.run()
        assert sorted(got) == [0, 2]

    def test_half_duplex_tx_kills_reception(self, ctx):
        channel, radios, _ = make_phy_stack(ctx, line_positions(2, spacing=100.0))
        got = []
        radios[1].to_mac.connect(lambda f, i: got.append(f))
        radios[0].transmit(frame(src=0), duration=0.01)
        # Receiver starts its own transmission mid-reception.
        ctx.simulator.schedule(0.002, radios[1].transmit, frame(src=1), 0.001)
        ctx.simulator.run()
        assert got == []

    def test_capture_stronger_frame_survives(self, ctx):
        # Node 1 sits 50 m from node 0 and 200 m from node 2: with a capture
        # margin the much stronger frame from node 0 survives the overlap.
        import numpy as np
        positions = np.array([[0.0, 0.0], [50.0, 0.0], [250.0, 0.0]])
        channel, radios, _ = make_phy_stack(ctx, positions, capture_margin_db=10.0)
        got = []
        radios[1].to_mac.connect(lambda f, i: got.append(f.src))
        radios[0].transmit(frame(src=0), duration=0.001)
        radios[2].transmit(frame(src=2), duration=0.001)
        ctx.simulator.run()
        assert got == [0]


class TestCarrierSense:
    def test_busy_during_neighbor_transmission(self, pair):
        ctx, channel, (tx, rx) = pair
        transitions = []
        rx.carrier.connect(transitions.append)
        tx.transmit(frame(), duration=0.005)
        ctx.simulator.run()
        assert transitions == [True, False]

    def test_carrier_busy_predicate(self, pair):
        ctx, channel, (tx, rx) = pair
        tx.transmit(frame(), duration=0.005)
        ctx.simulator.run(until=0.001)
        assert rx.carrier_busy()
        assert tx.carrier_busy()  # own TX counts as busy
        ctx.simulator.run()
        assert not rx.carrier_busy()

    def test_cs_range_exceeds_rx_range(self, ctx):
        # At 1.2× range the signal is below the rx threshold but above the
        # carrier-sense threshold (6 dB margin ≈ 2× power ≈ 1.41× distance).
        channel, radios, config = make_phy_stack(ctx, line_positions(2, spacing=300.0))
        got, transitions = [], []
        radios[1].to_mac.connect(lambda f, i: got.append(f))
        radios[1].carrier.connect(transitions.append)
        radios[0].transmit(frame(), duration=0.001)
        ctx.simulator.run()
        assert got == []  # cannot decode
        assert transitions == [True, False]  # but senses energy


class TestPowerStates:
    def test_off_radio_receives_nothing(self, pair):
        ctx, channel, (tx, rx) = pair
        got = []
        rx.to_mac.connect(lambda f, i: got.append(f))
        rx.set_power(False)
        tx.transmit(frame(), duration=0.001)
        ctx.simulator.run()
        assert got == []

    def test_off_radio_cannot_transmit(self, pair):
        ctx, channel, (tx, rx) = pair
        tx.set_power(False)
        assert tx.transmit(frame(), duration=0.001) is False

    def test_turning_off_mid_reception_drops_frame(self, pair):
        ctx, channel, (tx, rx) = pair
        got = []
        rx.to_mac.connect(lambda f, i: got.append(f))
        tx.transmit(frame(), duration=0.01)
        ctx.simulator.schedule(0.005, rx.set_power, False)
        ctx.simulator.run()
        assert got == []

    def test_power_cycle_restores_reception(self, pair):
        ctx, channel, (tx, rx) = pair
        got = []
        rx.to_mac.connect(lambda f, i: got.append(f))
        rx.set_power(False)
        rx.set_power(True)
        tx.transmit(frame(), duration=0.001)
        ctx.simulator.run()
        assert len(got) == 1

    def test_sleep_state_flag(self, pair):
        ctx, channel, (tx, rx) = pair
        rx.set_power(False, sleep=True)
        assert rx.state == RadioState.SLEEP
        assert not rx.is_on

    def test_frame_arriving_during_off_window_is_missed_even_after_wake(self, pair):
        ctx, channel, (tx, rx) = pair
        got = []
        rx.to_mac.connect(lambda f, i: got.append(f))
        tx.transmit(frame(), duration=0.01)
        ctx.simulator.schedule(0.002, rx.set_power, False)
        ctx.simulator.schedule(0.004, rx.set_power, True)
        ctx.simulator.run()
        assert got == []


class TestCachedState:
    """``is_on`` and the thresholds are plain attributes set once or by
    ``_set_state``; they must never drift from the state and config."""

    def test_thresholds_equal_the_config(self, pair):
        _ctx, _channel, radios = pair
        for radio in radios:
            assert radio.rx_threshold_dbm == radio.config.rx_threshold_dbm
            assert radio.cs_threshold_dbm == radio.config.cs_threshold_dbm

    def test_is_on_tracks_every_transition(self, pair):
        ctx, channel, (tx, rx) = pair
        seen = []

        def check(radio, expected_state):
            assert radio.state is expected_state
            assert radio.is_on is (expected_state not in
                                   (RadioState.SLEEP, RadioState.OFF))
            seen.append(expected_state)

        check(tx, RadioState.IDLE)
        tx.transmit(frame(), duration=0.01)
        check(tx, RadioState.TX)
        ctx.simulator.schedule(0.005, check, rx, RadioState.RX)
        ctx.simulator.run()
        check(tx, RadioState.IDLE)
        check(rx, RadioState.IDLE)
        tx.set_power(False)
        check(tx, RadioState.OFF)
        tx.set_power(True)
        check(tx, RadioState.IDLE)
        tx.set_power(False, sleep=True)
        check(tx, RadioState.SLEEP)
        tx.set_power(True)
        check(tx, RadioState.IDLE)
        tx.transmit(frame(seq=1), duration=0.01)
        tx.set_power(False)  # mid-transmission
        check(tx, RadioState.OFF)
        assert set(seen) == set(RadioState)

