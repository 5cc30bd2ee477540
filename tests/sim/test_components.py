"""Tests for the component/port model."""

import pytest

from repro.obs.observe import Observability
from repro.sim.components import Component, Outport, PortNotConnected, SimContext


class TestOutport:
    def test_unconnected_port_raises(self):
        port = Outport("p")
        with pytest.raises(PortNotConnected):
            port("data")

    def test_single_handler(self):
        port = Outport("p")
        got = []
        port.connect(got.append)
        port("x")
        assert got == ["x"]

    def test_fan_out_in_connection_order(self):
        port = Outport("p")
        order = []
        port.connect(lambda v: order.append(("first", v)))
        port.connect(lambda v: order.append(("second", v)))
        port(7)
        assert order == [("first", 7), ("second", 7)]

    def test_connected_flag(self):
        port = Outport("p")
        assert not port.connected
        port.connect(lambda: None)
        assert port.connected

    def test_connected_is_a_plain_slot(self):
        assert "connected" in Outport.__slots__
        port = Outport("p")
        port.connect(lambda: None)
        port.connect(lambda: None)
        assert port.connected is True

    def test_dispatch_with_no_handler_raises_naming_the_port(self):
        port = Outport("mac[1].to_net")
        with pytest.raises(PortNotConnected, match=r"mac\[1\]\.to_net"):
            port.dispatch("data")

    def test_dispatch_is_the_lone_handler(self):
        port = Outport("p")
        got = []
        port.connect(got.append)
        assert port.dispatch == got.append
        port.dispatch("x")
        assert got == ["x"]

    def test_two_handlers_fan_out_through_dispatch_and_call(self):
        port = Outport("p")
        order = []
        port.connect(lambda v: order.append(("first", v)))
        port.connect(lambda v: order.append(("second", v)))
        port.dispatch(1)
        port(2)
        assert order == [("first", 1), ("second", 1),
                         ("first", 2), ("second", 2)]

    def test_handler_connected_after_first_call(self):
        port = Outport("p")
        first, second = [], []
        port.connect(first.append)
        port("a")
        port.connect(second.append)
        port("b")
        port.dispatch("c")
        assert first == ["a", "b", "c"]
        assert second == ["b", "c"]

    def test_handler_connected_after_failed_call(self):
        port = Outport("p")
        with pytest.raises(PortNotConnected):
            port("lost")
        got = []
        port.connect(got.append)
        port("kept")
        assert got == ["kept"]

    @pytest.mark.parametrize("n_handlers", [1, 2])
    def test_kwargs_reach_every_handler(self, n_handlers):
        port = Outport("p")
        got = []
        for i in range(n_handlers):
            port.connect(lambda a, *, b, i=i: got.append((i, a, b)))
        port(1, b=2)
        port.dispatch(3, b=4)
        assert got == [(i, a, b) for a, b in ((1, 2), (3, 4))
                       for i in range(n_handlers)]


class TestComponent:
    def test_now_reads_the_simulator_clock(self, ctx):
        comp = Component(ctx, "c")
        assert comp.sim is ctx.simulator
        ctx.simulator.schedule(1.5, lambda: None)
        ctx.simulator.run()
        assert comp.now == ctx.now == ctx.simulator.now == 1.5

    def test_schedule_uses_context_clock(self, ctx):
        comp = Component(ctx, "c")
        fired = []
        comp.schedule(2.0, fired.append, "x")
        ctx.simulator.run()
        assert fired == ["x"]
        assert comp.now == 2.0

    def test_rng_streams_are_per_component(self, ctx):
        a = Component(ctx, "a").rng()
        b = Component(ctx, "b").rng()
        assert a.uniform() != b.uniform() or a is not b

    def test_rng_suffix_gives_distinct_stream(self, ctx):
        comp = Component(ctx, "c")
        assert comp.rng("x") is not comp.rng("y")

    def test_outport_name_includes_component(self, ctx):
        comp = Component(ctx, "mac[2]")
        assert comp.outport("to_net").name == "mac[2].to_net"


class TestSimContext:
    def test_observing_is_a_plain_attribute(self):
        assert "observing" not in vars(SimContext)  # no property
        assert "tracing" not in vars(SimContext)
        assert SimContext().observing is False
        assert SimContext(obs=Observability()).observing is True

    def test_observing_honours_enabled_at_construction(self):
        obs = Observability()
        obs.enabled = False
        assert SimContext(obs=obs).observing is False
