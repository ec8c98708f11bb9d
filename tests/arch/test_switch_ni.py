"""Tests for the switch model and the network interfaces."""

import pytest

from repro.arch.arbiter import TdmaArbiter
from repro.arch.link import CreditLink
from repro.arch.network_interface import InitiatorNI, RoutingLut, TargetNI
from repro.arch.packet import MessageClass, Packet
from repro.arch.parameters import NocParameters
from repro.arch.switch import SwitchModel


PARAMS = NocParameters()
#: Delivery cycle for flits placed before the first tick: they land in
#: the link phase before cycle 0, so a one-stage switch forwards them
#: from cycle 0 on.
BEFORE_START = -1


def wire_minimal():
    """c0 -> s0 -> c1 with explicit links; returns all pieces."""
    lut = RoutingLut()
    lut.set("c1", ("c0", "s0", "c1"))
    inj = CreditLink("c0->s0", 1, PARAMS.num_vcs, PARAMS.buffer_depth)
    ej = CreditLink("s0->c1", 1, PARAMS.num_vcs, PARAMS.buffer_depth)
    ni = InitiatorNI("c0", PARAMS, lut, {"s0": inj})
    target = TargetNI("c1", PARAMS, {"s0": ej})
    switch = SwitchModel("s0", PARAMS, {"c0": inj}, {"c1": ej})
    return ni, switch, target, inj, ej


def run_cycles(ni, switch, target, links, n):
    for c in range(n):
        switch.tick(c)
        ni.tick(c)
        for link in links:
            link.tick(c)
        target.tick(c)


class TestRoutingLut:
    def test_set_lookup(self):
        lut = RoutingLut()
        lut.set("c1", ("c0", "s0", "c1"), (0, 0))
        route, vcs = lut.lookup("c1")
        assert route == ("c0", "s0", "c1")
        assert vcs == (0, 0)
        assert "c1" in lut and len(lut) == 1

    def test_missing_destination(self):
        lut = RoutingLut()
        with pytest.raises(KeyError, match="no route"):
            lut.lookup("ghost")


class TestEndToEnd:
    def test_single_packet_delivery(self):
        ni, switch, target, inj, ej = wire_minimal()
        ni.send("c1", 4, cycle=0)
        run_cycles(ni, switch, target, [inj, ej], 20)
        assert len(target.packets_received) == 1
        packet, arrival = target.packets_received[0]
        assert packet.size_flits == 4
        assert arrival > 0

    def test_latency_components(self):
        """4-flit packet over 2 links with a 1-cycle switch: the tail
        arrives after serialization (4) + path traversal."""
        ni, switch, target, inj, ej = wire_minimal()
        ni.send("c1", 4, cycle=0)
        run_cycles(ni, switch, target, [inj, ej], 20)
        __, arrival = target.packets_received[0]
        assert 6 <= arrival <= 12

    def test_wormhole_no_interleaving(self):
        """Two packets to the same output must not interleave flits."""
        lut = RoutingLut()
        lut.set("c2", ("c0", "s0", "c2"))
        lut2 = RoutingLut()
        lut2.set("c2", ("c1", "s0", "c2"))
        l0 = CreditLink("c0->s0", 1, 1, 4)
        l1 = CreditLink("c1->s0", 1, 1, 4)
        ej = CreditLink("s0->c2", 1, 1, 4)
        ni0 = InitiatorNI("c0", PARAMS, lut, {"s0": l0})
        ni1 = InitiatorNI("c1", PARAMS, lut2, {"s0": l1})
        target = TargetNI("c2", PARAMS, {"s0": ej})
        switch = SwitchModel("s0", PARAMS, {"c0": l0, "c1": l1}, {"c2": ej})
        ni0.send("c2", 4, cycle=0)
        ni1.send("c2", 4, cycle=0)
        drained = []
        target.trace = lambda cycle, flit: drained.append(flit.packet.source)
        for c in range(40):
            switch.tick(c)
            ni0.tick(c)
            ni1.tick(c)
            for link in (l0, l1, ej):
                link.tick(c)
            target.tick(c)
        # The output lock holds the one ejection VC from head to tail.
        assert drained == ["c0"] * 4 + ["c1"] * 4
        assert len(target.packets_received) == 2

    def test_output_lock_blocks_second_head(self):
        params = PARAMS
        in0 = CreditLink("a->s0", 1, 1, 4)
        in1 = CreditLink("b->s0", 1, 1, 4)
        out = CreditLink("s0->c", 1, 1, 4)
        switch = SwitchModel("s0", params, {"a": in0, "b": in1}, {"c": out})
        p0, p1 = switch.inputs["a"], switch.inputs["b"]
        sink = TargetNI("c", params, {"s0": out})

        pkt_a = Packet("a", "c", 3, ("a", "s0", "c"))
        pkt_b = Packet("b", "c", 3, ("b", "s0", "c"))
        for f in pkt_a.flits():
            f.hop = 1
            p0.accept(f, BEFORE_START)
        for f in pkt_b.flits():
            f.hop = 1
            p1.accept(f, BEFORE_START)
        sent_packets = []
        for c in range(3):
            switch.tick(c)
            out.tick(c)
        # After 3 cycles exactly one packet has fully passed; no flits of
        # the other packet are interleaved among them.
        drained = list(sink.port.buffer)
        ids = [f.packet.packet_id for f in drained]
        assert len(set(ids)) == 1

    def test_input_port_supplies_one_flit_per_cycle(self):
        """Crossbar input bandwidth: one pop per (input, VC) per cycle
        even when the buffered flits target different outputs."""
        params = PARAMS
        in0 = CreditLink("a->s0", 1, 1, 4)
        out1 = CreditLink("s0->c1", 1, 1, 4)
        out2 = CreditLink("s0->c2", 1, 1, 4)
        switch = SwitchModel("s0", params, {"a": in0},
                             {"c1": out1, "c2": out2})
        p0 = switch.inputs["a"]
        TargetNI("c1", params, {"s0": out1})
        TargetNI("c2", params, {"s0": out2})
        pkt_a = Packet("a", "c1", 1, ("a", "s0", "c1"))
        pkt_b = Packet("a", "c2", 1, ("a", "s0", "c2"))
        for pkt in (pkt_a, pkt_b):
            (f,) = pkt.flits()
            f.hop = 1
            assert p0.accept(f, BEFORE_START)
        switch.tick(0)
        # Only one of the two single-flit packets moved this cycle.
        assert switch.flits_forwarded == 1
        switch.tick(1)
        assert switch.flits_forwarded == 2

    def test_flit_routed_to_missing_output_raises(self):
        params = PARAMS
        switch = SwitchModel("s0", params, {"a": CreditLink("a->s0", 1, 1, 4)},
                             {"elsewhere": CreditLink("s0->e", 1, 1, 4)})
        p0 = switch.inputs["a"]
        pkt = Packet("a", "ghost", 1, ("a", "s0", "ghost"))
        (f,) = pkt.flits()
        f.hop = 1
        p0.accept(f, BEFORE_START)
        with pytest.raises(RuntimeError, match="unknown"):
            switch.tick(0)

    def test_constructed_switch_is_usable_before_first_tick(self):
        """A switch built with its links answers its per-output counters
        and takes a slot table before it has ever ticked."""
        switch = SwitchModel(
            "s0", PARAMS,
            {"a": CreditLink("a->s0", 1, 1, 4),
             "b": CreditLink("b->s0", 1, 1, 4)},
            {"c": CreditLink("s0->c", 1, 1, 4),
             "d": CreditLink("s0->d", 1, 1, 4)},
        )
        pa, pb = switch.inputs["a"], switch.inputs["b"]
        assert switch.stall_cycles_by_output == {"c": 0, "d": 0}
        assert switch.contention_cycles_by_output == {"c": 0, "d": 0}
        assert switch.stall_cycles == switch.contention_cycles == 0
        switch.set_tdma_table("c", TdmaArbiter([3], n=2))
        be = Packet("a", "c", 1, ("a", "s0", "c"))
        gt = Packet("b", "c", 1, ("b", "s0", "c"),
                    message_class=MessageClass.GUARANTEED, connection_id=3)
        for port, packet in ((pa, be), (pb, gt)):
            (f,) = packet.flits()
            f.hop = 1
            assert port.accept(f, BEFORE_START)
        sent = []
        switch.trace = lambda cycle, flit: sent.append(flit.packet)
        switch.tick(0)
        # Slot 0 belongs to connection 3: the GT flit on the later input
        # wins over the round-robin favourite on input "a".
        assert sent == [gt]
        assert switch.contention_cycles_by_output == {"c": 1, "d": 0}

    def test_multi_flit_packets_share_link_across_vcs(self):
        """With 2 VCs, flits of two packets may interleave on the link."""
        params = NocParameters(num_vcs=2)
        in0 = CreditLink("a->s0", 1, 2, 4)
        out = CreditLink("s0->c", 1, 2, 4)
        switch = SwitchModel("s0", params, {"a": in0}, {"c": out})
        p0 = switch.inputs["a"]
        sink = TargetNI("c", params, {"s0": out})
        pkt_a = Packet("a", "c", 2, ("a", "s0", "c"), vc_path=(0, 0))
        pkt_b = Packet("a", "c", 2, ("a", "s0", "c"), vc_path=(1, 1))
        # Both from 'a' (same input port), on different VCs.
        for f in pkt_a.flits():
            f.hop, f.vc = 1, 0
            assert p0.accept(f, BEFORE_START)
        for f in pkt_b.flits():
            f.hop, f.vc = 1, 1
            assert p0.accept(f, BEFORE_START)
        for c in range(8):
            switch.tick(c)
            out.tick(c)
            sink.tick(c)
        assert len(sink.packets_received) == 2


class TestInitiatorNI:
    def test_backlog_counts_queued(self):
        ni, switch, target, inj, ej = wire_minimal()
        ni.send("c1", 4, cycle=0)
        ni.send("c1", 4, cycle=0)
        assert ni.backlog == 2

    def test_one_flit_per_cycle(self):
        ni, switch, target, inj, ej = wire_minimal()
        ni.send("c1", 4, cycle=0)
        ni.tick(0)
        assert ni.flits_injected == 1

    def test_unconnected_ni_raises(self):
        lut = RoutingLut()
        lut.set("c1", ("c0", "s0", "c1"))
        ni = InitiatorNI("c0", PARAMS, lut, {})
        ni.send("c1", 1, cycle=0)
        with pytest.raises(RuntimeError, match="no injection link"):
            ni.tick(0)

    def test_multi_homed_ni_injects_toward_route_start(self):
        lut = RoutingLut()
        lut.set("c1", ("c0", "s0", "c1"))
        lut.set("c2", ("c0", "s1", "c2"))
        to_s0 = CreditLink("c0->s0", 1, 1, 4)
        to_s1 = CreditLink("c0->s1", 1, 1, 4)
        ni = InitiatorNI("c0", PARAMS, lut, {"s0": to_s0, "s1": to_s1})
        ni.send("c2", 1, cycle=0)
        ni.send("c1", 1, cycle=0)
        ni.tick(0)
        ni.tick(1)
        assert (to_s0.flits_carried, to_s1.flits_carried) == (1, 1)
        assert to_s1._in_flight[0][1].packet.destination == "c2"

    def test_gt_injection_waits_for_slot(self):
        ni, switch, target, inj, ej = wire_minimal()
        ni.slot_table = [None, 5]  # connection 5 owns slot 1
        ni.send("c1", 1, cycle=0, message_class=MessageClass.GUARANTEED,
                connection_id=5)
        ni.tick(0)  # slot 0: not ours
        assert ni.flits_injected == 0
        ni.tick(1)  # slot 1: ours
        assert ni.flits_injected == 1

    def test_be_ignores_slot_table(self):
        ni, switch, target, inj, ej = wire_minimal()
        ni.slot_table = [5, 5]
        ni.send("c1", 1, cycle=0)  # best effort
        ni.tick(0)
        assert ni.flits_injected == 1


class TestTargetNI:
    def test_drains_one_flit_per_cycle(self):
        target = TargetNI("c", PARAMS, {})
        pkt = Packet("a", "c", 3, ("a", "s0", "c"))
        for f in pkt.flits():
            f.hop = 2
            target.port.accept(f, BEFORE_START)
        target.tick(0)
        target.tick(1)
        assert target.flits_received == 2
        assert len(target.packets_received) == 0  # tail not drained yet
        target.tick(2)
        assert len(target.packets_received) == 1

    def test_backpressures_when_full(self):
        target = TargetNI("c", PARAMS, {}, ejection_depth=2)
        pkt = Packet("a", "c", 3, ("a", "s0", "c"))
        flits = pkt.flits()
        for f in flits:
            f.hop = 2
        assert target.port.accept(flits[0], BEFORE_START)
        assert target.port.accept(flits[1], BEFORE_START)
        assert not target.port.accept(flits[2], BEFORE_START)
        assert target.backlog == 2

    def test_responder_generates_response(self):
        lut = RoutingLut()
        lut.set("a", ("c", "s0", "a"))
        response_ni = InitiatorNI("c", PARAMS, lut, {})
        target = TargetNI("c", PARAMS, {})
        target.response_ni = response_ni

        def responder(request, cycle):
            return Packet(
                "c", "a", 1, ("c", "s0", "a"),
                injection_cycle=cycle,
                message_class=MessageClass.RESPONSE,
            )

        target.set_responder(responder)
        req = Packet("a", "c", 1, ("a", "s0", "c"),
                     message_class=MessageClass.REQUEST)
        (flit,) = req.flits()
        flit.hop = 2
        target.port.accept(flit, 4)
        target.tick(5)
        assert response_ni.backlog == 1

    def test_responder_without_ni_raises(self):
        target = TargetNI("c", PARAMS, {})
        target.response_ni = None
        target.set_responder(lambda req, cyc: req)
        req = Packet("a", "c", 1, ("a", "s0", "c"),
                     message_class=MessageClass.REQUEST)
        (flit,) = req.flits()
        flit.hop = 2
        target.port.accept(flit, BEFORE_START)
        with pytest.raises(RuntimeError, match="no response"):
            target.tick(0)
