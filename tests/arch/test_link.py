"""Tests for the link models and their flow controls (Fig. 1)."""

import pytest

from repro.arch.link import AckNackLink, CreditLink, OnOffLink, make_link
from repro.arch.packet import Packet
from repro.arch.parameters import FlowControlKind, NocParameters


ROUTE = ("c0", "s0", "c1")


def make_flit(vc=0):
    packet = Packet("c0", "c1", 1, ROUTE, vc_path=(vc, vc))
    (flit,) = packet.flits()
    flit.vc = vc
    return flit


class FakeReceiver:
    """Scriptable downstream buffer."""

    def __init__(self, depth=4, num_vcs=1):
        self.depth = depth
        self.buffers = [[] for __ in range(num_vcs)]

    def free_slots(self, vc):
        return self.depth - len(self.buffers[vc])

    def accept(self, flit, cycle):
        if self.free_slots(flit.vc) <= 0:
            return False
        self.buffers[flit.vc].append(flit)
        return True

    def pop(self, vc=0, cycle=None):
        return self.buffers[vc].pop(0)

    @property
    def total(self):
        return sum(len(b) for b in self.buffers)


class TestBaseLink:
    def test_one_flit_per_cycle(self):
        link = CreditLink("l", 1, 1, 4)
        link.connect(FakeReceiver())
        link.send(make_flit(), 0)
        with pytest.raises(RuntimeError, match="second send"):
            link.send(make_flit(), 0)

    def test_delivery_after_delay(self):
        recv = FakeReceiver()
        link = CreditLink("l", 3, 1, 4)
        link.connect(recv)
        link.send(make_flit(), 0)
        for c in range(3):
            link.tick(c)
            assert recv.total == 0
        link.tick(3)
        assert recv.total == 1

    def test_send_without_grant_rejected(self):
        link = CreditLink("l", 1, 1, 1)
        link.connect(FakeReceiver(depth=1))
        link.send(make_flit(), 0)
        with pytest.raises(RuntimeError, match="grant"):
            link.send(make_flit(), 1)  # no credits left

    def test_validation(self):
        with pytest.raises(ValueError):
            CreditLink("l", 0, 1, 4)
        with pytest.raises(ValueError):
            CreditLink("l", 1, 0, 4)
        with pytest.raises(ValueError):
            CreditLink("l", 1, 1, 0)


class TestCreditLink:
    def test_credits_deplete_and_return(self):
        recv = FakeReceiver(depth=2)
        link = CreditLink("l", 1, 1, 2)
        link.connect(recv)
        link.send(make_flit(), 0)
        link.tick(1)
        link.send(make_flit(), 1)
        assert not link.can_send(0, 2)  # both credits consumed
        link.return_credit(0, 2)       # receiver drained one flit
        assert not link.can_send(0, 2)  # credit still in flight
        assert link.can_send(0, 3)      # arrives after delay

    def test_per_vc_credits(self):
        recv = FakeReceiver(depth=1, num_vcs=2)
        link = CreditLink("l", 1, 2, 1)
        link.connect(recv)
        link.send(make_flit(vc=0), 0)
        assert not link.can_send(0, 0)
        assert link.can_send(1, 0)  # other VC unaffected


class TestOnOffLink:
    def test_observation_is_delayed(self):
        recv = FakeReceiver(depth=2)
        link = OnOffLink("l", 2, 1, 2, threshold=1)
        link.connect(recv)
        # Fill the receiver directly; the sender still sees stale "empty".
        recv.accept(make_flit(), 0)
        recv.accept(make_flit(), 0)
        assert link.can_send(0, 0)  # stale observation says space
        link.tick(0)
        link.tick(1)  # two samples recorded: observed free = 0
        assert not link.can_send(0, 2)

    def test_in_flight_accounting_prevents_overflow(self):
        recv = FakeReceiver(depth=2)
        link = OnOffLink("l", 2, 1, 2, threshold=1)
        link.connect(recv)
        link.send(make_flit(), 0)
        link.send(make_flit(), 1)
        # Observed free = 2 (stale) but 2 flits in flight: must stall.
        assert not link.can_send(0, 1)

    def test_throughput_recovers_after_drain(self):
        recv = FakeReceiver(depth=2)
        link = OnOffLink("l", 1, 1, 2, threshold=1)
        link.connect(recv)
        cycle = 0
        sent = 0
        for cycle in range(20):
            if link.can_send(0, cycle):
                link.send(make_flit(), cycle)
                sent += 1
            link.tick(cycle)
            if recv.total:
                recv.pop()  # drain one per cycle
        assert sent >= 9  # near-full throughput with drain matching rate

    # The OFF threshold covers each link's round trip (threshold >=
    # delay), as NocParameters.onoff_threshold requires.
    @pytest.mark.parametrize("delay,depth,threshold,seed", [
        (1, 2, 1, 1), (2, 2, 2, 2), (3, 4, 3, 3), (5, 6, 5, 4), (2, 6, 3, 5),
    ])
    def test_reported_changes_match_per_cycle_polling(
        self, delay, depth, threshold, seed
    ):
        """A receiver that reports each change of its free-slot count
        (as switch ports do) must let the sender see exactly what a
        per-cycle sample of that count would show."""
        import random

        class ReportingReceiver(FakeReceiver):
            reports_free_slots = True

            def __init__(self, depth):
                super().__init__(depth)
                self.link = None

            def accept(self, flit, cycle):
                ok = super().accept(flit, cycle)
                self.link.observe(0, cycle, self.free_slots(0))
                return ok

            def pop(self, vc=0, cycle=None):
                flit = super().pop(vc)
                self.link.observe(0, cycle, self.free_slots(0))
                return flit

        traces = []
        for reporting in (False, True):
            rng = random.Random(seed)
            recv = ReportingReceiver(depth) if reporting else FakeReceiver(depth)
            link = OnOffLink("l", delay, 1, depth, threshold=threshold)
            link.connect(recv)
            if reporting:
                recv.link = link
            trace = []
            for cycle in range(200):
                if recv.total and rng.random() < 0.4:
                    recv.pop(0, cycle)  # drains before the link phase
                ok = link.can_send(0, cycle)
                if ok and rng.random() < 0.8:
                    link.send(make_flit(), cycle)
                link.tick(cycle)
                trace.append((ok, recv.total))
            traces.append(trace)
        assert traces[0] == traces[1]
        assert any(not ok for ok, __ in traces[0])  # backpressure engaged

    @pytest.mark.parametrize("depth", range(1, 7))
    @pytest.mark.parametrize("delay", range(1, 6))
    def test_built_links_never_overflow(self, delay, depth):
        """Every ON/OFF link the factory builds keeps a stalled or a
        randomly draining receiver from overflowing; a delay and depth
        pair that no threshold makes safe is refused instead."""
        import random

        def overflows(link, drain):
            rng = random.Random(delay * 10 + depth)
            recv = FakeReceiver(depth)
            link.connect(recv)
            try:
                for cycle in range(300):
                    if recv.total and rng.random() < drain:
                        recv.pop()
                    if link.can_send(0, cycle):
                        link.send(make_flit(), cycle)
                    link.tick(cycle)
            except RuntimeError as exc:
                assert "overflow" in str(exc)
                return True
            return False

        params = NocParameters(buffer_depth=depth,
                               onoff_threshold=min(2, depth))
        try:
            make_link("s0->s1", delay, params)
        except ValueError as exc:
            assert "s0->s1" in str(exc)
            # Refused only where every threshold overflows.
            assert all(
                overflows(OnOffLink("l", delay, 1, depth, threshold=t), 0.0)
                for t in range(1, depth + 1)
            )
            return
        for drain in (0.0, 0.3, 0.7):
            assert not overflows(make_link("s0->s1", delay, params), drain)

    def test_threshold_covers_link_delay(self):
        params = NocParameters(buffer_depth=4, onoff_threshold=2)
        assert make_link("l", 1, params).threshold == 2
        assert make_link("l", 3, params).threshold == 3
        assert make_link("l", 6, params).threshold == 4

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            OnOffLink("l", 1, 1, 2, threshold=3)
        with pytest.raises(ValueError):
            OnOffLink("l", 1, 1, 2, threshold=0)


class TestAckNackLink:
    def test_in_order_delivery(self):
        recv = FakeReceiver(depth=8)
        link = AckNackLink("l", 1, window=4)
        link.connect(recv)
        flits = [make_flit() for __ in range(3)]
        for i, f in enumerate(flits):
            link.send(f, i)
        for c in range(10):
            link.tick(c)
        assert recv.total == 3
        assert [f.packet.packet_id for f in recv.buffers[0]] == [
            f.packet.packet_id for f in flits
        ]

    def test_window_limits_outstanding(self):
        link = AckNackLink("l", 2, window=2)
        link.connect(FakeReceiver(depth=0))  # receiver always full
        assert link.can_send(0, 0)
        link.send(make_flit(), 0)
        link.send(make_flit(), 1)
        assert not link.can_send(0, 2)  # window full, nothing acked

    def test_retransmission_on_full_receiver(self):
        recv = FakeReceiver(depth=1)
        link = AckNackLink("l", 1, window=4)
        link.connect(recv)
        link.send(make_flit(), 0)
        link.send(make_flit(), 1)
        # Don't drain: second flit must be NACKed at least once.
        for c in range(12):
            link.tick(c)
        assert recv.total == 1
        assert link.retransmissions >= 1
        # Drain and let the protocol recover.
        recv.pop()
        for c in range(12, 40):
            link.tick(c)
        assert recv.total == 1  # the second flit arrived after retry

    def test_eventual_delivery_under_slow_drain(self):
        recv = FakeReceiver(depth=1)
        link = AckNackLink("l", 1, window=4)
        link.connect(recv)
        sent = 0
        delivered = 0
        for cycle in range(300):
            if sent < 20 and link.can_send(0, cycle):
                link.send(make_flit(), cycle)
                sent += 1
            link.tick(cycle)
            if cycle % 3 == 0 and recv.total:  # drain 1 flit / 3 cycles
                recv.pop()
                delivered += 1
        assert sent == 20
        assert delivered + recv.total == 20

    def test_single_vc_only(self):
        params = NocParameters(
            flow_control=FlowControlKind.ACK_NACK,
            output_buffer_depth=4,
            num_vcs=2,
        )
        with pytest.raises(ValueError, match="single VC"):
            make_link("l", 1, params)


class TestFactory:
    def test_builds_matching_kind(self):
        assert isinstance(
            make_link("l", 1, NocParameters(flow_control=FlowControlKind.CREDIT)),
            CreditLink,
        )
        assert isinstance(
            make_link("l", 1, NocParameters(flow_control=FlowControlKind.ON_OFF)),
            OnOffLink,
        )
        assert isinstance(
            make_link(
                "l",
                1,
                NocParameters(
                    flow_control=FlowControlKind.ACK_NACK, output_buffer_depth=4
                ),
            ),
            AckNackLink,
        )
