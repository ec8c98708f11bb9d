"""Tests for the link models and their flow controls (Fig. 1)."""

import pytest

from repro.arch.link import AckNackLink, CreditLink, Link, OnOffLink, make_link
from repro.arch.packet import Packet
from repro.arch.parameters import FlowControlKind, NocParameters


ROUTE = ("c0", "s0", "c1")


def make_flit(vc=0):
    packet = Packet("c0", "c1", 1, ROUTE, vc_path=(vc, vc))
    (flit,) = packet.flits()
    flit.vc = vc
    return flit


class FakeReceiver:
    """Scriptable downstream buffer that returns each slot it frees."""

    def __init__(self, depth=4, num_vcs=1):
        self.depth = depth
        self.buffers = [[] for __ in range(num_vcs)]
        self.link = None

    def attach(self, link, share=None):
        link.connect(self, share)
        self.link = link
        return link

    def free_slots(self, vc):
        return self.depth - len(self.buffers[vc])

    def accept(self, flit, cycle):
        if self.free_slots(flit.vc) <= 0:
            return False
        self.buffers[flit.vc].append(flit)
        return True

    def pop(self, vc, cycle, after_links=False):
        self.link.return_credit(vc, cycle, after_links)
        return self.buffers[vc].pop(0)

    @property
    def total(self):
        return sum(len(b) for b in self.buffers)


class TestBaseLink:
    def test_one_flit_per_cycle(self):
        link = CreditLink("l", 1, 1, 4)
        FakeReceiver().attach(link)
        link.send(make_flit(), 0)
        with pytest.raises(RuntimeError, match="second send"):
            link.send(make_flit(), 0)

    def test_delivery_after_delay(self):
        recv = FakeReceiver()
        link = CreditLink("l", 3, 1, 4)
        recv.attach(link)
        link.send(make_flit(), 0)
        for c in range(3):
            link.tick(c)
            assert recv.total == 0
        link.tick(3)
        assert recv.total == 1

    def test_send_without_grant_rejected(self):
        link = CreditLink("l", 1, 1, 1)
        FakeReceiver(depth=1).attach(link)
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
    def test_repair_keeps_the_receivers_occupancy(self):
        """A repaired link grants only the slots its receiver has free:
        the flit lost in flight returns its credit, the flit still held
        downstream keeps its own."""
        recv = FakeReceiver(depth=2)
        link = recv.attach(CreditLink("l", 1, 1, 2))
        link.send(make_flit(), 0)
        link.tick(1)  # delivered and held downstream
        link.send(make_flit(), 1)
        link.fail(1)  # loses the flit in flight
        link.repair(2)
        assert link.can_send(0, 2)
        link.send(make_flit(), 2)
        link.tick(3)
        assert recv.total == 2
        assert not link.can_send(0, 3)

    def test_share_caps_credits(self):
        link = FakeReceiver().attach(CreditLink("l", 1, 1, 4), share=2)
        assert link.credits == [2]
        with pytest.raises(ValueError, match="no ejection buffer slot"):
            FakeReceiver().attach(CreditLink("l", 1, 1, 4), share=0)

    def test_credits_deplete_and_return(self):
        recv = FakeReceiver(depth=2)
        link = CreditLink("l", 1, 1, 2)
        recv.attach(link)
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
        recv.attach(link)
        link.send(make_flit(vc=0), 0)
        assert not link.can_send(0, 0)
        assert link.can_send(1, 0)  # other VC unaffected


class PolledOnOffLink(Link):
    """Reference ON/OFF sender: samples its receiver every cycle.

    The sample is taken in the link phase, right after the link's own
    deliveries; the sender reads the one taken ``delay`` cycles ago
    (``depth`` before the first), less its own flits in flight.
    """

    def __init__(self, delay, depth, threshold):
        super().__init__("ref", delay, 1)
        self.depth = depth
        self.threshold = threshold
        self.samples = {}
        self.in_flight = 0

    def can_send(self, vc, cycle):
        free = self.samples.get(cycle - self.delay_cycles, self.depth)
        return free - self.in_flight >= self.threshold

    def send(self, flit, cycle):
        super().send(flit, cycle)
        self.in_flight += 1

    def tick(self, cycle):
        super().tick(cycle)
        self.samples[cycle] = self.receiver.free_slots(0)

    def _deliver(self, flit, cycle):
        self.in_flight -= 1
        if not self.receiver.accept(flit, cycle):
            raise RuntimeError("receiver overflow")


class TestOnOffLink:
    def test_observation_is_delayed(self):
        recv = FakeReceiver(depth=2)
        link = recv.attach(OnOffLink("l", 2, 1, 2, threshold=1))
        link.send(make_flit(), 0)
        link.send(make_flit(), 1)
        for c in range(4):
            link.tick(c)  # deliveries at 2 and 3 fill the receiver
        assert link.can_send(0, 3)  # sees the count as of cycle 1
        assert link.can_send(0, 4)
        assert not link.can_send(0, 5)  # as of cycle 3: full
        recv.pop(0, 5)
        assert not link.can_send(0, 6)
        assert link.can_send(0, 7)  # the freed slot, two cycles on

    def test_in_flight_accounting_prevents_overflow(self):
        recv = FakeReceiver(depth=2)
        link = OnOffLink("l", 2, 1, 2, threshold=1)
        recv.attach(link)
        link.send(make_flit(), 0)
        link.send(make_flit(), 1)
        # Observed free = 2 (stale) but 2 flits in flight: must stall.
        assert not link.can_send(0, 1)

    def test_throughput_recovers_after_drain(self):
        recv = FakeReceiver(depth=2)
        link = OnOffLink("l", 1, 1, 2, threshold=1)
        recv.attach(link)
        cycle = 0
        sent = 0
        for cycle in range(20):
            if link.can_send(0, cycle):
                link.send(make_flit(), cycle)
                sent += 1
            link.tick(cycle)
            if recv.total:
                recv.pop(0, cycle, after_links=True)  # drain one per cycle
        assert sent >= 9  # near-full throughput with drain matching rate

    # The OFF threshold covers each link's round trip (threshold >=
    # delay), as NocParameters.onoff_threshold requires.
    @pytest.mark.parametrize("delay,depth,threshold,seed", [
        (1, 2, 1, 1), (2, 2, 2, 2), (3, 4, 3, 3), (5, 6, 5, 4), (2, 6, 3, 5),
    ])
    def test_reported_changes_match_per_cycle_polling(
        self, delay, depth, threshold, seed
    ):
        """Counting deliveries and returned slots must let the sender
        see exactly what a per-cycle sample of the receiver shows, for
        slots freed before the link phase (switch pops) and after it
        (target drains)."""
        import random

        for after_links in (False, True):
            traces = []
            for link in (OnOffLink("l", delay, 1, depth, threshold=threshold),
                         PolledOnOffLink(delay, depth, threshold)):
                rng = random.Random(seed)
                recv = FakeReceiver(depth)
                recv.attach(link)
                trace = []
                for cycle in range(200):
                    if not after_links and recv.total and rng.random() < 0.4:
                        recv.pop(0, cycle)
                    ok = link.can_send(0, cycle)
                    if ok and rng.random() < 0.8:
                        link.send(make_flit(), cycle)
                    link.tick(cycle)
                    if after_links and recv.total and rng.random() < 0.4:
                        recv.pop(0, cycle, after_links=True)
                    trace.append((ok, recv.total))
                traces.append(trace)
            assert traces[0] == traces[1]
            assert any(not ok for ok, __ in traces[0])  # backpressure engaged

    def test_shared_buffer_counts_every_vc(self):
        """A link given a share of a buffer that serves every VC counts
        the flits of all its VCs against the one share."""
        recv = FakeReceiver(depth=2, num_vcs=2)
        link = recv.attach(OnOffLink("l", 1, 2, 4, threshold=1), share=2)
        assert link.share == 2
        link.send(make_flit(vc=0), 0)
        assert link.can_send(1, 1)
        link.send(make_flit(vc=1), 1)
        link.tick(1)  # the vc-0 flit lands
        assert not link.can_send(0, 2)  # one landed, one in flight
        recv.pop(0, 2)
        assert not link.can_send(1, 2)
        assert link.can_send(1, 3)

    def test_share_below_threshold_is_refused(self):
        link = OnOffLink("s0->c0", 3, 1, 4, threshold=3)
        with pytest.raises(ValueError, match="s0->c0"):
            FakeReceiver().attach(link, share=2)

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
            recv.attach(link)
            try:
                for cycle in range(300):
                    if recv.total and rng.random() < drain:
                        recv.pop(0, cycle)
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
        recv.attach(link)
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
        FakeReceiver(depth=0).attach(link)  # receiver always full
        assert link.can_send(0, 0)
        link.send(make_flit(), 0)
        link.send(make_flit(), 1)
        assert not link.can_send(0, 2)  # window full, nothing acked

    def test_retransmission_on_full_receiver(self):
        recv = FakeReceiver(depth=1)
        link = AckNackLink("l", 1, window=4)
        recv.attach(link)
        link.send(make_flit(), 0)
        link.send(make_flit(), 1)
        # Don't drain: second flit must be NACKed at least once.
        for c in range(12):
            link.tick(c)
        assert recv.total == 1
        assert link.retransmissions >= 1
        # Drain and let the protocol recover.
        recv.pop(0, 12)
        for c in range(12, 40):
            link.tick(c)
        assert recv.total == 1  # the second flit arrived after retry

    def test_eventual_delivery_under_slow_drain(self):
        recv = FakeReceiver(depth=1)
        link = AckNackLink("l", 1, window=4)
        recv.attach(link)
        sent = 0
        delivered = 0
        for cycle in range(300):
            if sent < 20 and link.can_send(0, cycle):
                link.send(make_flit(), cycle)
                sent += 1
            link.tick(cycle)
            if cycle % 3 == 0 and recv.total:  # drain 1 flit / 3 cycles
                recv.pop(0, cycle)
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
