"""A target NI splits its ejection buffer among its ejection links.

A core attached to several switches takes up to one flit per ejection
link per cycle but drains only one, so each link works within its own
share of the buffer: ``ejection_depth // N`` slots of an ON/OFF link's
count, a pool of that many credits across a credit link's VCs (each VC
also holding at most ``buffer_depth``).  A link whose share cannot hold
its OFF threshold is refused when the target is built.
"""

import pytest

from repro.arch.link import make_link
from repro.arch.network_interface import TargetNI
from repro.arch.packet import Packet
from repro.arch.parameters import FlowControlKind, NocParameters

EJECTION_DEPTH = 8  # TargetNI's default


def _flit(upstream, vc=0):
    (flit,) = Packet("a", "c", 1, ("a", upstream, "c"),
                     vc_path=(vc, vc)).flits()
    flit.vc = vc
    flit.hop = 2  # as it reaches the target
    return flit


@pytest.mark.parametrize("num_vcs", [1, 2])
@pytest.mark.parametrize("delay", range(1, 6))
@pytest.mark.parametrize("fc", ["credit", "on_off"])
@pytest.mark.parametrize("num_links", range(1, 5))
def test_ejection_links_never_overflow_the_buffer(num_links, fc, delay,
                                                  num_vcs):
    """Every link sends whenever its flow control allows, for 400
    cycles, in the simulator's phase order: sends (VCs taking turns by
    cycle), deliveries in upstream order, one drain."""
    params = NocParameters(flow_control=FlowControlKind(fc), num_vcs=num_vcs)
    links = {f"s{i}": make_link(f"s{i}->c", delay, params)
             for i in range(num_links)}
    share = EJECTION_DEPTH // num_links
    try:
        target = TargetNI("c", params, links)
    except ValueError as exc:
        assert fc == "on_off" and "s0->c" in str(exc)
        assert share < links["s0"].threshold
        return
    sent = dict.fromkeys(links, 0)
    for cycle in range(400):
        vc = cycle % num_vcs
        for upstream, link in sorted(links.items()):
            if link.can_send(vc, cycle):
                link.send(_flit(upstream, vc), cycle)
                sent[upstream] += 1
        for __, link in sorted(links.items()):
            link.tick(cycle)
        assert target.backlog <= EJECTION_DEPTH
        target.tick(cycle)
    # Not vacuous: every link kept sending, and what was sent arrived
    # but for the flits still on the wires or in the buffer.
    assert min(sent.values()) >= 50
    assert target.flits_received >= (
        sum(sent.values()) - num_links * delay - EJECTION_DEPTH
    )


def test_two_credit_links_with_two_vcs_share_one_pool():
    """Two credit links with two VCs each into the default 8-slot
    buffer: each link holds 4 credits per VC but only 4 in all, so the
    16 credits of two VCs on two links cannot fill 8 slots twice over."""
    params = NocParameters(flow_control=FlowControlKind.CREDIT, num_vcs=2)
    links = {f"s{i}": make_link(f"s{i}->c", 1, params) for i in range(2)}
    target = TargetNI("c", params, links)
    for link in links.values():
        assert link.credits == [4, 4] and link.pool == 4
    for cycle in range(40):
        vc = cycle % 2
        for upstream, link in sorted(links.items()):
            if link.can_send(vc, cycle):
                link.send(_flit(upstream, vc), cycle)
        for __, link in sorted(links.items()):
            link.tick(cycle)  # overflowed at cycle 8 with per-VC credits only
        assert target.backlog <= EJECTION_DEPTH
        target.tick(cycle)
