"""Simulation results against closed-form truth, on both kernels.

The two kernels share every ``repro.arch`` component, so their agreement
cannot catch a bug in that shared code.  These properties compare the
simulator with numbers computed from the topology and routing table
alone:

* **Exact zero-load latency** — one packet on an empty network takes
  exactly ``sum(link delays) + switches * switch pipeline + (size - 1)``
  cycles from injection to its tail's arrival: each link costs one
  cycle plus its pipeline stages, each switch its pipeline depth, and
  the body flits trail the head one per cycle.  Buffers are sized so
  that neither credit nor ON/OFF flow control can throttle a lone
  packet (the credit round trip is ``2 * delay + pipeline`` cycles).
* **Channel-load throughput bound** — a link carries at most one flit
  per cycle, so a run that delivers ``F_l`` flits over link ``l`` lasts
  at least ``max_l F_l`` cycles.  ``F_l`` is computed from the routing
  table and the delivered packets, never from link counters; accepted
  throughput ``F / T`` is therefore at most ``1 / gamma_max`` with
  ``gamma_max = max_l F_l / F`` the channel load per delivered flit.
* **Little's law** — from an empty network to a full drain, the number
  of packets in the system, summed over cycles, equals the packets'
  summed sojourn times.  The count after each cycle is what the traffic
  generator offered less what the stats recorded, never a component
  counter; a packet offered in cycle ``i`` and recorded in cycle ``a``
  is in the system for the ``a - i`` cycles its record's latency
  counts.
"""

from functools import lru_cache

from hypothesis import given, settings, strategies as st

from repro.apps.workloads import synthetic_soc
from repro.arch import FlowControlKind, NocParameters
from repro.arch.packet import reset_packet_ids
from repro.core.spec import CommunicationSpec
from repro.core.synthesis import TopologySynthesizer
from repro.sim import NocSimulator, SyntheticTraffic
from repro.sim.traffic import Flow, FlowGraphTraffic
from repro.topology.presets import standard_instance

KERNELS = ("reference", "event")


@lru_cache(maxsize=None)
def _network(kind):
    """(topology, routing table, VC assignment, min VCs) of one network."""
    if kind == "custom":
        # Synthesized at 2 GHz so that some links carry pipeline stages.
        spec = CommunicationSpec.from_workload(
            synthetic_soc(12, num_memories=2, seed=5)
        )
        design = TopologySynthesizer(spec).synthesize(
            4, frequency_hz=2e9
        ).design
        return design.topology, design.routing_table, None, 1
    inst = standard_instance(kind, 4)
    return inst.topology, inst.table, inst.vc_assignment, inst.min_vcs


def _simulator(kind, fc, kernel, *, switch_latency=1, buffer_depth=4):
    topology, table, vcs, min_vcs = _network(kind)
    params = NocParameters(
        flow_control=FlowControlKind(fc),
        num_vcs=max(min_vcs, 1),
        buffer_depth=buffer_depth,
        switch_latency_cycles=switch_latency,
    )
    return NocSimulator(topology, table, params, vc_assignment=vcs,
                        kernel=kernel)


def _traffic(kind, rate, size_flits, seed):
    """Uniform traffic on the standard networks; on the synthesized one
    (routed only between its flows' pairs), each source splits ``rate``
    evenly over the destinations its routing table reaches."""
    if kind != "custom":
        return SyntheticTraffic("uniform", rate, size_flits, seed=seed)
    __, table, __unused, __min_vcs = _network(kind)
    fanout = {}
    for source, __dst in table.pairs():
        fanout[source] = fanout.get(source, 0) + 1
    return FlowGraphTraffic([
        Flow(source, destination, rate / fanout[source], size_flits)
        for source, destination in sorted(table.pairs())
    ])


def _zero_load_latency(topology, route, switch_latency, size_flits):
    links = route.links()
    return (
        sum(topology.link_attrs(a, b).delay_cycles for a, b in links)
        + switch_latency * route.num_switches
        + size_flits - 1
    )


_NETWORKS = st.sampled_from(["mesh", "torus", "custom"])
_FLOW_CONTROL = st.sampled_from(["credit", "on_off"])


class TestZeroLoadLatency:
    @settings(max_examples=25, deadline=None)
    @given(
        kind=_NETWORKS,
        fc=_FLOW_CONTROL,
        pair_index=st.integers(min_value=0, max_value=10**6),
        size_flits=st.integers(min_value=1, max_value=8),
        switch_latency=st.integers(min_value=1, max_value=3),
        start=st.integers(min_value=0, max_value=40),
    )
    def test_single_packet_takes_exactly_the_zero_load_latency(
        self, kind, fc, pair_index, size_flits, switch_latency, start
    ):
        topology, table, __, __unused = _network(kind)
        pairs = sorted(table.pairs())
        source, destination = pairs[pair_index % len(pairs)]
        route = table.route(source, destination)
        max_delay = max(
            topology.link_attrs(a, b).delay_cycles for a, b in topology.links
        )
        expected = _zero_load_latency(
            topology, route, switch_latency, size_flits
        )
        for kernel in KERNELS:
            reset_packet_ids()
            sim = _simulator(
                kind, fc, kernel,
                switch_latency=switch_latency,
                buffer_depth=2 * max_delay + switch_latency + 2,
            )
            sim.run(start)
            sim.inject(source, destination, size_flits)
            sim.run(0, drain=True)
            (record,) = sim.stats.records
            assert record.injection_cycle == start
            assert record.latency == expected, (
                f"{kernel}/{kind}/{fc}: {source}->{destination} "
                f"({route.num_switches} switches, {size_flits} flits) took "
                f"{record.latency} cycles, zero-load latency is {expected}"
            )


class TestChannelLoadBound:
    @settings(max_examples=10, deadline=None)
    @given(
        kind=_NETWORKS,
        fc=_FLOW_CONTROL,
        rate=st.floats(min_value=0.05, max_value=0.9),
        size_flits=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_accepted_throughput_within_channel_load_bound(
        self, kind, fc, rate, size_flits, seed
    ):
        topology, table, __, __unused = _network(kind)
        runs = {}
        for kernel in KERNELS:
            reset_packet_ids()
            sim = _simulator(kind, fc, kernel)
            traffic = _traffic(kind, rate, size_flits, seed)
            sim.run(200, traffic, drain=True)
            assert sim.idle
            records = sim.stats.records
            assert records, "the run delivered nothing"
            # Channel load from the routing table: every delivered flit
            # crossed each link of its route exactly once.
            per_link = {}
            for r in records:
                for link in table.route(r.source, r.destination).links():
                    per_link[link] = per_link.get(link, 0) + r.size_flits
            delivered = sum(r.size_flits for r in records)
            gamma_max = max(per_link.values()) / delivered
            cycles = sim.cycle
            assert delivered / cycles <= 1.0 / gamma_max, (
                f"{kernel}/{kind}/{fc}: accepted {delivered / cycles:.3f} "
                f"flits/cycle over {cycles} cycles, channel-load bound "
                f"{1.0 / gamma_max:.3f}"
            )
            runs[kernel] = (cycles, delivered, sorted(per_link.items()))
        assert runs["event"] == runs["reference"]


class TestLittlesLaw:
    @settings(max_examples=10, deadline=None)
    @given(
        kind=_NETWORKS,
        fc=_FLOW_CONTROL,
        rate=st.floats(min_value=0.05, max_value=0.6),
        size_flits=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_packets_in_system_sum_to_sojourn_times(
        self, kind, fc, rate, size_flits, seed
    ):
        runs = {}
        for kernel in KERNELS:
            reset_packet_ids()
            sim = _simulator(kind, fc, kernel)
            traffic = _traffic(kind, rate, size_flits, seed)
            occupancy = []  # packets in the system after each cycle
            while sim.cycle < 300 or not sim.idle:
                sim.run(1, traffic if sim.cycle < 300 else None)
                occupancy.append(
                    traffic.packets_offered - sim.stats.packets_delivered
                )
                assert sim.cycle < 20_000, "the network did not drain"
            records = sim.stats.records
            assert occupancy[-1] == 0
            sojourn = sum(r.arrival_cycle - r.injection_cycle for r in records)
            assert sum(occupancy) == sojourn, (
                f"{kernel}/{kind}/{fc}: {sum(occupancy)} packet-cycles in "
                f"the system, {sojourn} cycles of sojourn"
            )
            runs[kernel] = (sim.cycle, occupancy)
        assert runs["event"] == runs["reference"]
