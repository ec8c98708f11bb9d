"""QoS stress: many simultaneous GT connections, property-based bounds."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.arch import MessageClass, NocParameters
from repro.qos import AdmissionError, ConnectionManager, GtConnection, analyze
from repro.sim import (
    CompositeTraffic,
    Flow,
    FlowGraphTraffic,
    NocSimulator,
    SyntheticTraffic,
)
from repro.topology import mesh, xy_routing


class TestManyConnections:
    def test_row_parallel_connections_all_guaranteed(self):
        """Four disjoint-row GT connections run simultaneously under BE
        flood; every one meets its own analytical bound."""
        topo = mesh(4, 4)
        table = xy_routing(topo)
        mgr = ConnectionManager(topo, table, num_slots=8)
        bounds = {}
        for row in range(4):
            conn = GtConnection(
                row + 1, f"c_0_{row}", f"c_3_{row}", 0.25, packet_size_flits=1
            )
            admitted = mgr.admit(conn)
            bounds[row + 1] = analyze(admitted, 8).worst_case_latency_cycles

        sim = NocSimulator(topo, table, NocParameters(num_vcs=2),
                           warmup_cycles=200)
        mgr.install(sim)
        gt_flows = [
            Flow(
                f"c_0_{row}", f"c_3_{row}", 0.2, 1,
                MessageClass.GUARANTEED, row + 1,
            )
            for row in range(4)
        ]
        be = SyntheticTraffic("uniform", 0.25, 4, seed=77)
        sim.run(1800, CompositeTraffic([FlowGraphTraffic(gt_flows), be]))

        per_connection = {}
        for record in sim.stats.records:
            if record.message_class is not MessageClass.GUARANTEED:
                continue
            row = int(record.source.split("_")[-1])
            per_connection.setdefault(row + 1, []).append(record.latency)
        assert set(per_connection) == {1, 2, 3, 4}
        for cid, latencies in per_connection.items():
            assert max(latencies) <= bounds[cid], f"connection {cid}"

    def test_shared_column_connections_divide_slots(self):
        """Two GT connections sharing links split the slot table and
        both still hold their (looser) individual bounds."""
        topo = mesh(4, 4)
        table = xy_routing(topo)
        mgr = ConnectionManager(topo, table, num_slots=8)
        a = mgr.admit(GtConnection(1, "c_0_0", "c_3_0", 0.25,
                                   packet_size_flits=1))
        b = mgr.admit(GtConnection(2, "c_0_0", "c_2_0", 0.25,
                                   packet_size_flits=1))
        # Slot sets must be disjoint on the shared links.
        assert not (set(a.slots) & set(b.slots))

        sim = NocSimulator(topo, table, NocParameters(num_vcs=2),
                           warmup_cycles=100)
        mgr.install(sim)
        gt = FlowGraphTraffic(
            [
                Flow("c_0_0", "c_3_0", 0.15, 1, MessageClass.GUARANTEED, 1),
                Flow("c_0_0", "c_2_0", 0.15, 1, MessageClass.GUARANTEED, 2),
            ]
        )
        sim.run(1200, gt, drain=True)
        bound_a = analyze(a, 8).worst_case_latency_cycles
        bound_b = analyze(b, 8).worst_case_latency_cycles
        for record in sim.stats.records:
            bound = bound_a if record.destination == "c_3_0" else bound_b
            assert record.latency <= bound

    def test_admission_saturates_cleanly(self):
        """Admitting connections on one shared link until refusal: the
        admitted set never exceeds the slot table."""
        topo = mesh(4, 4)
        table = xy_routing(topo)
        mgr = ConnectionManager(topo, table, num_slots=8)
        admitted = 0
        for i in range(12):
            try:
                mgr.admit(
                    GtConnection(i + 1, "c_0_0", "c_3_0", 1.0 / 8,
                                 packet_size_flits=1)
                )
                admitted += 1
            except AdmissionError:
                break
        assert admitted == 8  # exactly the table size at 1 slot each


class TestGuaranteeProperty:
    @given(
        be_rate=st.floats(0.0, 0.35),
        seed=st.integers(0, 1000),
    )
    @settings(
        max_examples=6, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_gt_bound_holds_for_any_be_traffic(self, be_rate, seed):
        """The hard bound is seed- and load-independent — hypothesis
        searches for a BE pattern that breaks it."""
        topo = mesh(3, 3)
        table = xy_routing(topo)
        mgr = ConnectionManager(topo, table, num_slots=8)
        admitted = mgr.admit(
            GtConnection(1, "c_0_0", "c_2_2", 0.25, packet_size_flits=1)
        )
        bound = analyze(admitted, 8).worst_case_latency_cycles
        sim = NocSimulator(topo, table, NocParameters(num_vcs=2),
                           warmup_cycles=100)
        mgr.install(sim)
        gt = FlowGraphTraffic(
            [Flow("c_0_0", "c_2_2", 0.2, 1, MessageClass.GUARANTEED, 1)]
        )
        be = SyntheticTraffic("uniform", be_rate, 4, seed=seed)
        sim.run(900, CompositeTraffic([gt, be]))
        latency = sim.stats.latency(MessageClass.GUARANTEED)
        assert latency.maximum <= bound

    @given(
        sizes=st.tuples(st.integers(1, 4), st.integers(1, 4)),
        pattern=st.sampled_from(["transpose", "hotspot"]),
        be_rate=st.floats(0.0, 0.35),
        seed=st.integers(0, 1000),
    )
    @settings(
        max_examples=8, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_gt_bound_holds_for_shared_multi_flit_connections(
        self, sizes, pattern, be_rate, seed
    ):
        """Two admitted connections share two links and carry multi-flit
        packets under non-uniform BE load; every GT packet still meets
        its own connection's bound.  Each flow offers one packet per
        bound, so a packet never queues behind its predecessor."""
        topo = mesh(3, 3)
        table = xy_routing(topo)
        mgr = ConnectionManager(topo, table, num_slots=8)
        # XY routes: c_0_0 -> c_2_2 and c_1_0 -> c_2_1 both cross
        # s_1_0 -> s_2_0 and s_2_0 -> s_2_1.
        ends = {1: ("c_0_0", "c_2_2"), 2: ("c_1_0", "c_2_1")}
        admitted = {
            cid: mgr.admit(GtConnection(cid, src, dst, 0.25,
                                        packet_size_flits=size))
            for (cid, (src, dst)), size in zip(ends.items(), sizes)
        }
        shared = set(admitted[1].route_links) & set(admitted[2].route_links)
        assert len(shared) == 2
        bounds = {
            cid: analyze(a, 8).worst_case_latency_cycles
            for cid, a in admitted.items()
        }
        sim = NocSimulator(topo, table, NocParameters(num_vcs=2),
                           warmup_cycles=100)
        mgr.install(sim)
        gt = FlowGraphTraffic([
            Flow(src, dst, size / bounds[cid], size,
                 MessageClass.GUARANTEED, cid)
            for (cid, (src, dst)), size in zip(ends.items(), sizes)
        ])
        be = SyntheticTraffic(pattern, be_rate, 4, seed=seed,
                              hotspot_core="c_2_2")
        sim.run(900, CompositeTraffic([gt, be]))
        cid_of = {dst: cid for cid, (__, dst) in ends.items()}
        seen = set()
        for record in sim.stats.records:
            if record.message_class is MessageClass.GUARANTEED:
                cid = cid_of[record.destination]
                seen.add(cid)
                assert record.latency <= bounds[cid], f"connection {cid}"
        assert seen == {1, 2}
