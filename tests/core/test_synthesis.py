"""Tests for topology synthesis, evaluation, baselines and Pareto."""

import pytest

from repro.apps import mpeg4_decoder, pip, vopd
from repro.core import (
    CommunicationSpec,
    TopologySynthesizer,
    dominates,
    knee_point,
    mesh_baseline,
    pareto_front,
    star_baseline,
)
from repro.topology import check_routing_deadlock


@pytest.fixture(scope="module")
def vopd_spec():
    return CommunicationSpec.from_workload(vopd())


@pytest.fixture(scope="module")
def synth(vopd_spec):
    return TopologySynthesizer(vopd_spec)


class TestSynthesis:
    @pytest.mark.parametrize("k", [1, 2, 4, 6, 12])
    def test_produces_valid_deadlock_free_design(self, synth, k):
        result = synth.synthesize(k, frequency_hz=600e6)
        design = result.design
        design.topology.validate()
        assert check_routing_deadlock(design.topology, design.routing_table)
        assert design.num_switches == k

    def test_all_flows_routed(self, synth, vopd_spec):
        design = synth.synthesize(4).design
        for flow in vopd_spec.flows:
            assert design.routing_table.has_route(flow.source, flow.destination)

    def test_floorplan_contains_switches(self, synth):
        result = synth.synthesize(3)
        fp = result.design.floorplan
        for i in range(3):
            assert f"sw{i}" in fp
        assert not fp.has_overlaps()

    def test_original_core_positions_unchanged(self, synth):
        base = synth.input_floorplan
        result = synth.synthesize(4)
        for name in base.names:
            assert result.design.floorplan.block(name).center == base.block(
                name
            ).center

    def test_links_opened_only_where_needed(self, synth, vopd_spec):
        """A k-switch custom design uses far fewer links than a full
        k-clique — the point of traffic-driven link opening."""
        result = synth.synthesize(6)
        assert len(result.opened_links) < 6 * 5 / 2

    def test_capacity_respected_in_feasible_designs(self, synth):
        design = synth.synthesize(4, frequency_hz=600e6).design
        assert design.max_link_load <= 1.0

    def test_high_frequency_infeasible_for_big_switches(self, synth):
        """Fig. 2 physics: large-radix switches cannot hit high clocks."""
        design = synth.synthesize(1, frequency_hz=900e6).design
        assert not design.feasible
        assert design.max_frequency_hz < 900e6

    def test_missing_core_in_floorplan_rejected(self, vopd_spec):
        from repro.physical.floorplan import Block, Floorplan

        bad = Floorplan([Block("vld", 1, 1)])
        with pytest.raises(ValueError, match="lacks a block"):
            TopologySynthesizer(vopd_spec, floorplan=bad)


class TestBaselines:
    def test_mesh_baseline_routes_all_flows(self, vopd_spec):
        design = mesh_baseline(vopd_spec)
        for flow in vopd_spec.flows:
            assert design.routing_table.has_route(flow.source, flow.destination)
        assert check_routing_deadlock(design.topology, design.routing_table)

    def test_star_baseline_single_switch(self, vopd_spec):
        design = star_baseline(vopd_spec)
        assert design.num_switches == 1
        assert design.avg_latency_cycles < mesh_baseline(vopd_spec).avg_latency_cycles

    def test_custom_beats_mesh_on_latency(self, synth, vopd_spec):
        """The SunFloor claim: application-specific topologies cut hops."""
        custom = synth.synthesize(4, frequency_hz=600e6).design
        mesh = mesh_baseline(vopd_spec, synth.evaluator, frequency_hz=600e6)
        assert custom.avg_latency_cycles < mesh.avg_latency_cycles

    def test_custom_competitive_with_mesh_on_power(self, synth, vopd_spec):
        best = min(
            (synth.synthesize(k, frequency_hz=600e6).design for k in (2, 3, 4, 6)),
            key=lambda d: d.power_mw,
        )
        mesh = mesh_baseline(vopd_spec, synth.evaluator, frequency_hz=600e6)
        assert best.power_mw <= mesh.power_mw * 1.05

    def test_star_pays_radix_energy(self, synth, vopd_spec):
        """A single hub crossbar burns more power than a tuned design."""
        star = star_baseline(vopd_spec, synth.evaluator, frequency_hz=600e6)
        best = min(
            (synth.synthesize(k, frequency_hz=600e6).design for k in (3, 4)),
            key=lambda d: d.power_mw,
        )
        assert best.power_mw < star.power_mw

    def test_memory_centric_workload(self):
        """MPEG-4's shared-memory traffic still synthesizes cleanly."""
        spec = CommunicationSpec.from_workload(mpeg4_decoder())
        synth = TopologySynthesizer(spec)
        design = synth.synthesize(4, frequency_hz=600e6).design
        assert design.feasible
        assert check_routing_deadlock(design.topology, design.routing_table)


class TestPareto:
    def _points(self, synth):
        return [
            synth.synthesize(k, frequency_hz=f).design
            for k in (2, 4, 6)
            for f in (400e6, 600e6)
        ]

    def test_front_is_nondominated(self, synth):
        points = self._points(synth)
        front = pareto_front(points)
        for p in front:
            assert not any(dominates(q, p) for q in front if q is not p)

    def test_front_excludes_dominated(self, synth):
        points = self._points(synth)
        front = pareto_front(points)
        for p in points:
            if p.feasible and p not in front:
                assert any(dominates(q, p) for q in front)

    def test_front_excludes_infeasible(self, synth):
        points = self._points(synth)
        points.append(synth.synthesize(1, frequency_hz=900e6).design)
        front = pareto_front(points)
        assert all(p.feasible for p in front)

    def test_knee_point_on_front(self, synth):
        front = pareto_front(self._points(synth))
        assert knee_point(front) in front

    def test_knee_empty_front(self):
        with pytest.raises(ValueError):
            knee_point([])

    def test_unknown_objective(self, synth):
        points = self._points(synth)
        with pytest.raises(AttributeError):
            pareto_front(points, objectives=("banana",))

    def test_small_workload(self):
        spec = CommunicationSpec.from_workload(pip())
        synth = TopologySynthesizer(spec)
        design = synth.synthesize(2, frequency_hz=600e6).design
        assert design.feasible


class TestSweepReuse:
    """The default sweep runs each frequency-independent stage once."""

    def test_default_sweep_maps_and_places_once_per_switch_count(
        self, monkeypatch
    ):
        from repro.apps.workloads import synthetic_soc
        from repro.core import DesignSpaceExplorer
        from repro.core import baselines, synthesis
        from repro.physical.floorplan import IncrementalFloorplanner

        calls = {"map_cores": 0, "place": 0, "tiles": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            synthesis, "map_cores", counting("map_cores", synthesis.map_cores)
        )
        monkeypatch.setattr(
            IncrementalFloorplanner, "place",
            counting("place", IncrementalFloorplanner.place),
        )
        monkeypatch.setattr(
            baselines, "_traffic_aware_tile_assignment",
            counting("tiles", baselines._traffic_aware_tile_assignment),
        )
        spec = CommunicationSpec.from_workload(
            synthetic_soc(36, num_memories=4, seed=31)
        )
        sweep = DesignSpaceExplorer(spec).explore()
        # 5 switch counts x 3 frequencies, plus mesh and star baselines.
        assert len(sweep.points) == 15
        assert len(sweep.baselines) == 6
        assert calls == {"map_cores": 5, "place": 5, "tiles": 1}

    def test_points_share_no_mapping_or_floorplan(self, synth):
        a = synth.synthesize(4, frequency_hz=400e6)
        b = synth.synthesize(4, frequency_hz=800e6)
        assert a.mapping == b.mapping
        assert a.mapping is not b.mapping
        assert a.mapping.clusters[0] is not b.mapping.clusters[0]
        assert a.design.floorplan is not b.design.floorplan
        assert [
            (blk.name, blk.x_mm, blk.y_mm) for blk in a.design.floorplan
        ] == [(blk.name, blk.x_mm, blk.y_mm) for blk in b.design.floorplan]
