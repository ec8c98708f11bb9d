"""Acceptance: parallel cached sweeps reproduce the serial tool flow.

The contract of the lab layer (and the headline requirement of the
subsystem): running the Fig. 6 synthesis sweep through the job engine
with a worker pool produces *byte-identical* design points to the
classic serial ``DesignSpaceExplorer.explore`` path, and re-running the
same sweep against a warm cache recomputes zero jobs.
"""

import pytest

from repro.apps import pip, vopd
from repro.core import CommunicationSpec, DesignSpaceExplorer
from repro.lab import (
    Job,
    ResultCache,
    ResultStore,
    canonical_json,
    design_point_to_dict,
    fault_campaign_jobs,
    fault_summary_from_batch,
    load_curve_from_batch,
    load_curve_jobs,
    run_job,
    run_jobs,
    saturation_job,
    sweep_result_from_batch,
    sweep_result_from_store,
    synthesis_sweep_jobs,
)
from repro.sim import load_latency_curve
from repro.topology import mesh, xy_routing

SWITCHES = (2, 3)
FREQS = (500e6,)


def _spec():
    return CommunicationSpec.from_workload(pip())


def _fingerprint(points):
    return [canonical_json(design_point_to_dict(p)) for p in points]


@pytest.fixture(scope="module")
def serial_sweep():
    explorer = DesignSpaceExplorer(_spec())
    return explorer.explore(switch_counts=SWITCHES, frequencies_hz=FREQS)


class TestSynthesisSweepAcceptance:
    def test_parallel_is_byte_identical_to_serial(self, tmp_path, serial_sweep):
        jobs = synthesis_sweep_jobs(
            _spec(), switch_counts=SWITCHES, frequencies_hz=FREQS
        )
        batch = run_jobs(jobs, workers=4, cache=ResultCache(tmp_path))
        sweep = sweep_result_from_batch(batch)

        assert _fingerprint(sweep.points) == _fingerprint(serial_sweep.points)
        assert _fingerprint(sweep.front) == _fingerprint(serial_sweep.front)
        assert _fingerprint(sweep.baselines) == _fingerprint(
            serial_sweep.baselines
        )

    def test_second_invocation_recomputes_zero_jobs(self, tmp_path):
        jobs = synthesis_sweep_jobs(
            _spec(), switch_counts=SWITCHES, frequencies_hz=FREQS
        )
        cache = ResultCache(tmp_path)
        first = run_jobs(jobs, workers=2, cache=cache)
        assert first.computed == len(jobs) and first.cached == 0

        second = run_jobs(jobs, workers=2, cache=cache)
        assert second.computed == 0, "warm cache must not recompute anything"
        assert second.cached == len(jobs)
        assert second.hit_rate == 1.0
        assert second.results == first.results

    def test_new_design_points_compute_only_the_delta(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_jobs(
            synthesis_sweep_jobs(
                _spec(), switch_counts=(2,), frequencies_hz=FREQS
            ),
            cache=cache,
        )
        widened = run_jobs(
            synthesis_sweep_jobs(
                _spec(), switch_counts=(2, 3), frequencies_hz=FREQS
            ),
            cache=cache,
        )
        # Only the k=3 synthesis job is new; baselines and k=2 hit.
        assert widened.computed == 1
        assert widened.cached == len(widened.jobs) - 1

    def test_store_replay_matches_recomputation(self, tmp_path, serial_sweep):
        store = ResultStore(tmp_path / "sweep.jsonl")
        jobs = synthesis_sweep_jobs(
            _spec(), switch_counts=SWITCHES, frequencies_hz=FREQS
        )
        run_jobs(jobs, store=store)
        replay = sweep_result_from_store(store)
        assert sorted(_fingerprint(replay.points)) == sorted(
            _fingerprint(serial_sweep.points)
        )
        assert _fingerprint(replay.front) == _fingerprint(serial_sweep.front)
        # Replay is pure file I/O: works with the runners never invoked.
        meta = store.run_metadata()
        assert meta["by_kind"] == {"baseline": 2, "synthesis": 2}


class TestLoadCurveJobs:
    def test_jobs_match_direct_experiment_calls(self, tmp_path):
        rates = [0.05, 0.15]
        jobs = load_curve_jobs(
            "mesh", 3, rates, cycles=400, warmup=80, seed=5
        )
        batch = run_jobs(jobs, workers=2, cache=ResultCache(tmp_path))
        curve = load_curve_from_batch(batch)

        m = mesh(3, 3)
        direct = load_latency_curve(
            m, xy_routing(m), rates, cycles=400, warmup=80, seed=5
        )
        assert curve == direct

    def test_curve_cache_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        jobs = load_curve_jobs("mesh", 3, [0.1], cycles=300, warmup=60)
        run_jobs(jobs, cache=cache)
        again = run_jobs(jobs, cache=cache)
        assert again.computed == 0 and again.cached == 1

    def test_metrics_interval_rides_along_without_changing_points(self):
        plain = load_curve_jobs("mesh", 3, [0.1], cycles=300, warmup=60)
        instrumented = load_curve_jobs(
            "mesh", 3, [0.1], cycles=300, warmup=60, metrics_interval=50
        )
        # The probe is read-only: the measured curve point is identical.
        plain_result = run_jobs(plain).results[0]
        inst_result = run_jobs(instrumented).results[0]
        assert inst_result["point"] == plain_result["point"]
        assert "metrics" not in plain_result
        metrics = inst_result["metrics"]
        assert metrics["peak_link_utilization"] > 0
        assert metrics["top_links"]

    def test_default_jobs_keep_pre_metrics_cache_keys(self):
        """No metrics_interval -> params (and cache keys) unchanged."""
        job = load_curve_jobs("mesh", 3, [0.1], cycles=300, warmup=60)[0]
        assert "metrics_interval" not in job.params

    def test_stored_kernel_key_runs_on_the_default_kernel(self):
        """A stored job spec that still names a kernel (``"reference"``,
        or the retired ``"fast"``) is handled like any other unknown
        param key: it runs on the default kernel, with the same payload
        as the same job without the key."""
        job = load_curve_jobs("mesh", 4, [0.05], cycles=400, warmup=100,
                              seed=3)[0]
        expected = run_job(job)
        for kernel in ("reference", "fast"):
            stored = Job(kind=job.kind,
                         params={**job.params, "kernel": kernel},
                         seed=job.seed)
            assert run_job(stored) == expected

    def test_utilization_curve_from_batch(self):
        from repro.lab import utilization_curve_from_batch

        jobs = load_curve_jobs(
            "mesh", 3, [0.15, 0.05], cycles=300, warmup=60,
            metrics_interval=50,
        )
        rows = utilization_curve_from_batch(run_jobs(jobs))
        assert [r["offered_rate"] for r in rows] == [0.05, 0.15]
        assert rows[0]["mean_link_utilization"] <= (
            rows[1]["mean_link_utilization"]
        )

    def test_saturation_job_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = saturation_job(
            "mesh", 2, cycles=300, warmup=60, tolerance=0.25
        )
        first = run_jobs([job], cache=cache)
        rate = first.results[0]["saturation_rate"]
        assert 0.0 < rate <= 1.0
        second = run_jobs([job], cache=cache)
        assert second.cached == 1
        assert second.results[0]["saturation_rate"] == rate


class TestFaultCampaignJobs:
    def test_runs_get_distinct_seeds(self):
        jobs = fault_campaign_jobs("mesh", 4, runs=3, seed=10)
        assert [j.kind for j in jobs] == ["fault_campaign"] * 3
        assert [j.seed for j in jobs] == [10, 11, 12]
        assert len({j.key for j in jobs}) == 3

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError):
            fault_campaign_jobs("hypercube", 4)

    def test_campaign_is_deterministic_and_cacheable(self, tmp_path):
        cache = ResultCache(tmp_path)
        jobs = fault_campaign_jobs("mesh", 3, runs=1, cycles=1200, seed=4)
        first = run_jobs(jobs, cache=cache)
        fresh = run_jobs(fault_campaign_jobs(
            "mesh", 3, runs=1, cycles=1200, seed=4))
        assert canonical_json(first.results) == canonical_json(fresh.results)
        warm = run_jobs(jobs, cache=cache)
        assert warm.computed == 0 and warm.cached == 1
        assert canonical_json(warm.results) == canonical_json(first.results)

    def test_campaign_survives_and_summarizes(self, tmp_path):
        jobs = fault_campaign_jobs("mesh", 3, runs=2, cycles=1600, seed=4)
        batch = run_jobs(jobs)
        summary = fault_summary_from_batch(batch)
        assert summary["runs"] == 2
        assert summary["faults_injected"] >= 2
        assert summary["survived"] == 2
        assert summary["packets_lost"] == 0
        for result in batch.results:
            assert result["survived"]
            assert result["survival_rate"] == 1.0

    def test_summary_requires_campaign_jobs(self):
        batch = run_jobs(load_curve_jobs("mesh", 3, [0.05], cycles=200,
                                         warmup=40))
        with pytest.raises(ValueError):
            fault_summary_from_batch(batch)


class TestExperimentExecutorEntryPoint:
    def test_process_executor_matches_serial(self):
        """A load curve fanned out over supervised children equals the
        serial library call and the serial batch, point for point."""
        m = mesh(3, 3)
        table = xy_routing(m)
        rates = [0.05, 0.1, 0.2]
        serial = load_latency_curve(
            m, table, rates, cycles=400, warmup=80, seed=3
        )
        jobs = load_curve_jobs("mesh", 3, rates, cycles=400, warmup=80,
                               seed=3)
        parallel = run_jobs(jobs, workers=2)
        assert parallel.quarantined == []
        assert load_curve_from_batch(parallel) == serial
        assert parallel.results == run_jobs(jobs).results
