"""Chaos harness smoke: a small seeded campaign must come back clean.

The full acceptance campaign (``repro chaos``, 20 jobs, kills +
corruption + deadline expiries) runs in CI's chaos-smoke job; this test
keeps a scaled-down version in tier-1 so regressions in the harness or
the resilience layer surface locally.  The config is chosen so that no
quarantine is *possible* (fewer kills than the retry budget, no poison
jobs, no deadline) — every job must complete with the right answer.
"""

import pytest

from repro.resilience.chaos import (
    ChaosConfig,
    build_campaign_jobs,
    run_chaos_campaign,
)

SMOKE = ChaosConfig(
    jobs=6,
    seed=13,
    workers=2,
    cycles=1200,
    poison_jobs=0,
    fault_jobs=1,
    deadline_s=None,
    max_attempts=4,
    checkpoint_interval=400,
    kill_interval_s=0.25,
    max_kills=2,
    corrupt_interval_s=0.3,
    max_corruptions=2,
    stall_streams=1,
    stall_hold_s=0.5,
    wait_timeout_s=180.0,
)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChaosConfig(jobs=2, poison_jobs=1, fault_jobs=1)
        with pytest.raises(ValueError):
            ChaosConfig(poison_jobs=1, deadline_s=None)
        assert ChaosConfig().to_dict()["jobs"] == 20

    def test_campaign_jobs_are_deterministic(self):
        jobs_a, poison_a = build_campaign_jobs(SMOKE)
        jobs_b, poison_b = build_campaign_jobs(SMOKE)
        assert [j.key for j in jobs_a] == [j.key for j in jobs_b]
        assert poison_a == poison_b == set()
        assert len(jobs_a) == SMOKE.jobs
        kinds = [j.kind for j in jobs_a]
        assert kinds.count("fault_campaign") == SMOKE.fault_jobs

    def test_poison_jobs_respect_cycle_budget(self):
        config = ChaosConfig(jobs=8, poison_jobs=2, deadline_s=2.0)
        jobs, poison = build_campaign_jobs(config)
        assert len(poison) == 2
        for job in jobs:
            assert job.params["cycles"] <= 1_000_000


def test_smoke_campaign_survives(tmp_path):
    report = run_chaos_campaign(SMOKE, root=tmp_path)
    assert report.ok, report.to_dict()
    assert report.jobs_total == 6
    assert report.completed == 6
    assert report.quarantined == 0
    assert report.lost == 0
    assert report.mismatches == 0
    assert report.corrupt_served_wrong == 0
    # the chaos actually happened
    assert report.kills + report.corruptions + report.stalls > 0
