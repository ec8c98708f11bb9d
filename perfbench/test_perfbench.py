"""Self-test of the benchmark, on reduced inputs.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

import copy
import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads as w  # noqa: E402


def _ctx(tmp_path, workload, seed=5):
    return w.Context(workload, seed, 1.0, w.REDUCED[workload], tmp_path)


def _bench(workload, trace, seed=3):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "2", "--trace", str(trace),
         "--reduced"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [x["name"] for x in spec["workloads"]] == list(w.WORKLOADS)
    names = {m["name"] for m in spec["end_to_end"]}
    assert "setup_s" in names
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", w.WORKLOADS)
def test_reduced_workload_runs_and_is_correct(workload, trace):
    result = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == list(expected)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_no_sources_means_no_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for source in HERE.glob("*.py"):
        (tmp_path / "perfbench" / source.name).write_text(source.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flow_synth36",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


# ----------------------------------------------------------------------
# Default kernel vs reference kernel; steps vs whole segments
# ----------------------------------------------------------------------
def _fingerprint(sim, traffic):
    received = sorted(
        (p.source, p.destination, p.size_flits, p.injection_cycle, arrival)
        for t in sim.targets.values() for p, arrival in t.packets_received
    )
    records = [dataclasses.astuple(r) for r in sim.stats.records]
    return (sim.cycle, traffic.packets_offered, sim.stats.flits_injected,
            sim.stats.flits_delivered, received, records)


def _midload_fingerprint(tmp_path, kernel):
    ctx = _ctx(tmp_path, "midload_mesh16")
    sim, traffic = w.midload_build(ctx, kernel=kernel)
    sim, traffic = w.midload_op(ctx, sim, traffic)
    assert ctx.rec.failed == 0
    return _fingerprint(sim, traffic)


def test_reduced_midload_identical_on_reference_kernel(tmp_path):
    assert _midload_fingerprint(tmp_path, None) == _midload_fingerprint(
        tmp_path, "reference")


def test_midload_steps_match_one_run_per_segment(tmp_path):
    """Timing the simulation in steps does not change what it computes."""
    ctx = _ctx(tmp_path, "midload_mesh16")
    cycles = ctx.params["segment_cycles"]
    sim, traffic = w.midload_build(ctx)
    sim.run(cycles, traffic)
    sim.run(cycles, traffic, drain=True)
    assert _midload_fingerprint(tmp_path, None) == _fingerprint(sim, traffic)


# ----------------------------------------------------------------------
# Each check rejects a tampered output
# ----------------------------------------------------------------------
def test_midload_check_rejects_tampering(tmp_path):
    ctx = _ctx(tmp_path, "midload_mesh16")
    sim, traffic = w.midload_op(ctx, *w.midload_build(ctx))
    assert checks.check_midload(sim, traffic) == []

    traffic.packets_offered += 1
    assert checks.check_midload(sim, traffic)
    traffic.packets_offered -= 1

    sim.stats.flits_injected += 1
    assert checks.check_midload(sim, traffic)
    sim.stats.flits_injected -= 1

    src, dst = sorted(sim.initiators)[:2]
    sim.inject(src, dst, 4)
    assert checks.check_midload(sim, traffic)


def test_flow_check_rejects_tampering(tmp_path):
    ctx = _ctx(tmp_path, "flow_synth36")
    (spec, result), = w.flow(ctx)["results"]
    assert checks.check_flow(spec, result) == []

    failed = copy.copy(result)
    failed.verification = dataclasses.replace(result.verification, passed=False)
    assert checks.check_flow(spec, failed)

    off_front = copy.copy(result)
    off_front.chosen = dataclasses.replace(result.chosen, name="copy")
    assert checks.check_flow(spec, off_front)

    best = result.sweep.front[0]
    dominating = dataclasses.replace(best, name="better",
                                     power_mw=best.power_mw / 2)
    better = copy.copy(result)
    better.sweep = dataclasses.replace(
        result.sweep, points=result.sweep.points + [dominating])
    assert checks.check_flow(spec, better)

    table = copy.deepcopy(best.routing_table)
    flow = spec.flows[0]
    del table._routes[(flow.source, flow.destination)]
    unrouted = copy.copy(result)
    broken = dataclasses.replace(best, routing_table=table)
    unrouted.sweep = dataclasses.replace(
        result.sweep,
        points=[broken if p is best else p for p in result.sweep.points],
        front=[broken if p is best else p for p in result.sweep.front])
    unrouted.chosen = broken if result.chosen is best else result.chosen
    assert checks.check_flow(spec, unrouted)


def test_serve_check_rejects_tampering():
    spec_a = {"kind": "load_point", "params": {"rate": 0.05}, "seed": 1}
    spec_b = {"kind": "load_point", "params": {"rate": 0.04}, "seed": 2}
    res_a, res_b = {"point": {"packets": 10}}, {"point": {"packets": 7}}

    def rec(spec, result, state="done"):
        return {"spec": spec, "result": copy.deepcopy(result), "state": state,
                "doc": {"id": "x"}}

    good = [rec(spec_a, res_a), rec(spec_b, res_b), rec(spec_a, res_a)]
    reference = {json.dumps(spec_a, sort_keys=True): res_a}
    assert checks.check_serve(good, reference) == []

    repeat_differs = good[:2] + [rec(spec_a, res_b)]
    assert checks.check_serve(repeat_differs, reference)

    not_done = good + [rec(spec_b, None, state="failed")]
    assert checks.check_serve(not_done, reference)

    wrong_reference = {json.dumps(spec_a, sort_keys=True): res_b}
    assert checks.check_serve(good, wrong_reference)

    refused = good + [{"spec": spec_b, "state": "rejected"}]
    assert checks.check_serve(refused, reference) == []


# ----------------------------------------------------------------------
# Host-speed scaling
# ----------------------------------------------------------------------
def test_costs_scale_by_the_reference_statistic():
    from hostspeed import REFERENCE_S

    rec = w.Recorder()
    rec.samples["op_s"] = [4.0, 6.0]
    rec.samples["host_reference_s"] = [2 * REFERENCE_S, 2 * REFERENCE_S]
    rec.samples["setup_s"] = [1.0, 3.0, 2.0]
    rec.samples["host_setup_s"] = [4 * REFERENCE_S]
    assert w.op_cost(rec, {"op_cost": "mean"}) == pytest.approx(2.5)
    assert w.op_cost(rec, {"op_cost": 0.0}) == pytest.approx(2.0)
    assert w.setup_cost(rec) == pytest.approx(0.5)
    del rec.samples["host_reference_s"], rec.samples["host_setup_s"]
    assert w.op_cost(rec, {"op_cost": "mean"}) == pytest.approx(5.0)
    assert w.setup_cost(rec) == pytest.approx(2.0)


def test_host_sampler_samples_and_restores_the_handler():
    import signal
    import time

    from hostspeed import HostSampler

    before = signal.getsignal(signal.SIGALRM)
    with HostSampler(0.01) as host:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert len(host.samples) >= 5
    assert host.spent == pytest.approx(sum(host.samples))
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
