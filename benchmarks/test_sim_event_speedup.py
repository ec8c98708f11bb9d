"""SIM — the event kernel's speedup contracts over the reference kernel.

The event kernel's wakeup wheels keep per-cycle work proportional to
the number of *busy* components, and when the whole network goes idle
its clock jumps straight to the next timed event.  Three load points,
each with its own contract and byte-identical results:

* **lowload_uniform** (asserted >= 2x): an 8x8 mesh at rate 0.0005 —
  idle-heavy cycle loops (low-load latency points, long fault
  campaigns waiting on repairs, drain tails), where the clock jump
  carries the win.
* **midload_neighbor** (asserted >= 5x, target ~10x): a 16x16 mesh at
  rate 0.05 with nearest-neighbour traffic.  Some core injects nearly
  every cycle, so whole-network idle skipping never fires, while most
  switches and links sit idle each cycle — the canonical mid-load
  shape the event kernel exists for.  The reference kernel still polls
  all 256 switches and ~1500 links every cycle; the event kernel
  touches the ~50 that hold work.
* **midload_uniform** (floor 1.2x): random pairs light up long paths
  all over the mesh, so most components genuinely hold work most
  cycles and both kernels converge on the same real work.  The event
  kernel's win shrinks to its per-component bookkeeping advantage
  (~1.5x); recording it keeps the headline number honest about its
  load dependence.

The measurement is deliberately end-to-end — build, warm-up, steady
state, and drain tail, exactly what ``sim.run(..., drain=True)``
costs a user.  Two defenses keep the number stable on shared CI
hardware: rates are measured in **CPU time** (``time.process_time``),
which is immune to scheduler preemption by other tenants — the
dominant noise source on a busy box — and each kernel's rate is the
**best of several runs**, since noise only ever *slows* a run, so the
max over runs is the noise-floor estimate of the true rate.  When the
ratio of bests still lands below the contract, both sides get extra
runs before the verdict (bests only improve, so retries can only make
the estimate *more* accurate, never manufacture a pass).

The measurement avoids pytest-benchmark so the CI kernel-equivalence
job can run it with a plain ``pytest`` install; it writes both
kernels' cycles/second for every load point to ``BENCH_sim_event.json``
at the repository root, which CI publishes as a build artifact.
"""

import json
import time
from pathlib import Path

from repro.arch.packet import reset_packet_ids
from repro.sim import NocSimulator, SyntheticTraffic
from repro.topology.presets import standard_instance

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_FILE = REPO_ROOT / "BENCH_sim_event.json"

MIDLOAD = {
    "topology": "mesh",
    "size": 16,
    "pattern": "neighbor",
    "rate": 0.05,        # flits/cycle/core — busy enough to defeat
    "packet_size": 4,    # whole-network idle skipping, sparse enough
    "cycles": 2000,      # that most components sleep most cycles
    "seed": 7,
}

#: name -> (workload, asserted minimum speedup over reference, whether
#: the win must come from the idle clock jump rather than active sets).
WORKLOADS = {
    "lowload_uniform": ({
        "topology": "mesh",
        "size": 8,
        "pattern": "uniform",
        "rate": 0.0005,  # flits/cycle/core — the network idles most cycles
        "packet_size": 4,
        "cycles": 5000,
        "seed": 7,
    }, 2.0, True),
    "midload_neighbor": (MIDLOAD, 5.0, False),
    # Every component busy is the event kernel's worst case; the floor
    # only catches regressions, the honest number lives in the JSON.
    "midload_uniform": (dict(MIDLOAD, pattern="uniform"), 1.2, False),
}

#: On unloaded hardware the mid-load neighbour point should reach this.
TARGET_SPEEDUP_NEIGHBOR = 10.0

RUNS = 3
MAX_EXTRA_RUNS = 6  # per kernel, when the first verdict is below contract


def _run(kernel, workload):
    reset_packet_ids()
    inst = standard_instance(workload["topology"], workload["size"])
    sim = NocSimulator(inst.topology, inst.table,
                       vc_assignment=inst.vc_assignment, kernel=kernel)
    traffic = SyntheticTraffic(
        workload["pattern"], workload["rate"], workload["packet_size"],
        seed=workload["seed"],
    )
    start = time.process_time()
    sim.run(workload["cycles"], traffic, drain=True)
    elapsed = time.process_time() - start
    return sim, traffic, sim.cycle / elapsed


def _best(kernel, workload, runs=RUNS):
    best_rate, keep = 0.0, None
    for __ in range(runs):
        sim, traffic, rate = _run(kernel, workload)
        if rate > best_rate:
            best_rate, keep = rate, (sim, traffic)
    return keep[0], keep[1], best_rate


def _measure(workload, min_speedup, idle_heavy):
    """Best-of-RUNS rates for both kernels on one workload, with extra
    runs while the ratio of bests is below ``min_speedup``.  Returns the
    JSON report and the unrounded speedup."""
    ref_sim, ref_traffic, ref_rate = _best("reference", workload)
    event_sim, event_traffic, event_rate = _best("event", workload)

    # The speedup is only meaningful if the results are identical.
    assert event_sim.cycle == ref_sim.cycle
    assert event_traffic.packets_offered == ref_traffic.packets_offered
    assert event_sim.stats.packets_delivered == \
        ref_sim.stats.packets_delivered
    assert event_sim.stats.latency() == ref_sim.stats.latency()
    assert ref_sim.cycles_skipped == 0
    executed = event_sim.cycle - event_sim.cycles_skipped
    if idle_heavy:
        # ...and the idle-heavy point must exercise the clock jump...
        assert event_sim.cycles_skipped > 0
    else:
        # ...while the others must not be skippable (otherwise move the
        # load point): the active-set scheduling is under test there.
        assert event_sim.cycles_skipped < 0.2 * executed

    extra = 0
    while event_rate < min_speedup * ref_rate and extra < MAX_EXTRA_RUNS:
        # Below contract so far: sharpen both noise-floor estimates.
        ref_rate = max(ref_rate, _best("reference", workload, runs=1)[2])
        event_rate = max(event_rate, _best("event", workload, runs=1)[2])
        extra += 1

    speedup = event_rate / ref_rate
    return {
        "workload": workload,
        "runs_per_kernel": RUNS + extra,
        "reference_cycles_per_sec": round(ref_rate, 1),
        "event_cycles_per_sec": round(event_rate, 1),
        "timer": "process_time",
        "speedup_vs_reference": round(speedup, 2),
        "cycles_skipped": event_sim.cycles_skipped,
        "total_cycles": event_sim.cycle,
        "packets_delivered": event_sim.stats.packets_delivered,
    }, speedup


def test_event_kernel_speedup():
    measured = {name: _measure(*spec) for name, spec in WORKLOADS.items()}

    RESULT_FILE.write_text(json.dumps({
        **{name: report for name, (report, __) in measured.items()},
        "contract": {
            **{f"asserted_min_speedup_{name}": spec[1]
               for name, spec in WORKLOADS.items()},
            "target_speedup_midload_neighbor": TARGET_SPEEDUP_NEIGHBOR,
        },
    }, indent=2, sort_keys=True) + "\n")

    for name, (__, min_speedup, __) in WORKLOADS.items():
        report, speedup = measured[name]
        assert speedup >= min_speedup, (
            f"event kernel managed only {speedup:.2f}x over reference on "
            f"{name} ({report['event_cycles_per_sec']:.0f} vs "
            f"{report['reference_cycles_per_sec']:.0f} cycles/s); the "
            f"contract is >= {min_speedup}x"
        )
