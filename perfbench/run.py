"""The repository's benchmark: one workload, one seed, one JSON line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload midload_mesh16 --seed 1 \
        --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracer installed;
``--trace 1`` runs one untraced operation, then the same operation under
the layer wrappers of ``tracing.py``, and reports the per-layer metrics
plus the tracing overhead.  Both run the output checks.  The last line
of standard output is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it and ``.perfbench/results/`` hold the provenance, the
spread of every metric, errors, and (traced) the spans; the results
file also holds every sample.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: (name, unit) of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s"),
    ("op_cost_s", "s"),
    ("peak_rss_mb", "MB"),
)

_ARCH = [
    ("arch.switch.tick_calls", "count"),
    ("arch.switch.self_share", "ratio"),
    ("arch.switch.ticks_per_cycle", "1/cycle"),
    ("arch.link.tick_calls", "count"),
    ("arch.link.send_calls", "count"),
    ("arch.link.self_share", "ratio"),
    ("arch.link.ticks_per_cycle", "1/cycle"),
    ("arch.ni.tick_calls", "count"),
    ("arch.ni.self_share", "ratio"),
    ("arch.flits_delivered", "count"),
    ("traffic.tick_calls", "count"),
    ("traffic.self_share", "ratio"),
    ("stats.record_calls", "count"),
    ("stats.self_share", "ratio"),
]
#: (name, unit) of every per-layer metric, in BENCHMARK.json order.
PER_LAYER = tuple(
    [
        ("topology.instance_s", "s"),
        ("sim.build_s", "s"),
        ("sim.run_s", "s"),
        ("sim.run_self_share", "ratio"),
        ("sim.executed_cycle_share", "ratio"),
    ]
    + _ARCH
    + [
        ("resilience.ckpt_save_s", "s"),
        ("resilience.ckpt_restore_s", "s"),
        ("resilience.ckpt_bytes", "bytes"),
        ("resilience.ckpt_failed", "count"),
        ("lab.job_key_s", "s"),
        ("lab.job_key_calls", "count"),
        ("lab.cache_get_s", "s"),
        ("lab.cache_put_s", "s"),
        ("lab.warm_hit_ratio", "ratio"),
        ("core.explore_s", "s"),
        ("core.synthesize_s", "s"),
        ("core.synthesize_calls", "count"),
        ("core.map_cores_s", "s"),
        ("physical.floorplan_place_s", "s"),
        ("core.evaluate_s", "s"),
        ("core.netlist_s", "s"),
        ("core.verify_s", "s"),
        ("core.design_points", "count"),
        ("core.front_size", "count"),
        ("serve.submit_rtt_p50_s", "s"),
        ("serve.queue_wait_p50_s", "s"),
        ("serve.queue_wait_p90_s", "s"),
        ("serve.run_p50_s", "s"),
        ("serve.cold_p50_s", "s"),
        ("serve.hit_p50_s", "s"),
        ("serve.useful_dispatch_ratio", "ratio"),
        ("serve.dispatches", "count"),
        ("serve.retries", "count"),
        ("serve.rejected", "count"),
        ("serve.generator_lag_p90_s", "s"),
        ("op_p50_s", "s"),
        ("op_p90_s", "s"),
        ("trace.overhead_ratio", "ratio"),
        ("error_rate", "ratio"),
    ]
)

#: Facts of ``workloads.serve_metrics`` reported as ``serve.<name>``.
SERVE_FACTS = ("submit_rtt_p50_s", "queue_wait_p50_s", "queue_wait_p90_s",
               "run_p50_s", "cold_p50_s", "hit_p50_s", "useful_dispatch_ratio",
               "dispatches", "retries", "rejected", "generator_lag_p90_s")

TIMERS = {
    "setup_s": "time.perf_counter wall time of one set-up, less the host "
               "sampler's time; median of the run's set-ups times "
               "hostspeed.REFERENCE_S over the median reference time "
               "sampled during them",
    "op_cost_s": "time.perf_counter wall time per operation, less the "
                 "host sampler's time; a statistic of it (2nd percentile "
                 "of midload steps, 5th of served submissions, mean of "
                 "flows) times hostspeed.REFERENCE_S over the same "
                 "statistic of the reference times sampled meanwhile",
    "op_p50_s": "time.perf_counter wall time per operation; median, of "
                "the untraced half of a traced run",
    "op_p90_s": "time.perf_counter wall time per operation; 90th "
                "percentile, linear interpolation, of the untraced half "
                "of a traced run",
    "peak_rss_mb": "getrusage ru_maxrss of the process plus that of its "
                   "largest waited-for child, read before the checks",
}


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def source_digest() -> str:
    """sha256 over the ``src/`` tree: the code's identity without git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def provenance(args) -> dict:
    import inspect

    from repro.sim.simulator import NocSimulator

    kernel = inspect.signature(NocSimulator.__init__).parameters["kernel"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "default_kernel": kernel.default,
        "timers": TIMERS,
    }


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # Linux reports KiB


def spread(values) -> dict:
    from workloads import quantile

    return {
        "n": len(values),
        "median": quantile(values, 0.5),
        "q1": quantile(values, 0.25),
        "q3": quantile(values, 0.75),
        "min": min(values) if values else 0.0,
        "max": max(values) if values else 0.0,
    }


def end_to_end(rec, params, rss_mb: float) -> dict:
    from workloads import op_cost, setup_cost

    return {
        "setup_s": setup_cost(rec),
        "op_cost_s": op_cost(rec, params),
        "peak_rss_mb": rss_mb,
    }


def per_layer(tracer, rec, base, server_totals=None) -> dict:
    """Every per-layer metric; layers the workload never reaches read 0.

    ``base`` is the untraced half of the traced run.
    """
    from workloads import quantile

    t = tracer
    values = {name: 0.0 for name, _ in PER_LAYER}

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    run_s = t.seconds("sim.run")
    cycles = t.counts.get("sim.cycles", 0)
    values.update({
        "topology.instance_s": t.seconds("topology.instance"),
        "sim.build_s": t.seconds("sim.build"),
        "sim.run_s": run_s,
        "sim.run_self_share": share(t.self_seconds("sim.run"), run_s),
        "sim.executed_cycle_share": share(
            t.counts.get("sim.executed_cycles", 0), cycles),
        "arch.switch.tick_calls": t.calls("arch.switch.tick"),
        "arch.switch.self_share": share(t.self_seconds("arch.switch.tick"), run_s),
        "arch.switch.ticks_per_cycle": share(t.calls("arch.switch.tick"), cycles),
        "arch.link.tick_calls": t.calls("arch.link.tick"),
        "arch.link.send_calls": t.calls("arch.link.send"),
        "arch.link.self_share": share(
            t.self_seconds("arch.link.tick") + t.self_seconds("arch.link.send"),
            run_s),
        "arch.link.ticks_per_cycle": share(t.calls("arch.link.tick"), cycles),
        "arch.ni.tick_calls": t.calls("arch.ni.tick"),
        "arch.ni.self_share": share(t.self_seconds("arch.ni.tick"), run_s),
        "arch.flits_delivered": t.counts.get("arch.flits_delivered", 0),
        "traffic.tick_calls": t.calls("traffic.tick"),
        "traffic.self_share": share(t.self_seconds("traffic.tick"), run_s),
        "stats.record_calls": t.calls("stats.record"),
        "stats.self_share": share(t.self_seconds("stats.record"), run_s),
        "resilience.ckpt_save_s": t.seconds("resilience.ckpt_save"),
        "resilience.ckpt_restore_s": t.seconds("resilience.ckpt_restore"),
        "resilience.ckpt_bytes": rec.facts.get("ckpt_bytes", 0),
        "resilience.ckpt_failed": rec.facts.get("ckpt_failed", 0),
        "core.explore_s": t.seconds("core.explore"),
        "core.synthesize_s": t.seconds("core.synthesize"),
        "core.synthesize_calls": t.calls("core.synthesize"),
        "core.map_cores_s": t.seconds("core.map_cores"),
        "physical.floorplan_place_s": t.seconds("physical.floorplan_place"),
        "core.evaluate_s": t.seconds("core.evaluate"),
        "core.netlist_s": t.seconds("core.netlist"),
        "core.verify_s": t.seconds("core.verify"),
        "core.design_points": rec.facts.get("design_points", 0),
        "core.front_size": rec.facts.get("front_size", 0),
    })
    # A job server's lab calls happen in its own process (serve_traced.py).
    lab = t.totals if server_totals is None else server_totals

    def lab_total(name: str, field: int) -> float:  # 0 calls, 1 seconds
        return lab.get(name, [0, 0.0, 0.0])[field]

    values.update({
        "lab.job_key_s": lab_total("lab.job_key", 1),
        "lab.job_key_calls": lab_total("lab.job_key", 0),
        "lab.cache_get_s": lab_total("lab.cache_get", 1),
        "lab.cache_put_s": lab_total("lab.cache_put", 1),
    })
    values["lab.warm_hit_ratio"] = rec.facts.get("warm_hit_ratio", 0.0)
    for name in SERVE_FACTS:
        values[f"serve.{name}"] = rec.facts.get(name, 0)
    traced_ops = rec.samples["op_s"]
    base_ops = base.samples["op_s"]
    values["op_p50_s"] = quantile(base_ops, 0.5)
    values["op_p90_s"] = quantile(base_ops, 0.9)
    if traced_ops and base_ops:
        values["trace.overhead_ratio"] = share(
            quantile(traced_ops, 0.5), values["op_p50_s"])
    values["error_rate"] = share(rec.failed, rec.attempted)
    return values


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------
def _workload_fns():
    import workloads as w

    # (operation, set-up timed apart from it or None, output check)
    return {
        "midload_mesh16": (w.midload, None, None),
        "flow_synth36": (w.flow, w.flow_setup, w.flow_check),
        "serve_mixed": (w.serve, None, w.serve_check),
    }


def _run_checks(ctx, check, out) -> None:
    if check is None:  # the workload checks each output as it goes
        return
    try:
        check(ctx, out)
    except Exception as exc:  # a check that cannot run is a wrong output
        ctx.rec.problems.append(f"check raised {type(exc).__name__}: {exc}")


def run_plain(args, params, workdir) -> tuple:
    from workloads import Context

    run, setup, check = _workload_fns()[args.workload]
    ctx = Context(args.workload, args.seed, args.seconds, params, workdir)
    out = run(ctx)
    rss = peak_rss_mb()
    if setup is not None:
        setup(ctx)
    _run_checks(ctx, check, out)
    return ctx.rec, end_to_end(ctx.rec, params, rss), None


def run_traced(args, params, workdir) -> tuple:
    from tracing import Tracer, install_client, install_library
    from workloads import Context

    run, _, check = _workload_fns()[args.workload]
    # One operation per half, and no host sampling: its signal handler
    # would land in the self time of whatever call it interrupts.
    params = dict(params, setup_repeats=1, nominal_op_s=args.seconds,
                  host_interval=0)
    base = Context(args.workload, args.seed, args.seconds, params, workdir)
    traced = Context(args.workload, args.seed, args.seconds, params, workdir)
    # Baseline: the same operation untraced, for the overhead ratio.
    run(base)
    tracer = Tracer(f"{args.workload}-seed{args.seed}-{os.getpid()}")
    dump = workdir / "server-totals.json"
    kwargs = {}
    if args.workload == "serve_mixed":
        install_client(tracer)
        kwargs = {"dump": dump}
    else:
        install_library(tracer)
    try:
        out = run(traced, **kwargs)
    finally:
        tracer.uninstall()
    server_totals = None
    if args.workload == "serve_mixed" and dump.exists():
        server_totals = json.loads(dump.read_text())
    _run_checks(traced, check, out)
    traced.rec.attempted += base.rec.attempted
    traced.rec.failed += base.rec.failed
    traced.rec.errors.extend(base.rec.errors)
    traced.rec.problems.extend(base.rec.problems)
    values = per_layer(tracer, traced.rec, base.rec,
                       server_totals=server_totals)
    return traced.rec, values, tracer


def parse_args(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reduced", action="store_true",
                        help="small inputs (self-test scale)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no repro sources under {SRC}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    args = parse_args(argv)
    # Turn SIGTERM into SystemExit so servers, pools and the scratch
    # directory are cleaned up by the ``finally`` blocks on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    from workloads import FULL, REDUCED

    params = (REDUCED if args.reduced else FULL)[args.workload]
    state = ROOT / ".perfbench"
    workdir = state / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    started = time.time()
    try:
        if args.trace:
            rec, values, tracer = run_traced(args, params, workdir)
            units = dict(PER_LAYER)
        else:
            rec, values, tracer = run_plain(args, params, workdir)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    detail = {
        "provenance": dict(provenance(args), started_unix=started),
        "spread": {
            name: spread(samples) for name, samples in sorted(rec.samples.items())
        },
        "facts": rec.facts,
        "errors": rec.errors,
        "problems": rec.problems,
        "metrics": values,
    }
    results = state / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(results / f"{stem}.json", "w") as fh:
        json.dump(dict(detail, samples=rec.samples,
                       trace=tracer.to_dict() if tracer else None),
                  fh, indent=1, default=str)
    for line in rec.problems:
        print(f"perfbench: check failed: {line}", file=sys.stderr)
    print(json.dumps(detail, default=str))
    print(json.dumps({
        "correct": not rec.problems,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
