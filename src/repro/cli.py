"""Command-line interface: the tool flow without writing Python.

The subcommands mirror the designer-facing entry points:

* ``characterize`` — the Fig. 2 switch radix sweep for a technology node;
* ``simulate``     — cycle-accurate simulation of a standard topology
                     under a synthetic pattern;
* ``synthesize``   — the Fig. 6 flow on a bundled workload, printing the
                     Pareto front and optionally writing the Verilog;
* ``chips``        — the Section 5 case-study summaries;
* ``batch``        — parallel experiment sweeps with result caching;
* ``observe``      — instrumented simulation: streaming metrics/trace
                     files plus a bottleneck-attribution report;
* ``serve``        — the long-lived simulation service (cache-first job
                     submission, live NDJSON streaming, quotas);
* ``submit``       — client for a running ``serve`` endpoint;
* ``trace``        — render a span JSONL file (or a live server's
                     trace) as an ASCII tree with the critical path;
* ``top``          — live terminal dashboard over ``GET /metrics``.

Examples::

    python -m repro characterize --node 65 --radices 4 8 12 16
    python -m repro simulate --topology mesh --size 4 --rate 0.2
    python -m repro synthesize --workload vopd --verilog-out vopd.v
    python -m repro chips
    python -m repro observe --topology mesh --size 8 --rate 0.3 \
        --out-dir obs-out
    python -m repro serve --port 8351 --workers 4 --log-json
    python -m repro submit load_point --port 8351 --topology mesh \
        --size 4 --rate 0.1 --wait
    python -m repro trace spans.jsonl
    python -m repro top --port 8351
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _cmd_characterize(args: argparse.Namespace) -> int:
    from repro.physical.routability import RoutabilityModel
    from repro.physical.switch_model import SwitchPhysicalModel
    from repro.physical.technology import TechNode, TechnologyLibrary

    node = TechNode(args.node)
    tech = TechnologyLibrary.for_node(node)
    switches = SwitchPhysicalModel(tech)
    router = RoutabilityModel(tech)
    print(f"Switch characterization at {node.nanometers} nm, "
          f"{args.width}-bit flits")
    print(f"{'radix':>6} {'area mm2':>9} {'fmax MHz':>9} {'row util':>9} {'class':>12}")
    for radix in args.radices:
        est = switches.estimate(radix, radix, flit_width=args.width)
        verdict = router.classify(radix, port_width=args.width)
        print(
            f"{radix:>6} {est.area_mm2:>9.4f} "
            f"{est.max_frequency_hz / 1e6:>9.0f} "
            f"{verdict.achievable_row_utilization:>9.2f} "
            f"{verdict.classification.value:>12}"
        )
    return 0


def _build_topology(kind: str, size: int):
    from repro.topology.presets import standard_instance

    inst = standard_instance(kind, size)
    return inst.topology, inst.table, inst.vc_assignment, inst.min_vcs


def _build_simulation(args: argparse.Namespace):
    """The topology, simulator and synthetic traffic that ``simulate``
    and ``observe`` both run, built from their shared flags."""
    from repro.arch import FlowControlKind, NocParameters
    from repro.sim import NocSimulator, SyntheticTraffic

    topo, table, vca, min_vcs = _build_topology(args.topology, args.size)
    params = NocParameters(
        flow_control=FlowControlKind(args.flow_control),
        num_vcs=max(min_vcs, args.vcs),
        buffer_depth=args.buffer_depth,
        output_buffer_depth=(
            args.buffer_depth if args.flow_control == "ack_nack" else 0
        ),
    )
    sim = NocSimulator(topo, table, params, vc_assignment=vca,
                       warmup_cycles=args.warmup)
    traffic = SyntheticTraffic(
        args.pattern, args.rate, args.packet_size, seed=args.seed
    )
    return topo, sim, traffic


def _empty_window(args: argparse.Namespace, sim) -> bool:
    """Report a measurement window that recorded no packet (exit 1)."""
    if sim.stats.packets_delivered:
        return False
    print(f"{args.command}: no packet was injected and delivered in the "
          f"measurement window (cycles {args.warmup}-{args.cycles}); "
          "raise --cycles or --rate", file=sys.stderr)
    return True


def _cmd_simulate(args: argparse.Namespace) -> int:
    topo, sim, traffic = _build_simulation(args)
    sim.run(args.cycles, traffic, drain=True)
    if _empty_window(args, sim):
        return 1
    cores = len(topo.cores)
    window = max(1, args.cycles - args.warmup)
    latency = sim.stats.latency()
    print(f"Simulated {topo!r}")
    print(f"  pattern {args.pattern} @ {args.rate} flits/cycle/core, "
          f"{args.cycles} cycles (+drain)")
    print(f"  packets delivered : {sim.stats.packets_delivered}")
    print(f"  latency mean/p95  : {latency.mean:.1f} / {latency.p95:.0f} cycles")
    print(f"  accepted traffic  : "
          f"{sim.stats.throughput_flits_per_cycle(window) / cores:.3f} "
          f"flits/cycle/core")
    if args.heatmap:
        if args.topology not in ("mesh", "torus"):
            print("  (heat map is only available for mesh/torus)")
        else:
            from repro.report import mesh_heatmap

            print("  link-utilization heat map (0-9 = share of the peak):")
            art = mesh_heatmap(topo, sim.link_utilization())
            for line in art.splitlines():
                print(f"    {line}")
    return 0


def _load_spec_arg(args: argparse.Namespace):
    """Resolve ``--spec-file`` / ``--workload`` into a spec."""
    from repro.apps import synthetic_soc, workload
    from repro.core import CommunicationSpec

    if getattr(args, "spec_file", None):
        from repro.core import load_spec

        return load_spec(args.spec_file)
    if args.workload.startswith("synthetic:"):
        n = int(args.workload.split(":", 1)[1])
        return CommunicationSpec.from_workload(synthetic_soc(n, seed=args.seed))
    return CommunicationSpec.from_workload(workload(args.workload))


def _cmd_synthesize(args: argparse.Namespace) -> int:
    from repro.core import NocDesignFlow

    spec = _load_spec_arg(args)
    print(f"Synthesizing for {spec!r}")
    flow = NocDesignFlow(spec)
    result = flow.run(
        switch_counts=args.switches,
        frequencies_hz=[f * 1e6 for f in args.frequencies],
        verify_cycles=args.verify_cycles,
    )
    print("Pareto front:")
    for point in result.pareto_front:
        marker = "  <- chosen" if point is result.chosen else ""
        print(
            f"  {point.name:<24} {point.power_mw:7.1f} mW "
            f"{point.avg_latency_ns:7.1f} ns {point.area_mm2:7.3f} mm2{marker}"
        )
    v = result.verification
    print(f"Verification: passed={v.passed}"
          + (f" ({'; '.join(v.failures)})" if v.failures else ""))
    if args.verilog_out:
        with open(args.verilog_out, "w") as fh:
            fh.write(result.verilog)
        print(f"Wrote structural Verilog to {args.verilog_out}")
    if args.design_out:
        from repro.topology import save_design

        save_design(
            result.chosen.topology, result.chosen.routing_table,
            args.design_out,
        )
        print(f"Wrote topology + routing tables to {args.design_out}")
    return 0 if v.passed else 1


def _cmd_chips(args: argparse.Namespace) -> int:
    from repro.chips import bone, faust, spin, teraflops, tile_gx

    t = teraflops.build()
    print(
        f"teraflops : {len(t.topology.cores)} cores, 8x10 mesh, "
        f"{teraflops.aggregate_bisection_bandwidth_bps(t) / 1e12:.2f} Tb/s "
        f"aggregate @ {t.frequency_hz / 1e9:.2f} GHz"
    )
    g = tile_gx.build()
    print(
        f"tile_gx   : {len(g.topology.cores)} cores, "
        f"{g.num_networks} parallel meshes, "
        f"{tile_gx.aggregate_bisection_bandwidth_bps(g) / 1e12:.2f} Tb/s"
    )
    f = faust.build()
    flows = faust.receiver_matrix_flows(f)
    print(
        f"faust     : quasi-mesh, {len(f.topology.cores)} cores on "
        f"{len(f.topology.switches)} routers, receiver matrix "
        f"{faust.aggregate_rt_bandwidth_bps(flows, f) / 1e9:.1f} Gb/s GT"
    )
    b = bone.build()
    print(
        f"bone      : hierarchical star, "
        f"{sum(1 for c in b.topology.cores if c.startswith('risc'))} RISC + "
        f"{sum(1 for c in b.topology.cores if c.startswith('sram'))} "
        f"dual-port SRAM"
    )
    s = spin.build()
    print(
        f"spin      : {spin.num_terminals(s)}-terminal fat tree "
        f"({len(s.topology.switches)} switches)"
    )
    return 0


def _cmd_observe(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.obs import (
        ChromeTraceSink,
        JsonlMetricsSink,
        JsonlTraceSink,
        TraceFanout,
        bottleneck_report,
    )

    _, sim, traffic = _build_simulation(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics_sink = JsonlMetricsSink(out_dir / "metrics.jsonl")
    probe = sim.enable_metrics(interval=args.interval, sink=metrics_sink)
    trace_fanout = None
    if not args.no_trace:
        trace_fanout = TraceFanout(
            JsonlTraceSink(out_dir / "trace.jsonl"),
            ChromeTraceSink(out_dir / "trace.json"),
        )
        sim.enable_tracing(trace_fanout)

    sim.run(args.cycles, traffic, drain=True)
    probe.finalize()
    metrics_sink.close()
    if trace_fanout is not None:
        trace_fanout.close()
    if _empty_window(args, sim):
        return 1

    report = bottleneck_report(sim, probe, top=args.top)
    (out_dir / "congestion.csv").write_text(report.csv)
    latency = sim.stats.latency()
    summary = {
        "config": {
            "topology": args.topology,
            "size": args.size,
            "pattern": args.pattern,
            "rate": args.rate,
            "cycles": args.cycles,
            "warmup": args.warmup,
            "packet_size": args.packet_size,
            "seed": args.seed,
            "interval": args.interval,
        },
        "packets_delivered": sim.stats.packets_delivered,
        "mean_latency": latency.mean,
        "p95_latency": latency.p95,
        "metrics": probe.compact_summary(top=args.top),
    }
    (out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )

    print(report.to_text())
    print()
    print(f"Simulated {args.cycles} cycles (+drain) -> {sim.cycle} total, "
          f"{sim.stats.packets_delivered} packets delivered")
    written = ["metrics.jsonl", "congestion.csv", "summary.json"]
    if trace_fanout is not None:
        written += ["trace.jsonl", "trace.json (Perfetto-loadable)"]
    print(f"Wrote {', '.join(written)} to {out_dir}/")
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.lab import (
        NullCache,
        ResultCache,
        ResultStore,
        fault_campaign_jobs,
        fault_summary_from_batch,
        load_curve_from_batch,
        load_curve_jobs,
        run_jobs,
        saturation_job,
        sweep_result_from_batch,
        synthesis_sweep_jobs,
        utilization_curve_from_batch,
    )

    cache = NullCache() if args.no_cache else ResultCache(args.cache_dir)
    store = ResultStore(args.store) if args.store else None

    if args.sweep == "synthesis":
        spec = _load_spec_arg(args)
        jobs = synthesis_sweep_jobs(
            spec,
            switch_counts=args.switches,
            frequencies_hz=[f * 1e6 for f in args.frequencies],
            flit_widths=args.flit_widths,
            include_baselines=not args.no_baselines,
        )
        print(f"Batch synthesis sweep for {spec!r}")
    elif args.sweep == "loadcurve":
        jobs = load_curve_jobs(
            args.topology, args.size, args.rates,
            pattern=args.pattern, cycles=args.cycles, warmup=args.warmup,
            packet_size=args.packet_size, seed=args.seed,
            metrics_interval=args.metrics_interval,
        )
        print(f"Batch load curve on {args.topology} (size {args.size}), "
              f"{len(jobs)} rates")
    elif args.sweep == "faults":
        jobs = fault_campaign_jobs(
            args.topology, args.size, runs=args.runs,
            pattern=args.pattern, rate=args.rate, cycles=args.cycles,
            packet_size=args.packet_size, link_faults=args.link_faults,
            switch_faults=args.switch_faults,
            transient_bursts=args.transient_bursts,
            repair_after=args.repair_after, seed=args.seed,
        )
        print(f"Batch fault campaign on {args.topology} "
              f"(size {args.size}), {len(jobs)} runs")
    else:  # saturation
        jobs = [saturation_job(
            args.topology, args.size,
            pattern=args.pattern, cycles=args.cycles, warmup=args.warmup,
            packet_size=args.packet_size, seed=args.seed,
        )]
        print(f"Batch saturation search on {args.topology} "
              f"(size {args.size})")

    batch = run_jobs(jobs, workers=args.jobs, cache=cache, store=store)
    print(f"{len(jobs)} jobs: {batch.computed} computed, "
          f"{batch.cached} from cache ({batch.hit_rate:.0%} hit rate)")

    if args.sweep == "synthesis":
        sweep = sweep_result_from_batch(batch)
        print(f"Pareto front ({len(sweep.front)} of "
              f"{len(sweep.points)} points):")
        for point in sweep.front:
            print(
                f"  {point.name:<24} {point.power_mw:7.1f} mW "
                f"{point.avg_latency_ns:7.1f} ns {point.area_mm2:7.3f} mm2"
            )
        for ref in sweep.baselines:
            print(f"  [ref] {ref.name:<18} {ref.power_mw:7.1f} mW "
                  f"{ref.avg_latency_ns:7.1f} ns {ref.area_mm2:7.3f} mm2")
    elif args.sweep == "loadcurve":
        print(f"{'offered':>8} {'accepted':>9} {'mean lat':>9} {'p95':>6}")
        for point in load_curve_from_batch(batch):
            print(f"{point.offered_rate:>8.3f} {point.accepted_rate:>9.3f} "
                  f"{point.mean_latency:>9.1f} {point.p95_latency:>6.0f}")
        util = utilization_curve_from_batch(batch)
        if util:
            print(f"{'offered':>8} {'mean util':>10} {'peak util':>10} "
                  f"{'stalls':>8}")
            for row in util:
                print(f"{row['offered_rate']:>8.3f} "
                      f"{row['mean_link_utilization']:>10.3f} "
                      f"{row['peak_link_utilization']:>10.3f} "
                      f"{row['total_stall_cycles']:>8}")
    elif args.sweep == "faults":
        summary = fault_summary_from_batch(batch)
        print(f"survived {summary['survived']}/{summary['runs']} runs "
              f"({summary['faults_injected']} faults, "
              f"{summary['recoveries']} recoveries, "
              f"{summary['gave_up']} gave up)")
        if summary["mean_survival_rate"] is not None:
            print(f"survival rate: mean {summary['mean_survival_rate']:.4f}, "
                  f"min {summary['min_survival_rate']:.4f}")
        print(f"packets: {summary['packets_delivered']} delivered, "
              f"{summary['packets_lost']} lost, "
              f"{summary['packets_abandoned_unreachable']} unreachable, "
              f"{summary['packets_retransmitted']} retransmitted")
        if summary["mean_detection_latency"] is not None:
            print("detection latency: "
                  f"{summary['mean_detection_latency']:.0f} cycles mean")
        if summary["mean_latency_inflation"] is not None:
            print("degraded-mode latency inflation: "
                  f"{summary['mean_latency_inflation']:+.1%}")
    elif batch.succeeded():
        rate = batch.results[0]["saturation_rate"]
        print(f"saturation throughput: {rate:.3f} flits/cycle/core")

    quarantined = batch.quarantined
    for record in quarantined:
        print(f"quarantined {record['job']}: {record['reason']} "
              f"({record['attempts'][-1]['detail']})")

    if store is not None:
        recovery = store.recovery_summary()
        if recovery["skipped"]:
            lines = ", ".join(
                str(c["line"]) for c in recovery["corrupt_lines"]
            )
            print(f"store recovery: {recovery['path']} skipped "
                  f"{recovery['skipped']} corrupt line(s) at {lines}; "
                  f"{recovery['records']} records intact")
        print(f"appended {len(jobs) - len(quarantined)} records to "
              f"{args.store}")
    return 1 if quarantined else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.lab import NullCache, ResultCache, ResultStore
    from repro.resilience import CheckpointPlan, RetryPolicy
    from repro.serve import SessionQuota, SimulationServer

    if args.log_json:
        import logging

        from repro.obs.logs import configure_logging

        configure_logging(
            level=getattr(logging, args.log_level.upper(), logging.INFO)
        )

    cache = NullCache() if args.no_cache else ResultCache(args.cache_dir)
    store = ResultStore(args.store) if args.store else None
    plan = (
        CheckpointPlan(
            directory=args.checkpoint_dir, interval=args.checkpoint_interval
        )
        if args.checkpoint_dir
        else None
    )

    # Startup recovery scan: purge torn cache entries and stale
    # checkpoint debris left by a previous crash before going live.
    if not args.no_cache:
        report = cache.verify(repair=True)
        if report["corrupt"] or report["tempfiles_removed"]:
            print(f"cache recovery: evicted {len(report['corrupt'])} corrupt "
                  f"entries, removed {report['tempfiles_removed']} stale "
                  f"temp file(s) ({report['entries']} entries scanned)",
                  flush=True)
    if plan is not None:
        scan = plan.store().recovery_scan()
        if scan["corrupt_removed"] or scan["tempfiles_removed"]:
            print("checkpoint recovery: dropped "
                  f"{len(scan['corrupt_removed'])} corrupt capsule(s), "
                  f"{scan['tempfiles_removed']} stale temp file(s); "
                  f"{scan['checkpoints']} resumable", flush=True)

    server = SimulationServer(
        host=args.host,
        port=args.port,
        workers=args.workers,
        worker_mode=args.worker_mode,
        cache=cache,
        store=store,
        quota=SessionQuota(
            max_concurrent=args.max_concurrent,
            max_queue_depth=args.max_queue,
            max_cycles=args.max_cycles,
        ),
        max_queue_depth=args.global_queue,
        retry_policy=RetryPolicy(max_attempts=args.max_attempts),
        job_deadline_s=args.job_deadline,
        checkpoint_plan=plan,
    )

    async def main() -> None:
        import signal

        await server.start()
        print(f"repro serve listening on http://{server.host}:{server.port} "
              f"({args.workers} {args.worker_mode} workers, "
              f"cache={'off' if args.no_cache else args.cache_dir})",
              flush=True)
        print("POST /jobs, GET /jobs/{id}[/stream], DELETE /jobs/{id}, "
              "GET /healthz, GET /stats, GET /metrics, "
              "GET /traces/{trace-id}", flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        await stop.wait()
        print("\ndraining in-flight jobs...", flush=True)
        await server.shutdown(drain=True)

    asyncio.run(main())
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    import json

    from repro.serve import ServeClient, ServeError

    client = ServeClient(args.host, args.port, session=args.session,
                         timeout=args.timeout)
    if args.spec_file:
        with open(args.spec_file) as fh:
            spec = json.load(fh)
        kind = spec["kind"]
        params = spec.get("params", {})
        seed = spec.get("seed", args.seed)
    else:
        kind = args.kind
        if kind is None:
            print("submit: give a job kind or --spec-file", file=sys.stderr)
            return 2
        params = {
            "topology": args.topology,
            "size": args.size,
            "pattern": args.pattern,
            "cycles": args.cycles,
        }
        if kind == "load_point":
            params["rate"] = args.rate
            params["warmup"] = args.warmup
        elif kind == "saturation":
            params["warmup"] = args.warmup
        elif kind == "fault_campaign":
            params["rate"] = args.rate
            params["switch_faults"] = args.switch_faults
        params["packet_size"] = args.packet_size
        if args.metrics_interval and kind == "load_point":
            params["metrics_interval"] = args.metrics_interval
        seed = args.seed

    try:
        doc = client.submit(
            kind, params, seed=seed, tags=("submit",),
            metrics_interval=args.metrics_interval,
            trace=args.trace,
            trace_id=args.trace_id,
        )
    except ServeError as exc:
        print(f"submit rejected: {exc}", file=sys.stderr)
        return 1

    if doc["state"] == "done":
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    if args.stream:
        try:
            for frame in client.stream(doc["id"]):
                print(json.dumps(frame, sort_keys=True))
        except BrokenPipeError:
            # Downstream (e.g. `| head`) closed early; that's its call.
            sys.stderr.close()
        return 0
    if args.wait:
        final = client.wait(doc["id"], timeout=args.timeout)
        print(json.dumps(final, indent=2, sort_keys=True))
        return 0 if final["state"] == "done" else 1
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro.obs.telemetry import (
        load_spans,
        render_span_trees,
        spans_to_chrome,
    )

    if args.path:
        spans = load_spans(args.path)
    elif args.trace_id:
        from repro.serve import ServeClient, ServeError

        client = ServeClient(args.host, args.port, timeout=args.timeout)
        try:
            spans = client.trace_spans(args.trace_id)
        except ServeError as exc:
            print(f"trace: {exc}", file=sys.stderr)
            return 1
    else:
        print("trace: give a span JSONL file or --trace-id with a server",
              file=sys.stderr)
        return 2

    if not spans:
        print("trace: no spans found", file=sys.stderr)
        return 1
    if args.chrome_out:
        with open(args.chrome_out, "w") as fh:
            json.dump(spans_to_chrome(spans), fh)
        print(f"wrote Chrome/Perfetto trace to {args.chrome_out}",
              file=sys.stderr)
    print(render_span_trees(spans, trace_id=args.trace_id or None,
                            critical=not args.no_critical))
    return 0


def _metrics_value(samples, name, labels=None):
    """First sample value matching ``name`` (and labels subset), or None."""
    want = labels or {}
    for sample_name, sample_labels, value in samples:
        if sample_name != name:
            continue
        if all(sample_labels.get(k) == v for k, v in want.items()):
            return value
    return None


def _render_dashboard(samples) -> str:
    def num(name, labels=None, default=0.0):
        value = _metrics_value(samples, name, labels)
        return default if value is None else value

    def count(name):
        return int(num(name))

    hits = count("repro_cache_hits")
    misses = count("repro_cache_misses")
    lookups = hits + misses
    hit_rate = (100.0 * hits / lookups) if lookups else 0.0

    lines = [
        f"uptime {num('repro_server_uptime_seconds'):8.1f}s   "
        f"accepting {count('repro_server_accepting')}   "
        f"sessions {count('repro_sessions_active')}",
        f"queue depth {count('repro_queue_depth'):4d}   "
        f"workers {count('repro_workers_busy')}/{count('repro_workers_total')}"
        f" busy   dispatched {count('repro_workers_dispatched')}",
        f"jobs: {count('repro_jobs_submitted')} submitted  "
        f"{count('repro_jobs_done')} done  "
        f"{count('repro_jobs_failed')} failed  "
        f"{count('repro_jobs_cancelled')} cancelled  "
        f"({count('repro_jobs_tracked')} tracked)",
        f"cache: {hits} hits  {misses} misses  ({hit_rate:.0f}% hit rate)  "
        f"served {count('repro_cache_served_from_cache')}",
        f"supervision: {count('repro_supervisor_retries')} retries  "
        f"{count('repro_supervisor_quarantined')} quarantined  "
        f"{count('repro_supervisor_deadline_expired')} deadline expiries",
    ]
    for label, metric in (
        ("queue wait", "repro_job_queue_wait_seconds"),
        ("attempt   ", "repro_job_attempt_seconds"),
        ("end-to-end", "repro_job_e2e_seconds"),
    ):
        n = count(metric + "_count")
        if not n:
            continue
        p50 = num(metric, {"quantile": "0.5"})
        p95 = num(metric, {"quantile": "0.95"})
        p99 = num(metric, {"quantile": "0.99"})
        lines.append(
            f"latency {label}: p50 {p50 * 1000.0:8.1f}ms  "
            f"p95 {p95 * 1000.0:8.1f}ms  p99 {p99 * 1000.0:8.1f}ms  "
            f"(n={n})"
        )
    return "\n".join(lines)


def _cmd_top(args: argparse.Namespace) -> int:
    import time

    from repro.obs.telemetry import parse_prometheus_text
    from repro.serve import ServeClient, ServeError

    client = ServeClient(args.host, args.port, timeout=args.timeout)
    iterations = 1 if args.once else args.iterations
    shown = 0
    while True:
        try:
            parsed = parse_prometheus_text(client.metrics())
        except (ServeError, OSError, ValueError) as exc:
            print(f"top: {exc}", file=sys.stderr)
            return 1
        if shown and not args.plain:
            # Rewind to home + clear, like a tiny top(1).
            print("\x1b[H\x1b[2J", end="")
        print(f"repro top — http://{args.host}:{args.port}/metrics")
        print(_render_dashboard(parsed["samples"]))
        sys.stdout.flush()
        shown += 1
        if iterations and shown >= iterations:
            return 0
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from repro.resilience.chaos import ChaosConfig, run_chaos_campaign

    config = ChaosConfig(
        jobs=args.jobs,
        seed=args.seed,
        workers=args.workers,
        cycles=args.cycles,
        poison_jobs=args.poison_jobs,
        fault_jobs=args.fault_jobs,
        deadline_s=args.deadline,
        max_attempts=args.max_attempts,
        checkpoint_interval=args.checkpoint_interval,
        kill_interval_s=args.kill_interval,
        max_kills=args.max_kills,
        corrupt_interval_s=args.corrupt_interval,
        max_corruptions=args.max_corruptions,
        stall_streams=args.stall_streams,
        wait_timeout_s=args.wait_timeout,
    )
    # With --json, stdout carries exactly the JSON document; the human
    # lines go to stderr and the exit code still carries the verdict.
    human = sys.stderr if args.json else sys.stdout
    print(f"chaos campaign: {config.jobs} jobs, seed {config.seed}, "
          f"{config.workers} process workers "
          f"(<= {config.max_kills} kills, "
          f"{config.max_corruptions} corruptions, "
          f"{config.stall_streams} stalled streams)", file=human, flush=True)
    report = run_chaos_campaign(config, root=args.dir)
    doc = report.to_dict()
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(f"{report.completed} done, {report.quarantined} quarantined "
              f"({report.poison_quarantined} poison), "
              f"{report.lost} lost, {report.mismatches} mismatched "
              f"in {report.elapsed_s:.1f}s")
        print(f"inflicted: {report.kills} worker kills, "
              f"{report.corruptions} cache corruptions "
              f"({report.corrupt_detected} detected on read), "
              f"{report.stalls} stalled streams")
        print(f"server: {report.server_retries} retries, "
              f"{report.deadline_expired} deadline expiries")
        for note in report.notes:
            print(f"  note: {note}")
    print("chaos verdict: " + ("OK" if report.ok else "FAILED"),
          file=human, flush=True)
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NoC design automation stack (De Micheli et al., DAC 2010)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("characterize", help="switch radix sweep (Fig. 2)")
    p.add_argument("--node", type=int, default=65, choices=(130, 90, 65, 45))
    p.add_argument("--width", type=int, default=32)
    p.add_argument("--radices", type=int, nargs="+",
                   default=[2, 4, 6, 8, 10, 14, 18, 22, 26, 30])
    p.set_defaults(func=_cmd_characterize)

    p = sub.add_parser("simulate", help="cycle-accurate simulation")
    p.add_argument("--topology", default="mesh",
                   choices=("mesh", "torus", "spidergon", "fattree"))
    p.add_argument("--size", type=int, default=4,
                   help="mesh/torus side, spidergon nodes, fat-tree levels")
    p.add_argument("--pattern", default="uniform",
                   choices=("uniform", "transpose", "bit-complement",
                            "neighbor", "hotspot", "shuffle"))
    p.add_argument("--rate", type=float, default=0.1)
    p.add_argument("--cycles", type=int, default=2000)
    p.add_argument("--warmup", type=int, default=300)
    p.add_argument("--packet-size", type=int, default=4)
    p.add_argument("--flow-control", default="on_off",
                   choices=("credit", "on_off", "ack_nack"))
    p.add_argument("--vcs", type=int, default=1)
    p.add_argument("--buffer-depth", type=int, default=4)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--heatmap", action="store_true",
                   help="print an ASCII link-load heat map (mesh/torus)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("synthesize", help="the Fig. 6 tool flow")
    p.add_argument("--workload", default="vopd",
                   help="vopd | mpeg4 | mwd | pip | synthetic:N")
    p.add_argument("--spec-file", default=None,
                   help="JSON spec file (overrides --workload)")
    p.add_argument("--switches", type=int, nargs="+", default=[2, 3, 4, 6])
    p.add_argument("--frequencies", type=float, nargs="+",
                   default=[500, 700], help="MHz")
    p.add_argument("--verify-cycles", type=int, default=1500)
    p.add_argument("--verilog-out", default=None)
    p.add_argument("--design-out", default=None,
                   help="write topology + LUTs as JSON")
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("chips", help="Section 5 case-study summaries")
    p.set_defaults(func=_cmd_chips)

    p = sub.add_parser(
        "observe",
        help="instrumented simulation: metrics + traces + bottleneck report",
    )
    p.add_argument("--topology", default="mesh",
                   choices=("mesh", "torus", "spidergon", "fattree"))
    p.add_argument("--size", type=int, default=8,
                   help="mesh/torus side, spidergon nodes, fat-tree levels")
    p.add_argument("--pattern", default="uniform",
                   choices=("uniform", "transpose", "bit-complement",
                            "neighbor", "hotspot", "shuffle"))
    p.add_argument("--rate", type=float, default=0.3)
    p.add_argument("--cycles", type=int, default=1000)
    p.add_argument("--warmup", type=int, default=0)
    p.add_argument("--packet-size", type=int, default=4)
    p.add_argument("--flow-control", default="on_off",
                   choices=("credit", "on_off", "ack_nack"))
    p.add_argument("--vcs", type=int, default=1)
    p.add_argument("--buffer-depth", type=int, default=4)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--interval", type=int, default=100,
                   help="metric sampling interval in cycles")
    p.add_argument("--top", type=int, default=5,
                   help="hot links / switches to rank in the report")
    p.add_argument("--out-dir", default="obs-out",
                   help="directory for metrics.jsonl, trace.json*, "
                        "congestion.csv, summary.json")
    p.add_argument("--no-trace", action="store_true",
                   help="skip per-flit trace files (metrics only)")
    p.set_defaults(func=_cmd_observe)

    p = sub.add_parser(
        "batch",
        help="parallel experiment sweeps with result caching (repro.lab)",
    )
    p.add_argument("sweep",
                   choices=("synthesis", "loadcurve", "saturation", "faults"),
                   help="which sweep to run as a job batch")
    p.add_argument("--jobs", type=int, default=1,
                   help="supervised worker processes (1 = serial, "
                        "in-process)")
    p.add_argument("--cache-dir", default=".repro-cache",
                   help="content-addressed result cache directory")
    p.add_argument("--no-cache", action="store_true",
                   help="always recompute; do not read or write the cache")
    p.add_argument("--store", default=None,
                   help="append results to this JSONL result store")
    p.add_argument("--seed", type=int, default=1)
    # synthesis sweep knobs
    p.add_argument("--workload", default="vopd",
                   help="vopd | mpeg4 | mwd | pip | synthetic:N")
    p.add_argument("--spec-file", default=None,
                   help="JSON spec file (overrides --workload)")
    p.add_argument("--switches", type=int, nargs="+", default=None)
    p.add_argument("--frequencies", type=float, nargs="+",
                   default=[500, 700], help="MHz")
    p.add_argument("--flit-widths", type=int, nargs="+", default=[32])
    p.add_argument("--no-baselines", action="store_true",
                   help="skip the mesh/star reference points")
    # simulation sweep knobs
    p.add_argument("--topology", default="mesh",
                   choices=("mesh", "torus", "spidergon", "fattree"))
    p.add_argument("--size", type=int, default=4)
    p.add_argument("--pattern", default="uniform",
                   choices=("uniform", "transpose", "bit-complement",
                            "neighbor", "hotspot", "shuffle"))
    p.add_argument("--rates", type=float, nargs="+",
                   default=[0.05, 0.1, 0.15, 0.2, 0.25, 0.3])
    p.add_argument("--metrics-interval", type=int, default=None,
                   help="sample loadcurve sims with repro.obs at this "
                        "cycle interval (adds utilization summaries)")
    p.add_argument("--cycles", type=int, default=1500)
    p.add_argument("--warmup", type=int, default=250)
    p.add_argument("--packet-size", type=int, default=4)
    # fault campaign knobs
    p.add_argument("--runs", type=int, default=4,
                   help="seeded fault-campaign runs (faults sweep)")
    p.add_argument("--rate", type=float, default=0.1,
                   help="injection rate during the fault campaign")
    p.add_argument("--link-faults", type=int, default=0)
    p.add_argument("--switch-faults", type=int, default=1)
    p.add_argument("--transient-bursts", type=int, default=0)
    p.add_argument("--repair-after", type=int, default=None,
                   help="repair each hard fault after this many cycles")
    p.set_defaults(func=_cmd_batch)

    p = sub.add_parser(
        "serve",
        help="simulation-as-a-service: cache-first job server (repro.serve)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8351,
                   help="listen port (0 picks a free one)")
    p.add_argument("--workers", type=int, default=2,
                   help="concurrent simulation workers")
    p.add_argument("--worker-mode", default="process",
                   choices=("process", "thread"),
                   help="process isolation per job, or in-process threads")
    p.add_argument("--cache-dir", default=".repro-cache",
                   help="content-addressed result cache directory "
                        "(shared with 'repro batch')")
    p.add_argument("--no-cache", action="store_true",
                   help="always compute; disables cache-first answers")
    p.add_argument("--store", default=None,
                   help="append every completed job to this JSONL store")
    p.add_argument("--max-concurrent", type=int, default=8,
                   help="per-session cap on jobs in flight")
    p.add_argument("--max-queue", type=int, default=32,
                   help="per-session cap on queued jobs")
    p.add_argument("--max-cycles", type=int, default=1_000_000,
                   help="per-job simulated-cycle budget")
    p.add_argument("--global-queue", type=int, default=128,
                   help="server-wide queued-job cap")
    p.add_argument("--max-attempts", type=int, default=3,
                   help="tries per job before quarantine (worker deaths "
                        "and deadline expiries retry with backoff)")
    p.add_argument("--job-deadline", type=float, default=None,
                   help="per-job wall-clock deadline in seconds "
                        "(cooperative cancel, then terminate, then kill)")
    p.add_argument("--checkpoint-dir", default=None,
                   help="persist job checkpoints here so retried jobs "
                        "resume mid-run instead of recomputing")
    p.add_argument("--checkpoint-interval", type=int, default=10_000,
                   help="cycles between checkpoints (with --checkpoint-dir)")
    p.add_argument("--log-json", action="store_true",
                   help="emit correlated JSON logs (one object per line, "
                        "stamped with trace/job ids) on stderr")
    p.add_argument("--log-level", default="info",
                   choices=("debug", "info", "warning", "error"),
                   help="log threshold for --log-json")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "submit",
        help="submit a job to a running 'repro serve' endpoint",
    )
    p.add_argument("kind", nargs="?", default=None,
                   choices=("load_point", "saturation", "fault_campaign"),
                   help="job kind (or use --spec-file)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8351)
    p.add_argument("--session", default=None,
                   help="session name for quota accounting (X-Session)")
    p.add_argument("--spec-file", default=None,
                   help="raw JSON job spec {kind, params, seed} "
                        "(overrides the flag-built spec)")
    p.add_argument("--topology", default="mesh",
                   choices=("mesh", "torus", "spidergon", "fattree"))
    p.add_argument("--size", type=int, default=4)
    p.add_argument("--pattern", default="uniform",
                   choices=("uniform", "transpose", "bit-complement",
                            "neighbor", "hotspot", "shuffle"))
    p.add_argument("--rate", type=float, default=0.1)
    p.add_argument("--cycles", type=int, default=1500)
    p.add_argument("--warmup", type=int, default=250)
    p.add_argument("--packet-size", type=int, default=4)
    p.add_argument("--switch-faults", type=int, default=1,
                   help="fault_campaign: hard switch faults to inject")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--metrics-interval", type=int, default=None,
                   help="stream live metric windows at this cycle interval")
    p.add_argument("--trace", action="store_true",
                   help="stream per-flit trace frames too")
    p.add_argument("--trace-id", default=None,
                   help="distributed-tracing id to stamp on the job "
                        "(X-Trace-Id; the server mints one if omitted)")
    p.add_argument("--wait", action="store_true",
                   help="block until the job is done and print its result")
    p.add_argument("--stream", action="store_true",
                   help="print the job's NDJSON frames as they arrive")
    p.add_argument("--timeout", type=float, default=300.0)
    p.set_defaults(func=_cmd_submit)

    p = sub.add_parser(
        "trace",
        help="render a span JSONL file (or a live trace) as an ASCII "
             "tree with critical-path markers",
    )
    p.add_argument("path", nargs="?", default=None,
                   help="span JSONL file (from TelemetryHub.export_spans "
                        "or a captured /traces response)")
    p.add_argument("--trace-id", default=None,
                   help="render only this trace; with no file, fetch it "
                        "from a running server's GET /traces/{id}")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8351)
    p.add_argument("--timeout", type=float, default=10.0)
    p.add_argument("--chrome-out", default=None,
                   help="also write a Chrome/Perfetto trace JSON here")
    p.add_argument("--no-critical", action="store_true",
                   help="skip critical-path markers")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "top",
        help="live terminal dashboard over a server's GET /metrics",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8351)
    p.add_argument("--interval", type=float, default=2.0,
                   help="seconds between refreshes")
    p.add_argument("--iterations", type=int, default=0,
                   help="stop after this many refreshes (0 = forever)")
    p.add_argument("--once", action="store_true",
                   help="print one snapshot and exit (for scripts/CI)")
    p.add_argument("--plain", action="store_true",
                   help="no screen clearing between refreshes")
    p.add_argument("--timeout", type=float, default=10.0)
    p.set_defaults(func=_cmd_top)

    p = sub.add_parser(
        "chaos",
        help="seeded infrastructure chaos campaign against a live server "
             "(repro.resilience.chaos)",
    )
    p.add_argument("--jobs", type=int, default=20,
                   help="total jobs in the campaign")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--workers", type=int, default=2,
                   help="process workers in the victim server")
    p.add_argument("--cycles", type=int, default=3000,
                   help="simulated cycles per plain job")
    p.add_argument("--poison-jobs", type=int, default=1,
                   help="jobs sized to blow the deadline every attempt")
    p.add_argument("--fault-jobs", type=int, default=2,
                   help="checkpoint-capable fault-campaign jobs in the mix")
    p.add_argument("--deadline", type=float, default=8.0,
                   help="per-job wall-clock deadline (seconds)")
    p.add_argument("--max-attempts", type=int, default=4,
                   help="server retry budget before quarantine")
    p.add_argument("--checkpoint-interval", type=int, default=1000,
                   help="cycles between job checkpoints")
    p.add_argument("--kill-interval", type=float, default=0.4,
                   help="seconds between worker SIGKILLs")
    p.add_argument("--max-kills", type=int, default=5)
    p.add_argument("--corrupt-interval", type=float, default=0.5,
                   help="seconds between cache corruptions")
    p.add_argument("--max-corruptions", type=int, default=4)
    p.add_argument("--stall-streams", type=int, default=2,
                   help="stream connections opened and left unread")
    p.add_argument("--wait-timeout", type=float, default=300.0,
                   help="campaign-wide completion deadline (seconds)")
    p.add_argument("--dir", default=None,
                   help="cache/checkpoint root (default: fresh temp dir)")
    p.add_argument("--json", action="store_true",
                   help="print the full report as JSON")
    p.set_defaults(func=_cmd_chaos)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("simulate", "observe") and not 0 <= args.warmup < args.cycles:
        # Statistics cover the cycles after the warm-up: none would be left.
        parser.error(
            f"{args.command}: --warmup must be >= 0 and below --cycles "
            f"(got --warmup {args.warmup}, --cycles {args.cycles})"
        )
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
