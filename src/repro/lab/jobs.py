"""Declarative experiment jobs and their runners.

A :class:`Job` is a self-contained, JSON-serializable description of one
unit of work — "synthesize VOPD with 3 switches at 500 MHz", "simulate a
4x4 mesh at 0.2 flits/cycle/core with seed 7".  Because the spec is
plain data it can be pickled to a worker process, hashed into a
content-addressed cache key (:attr:`Job.key`), and persisted next to its
result for provenance.

Runners are registered by kind with a version number; the version is
folded into the cache key so changing a runner's algorithm invalidates
exactly that kind's cached results (the global :data:`~repro.lab.hashing.CODE_SALT`
handles library-wide invalidation).

Built-in runners cover the sweeps the tool flow actually performs:

==================  ======================================================
``synthesis``       one SunFloor design point (Fig. 6 flow)
``baseline``        one standard-topology reference (mesh or star)
``load_point``      one injection-rate point of a load-latency curve
``saturation``      a full bisection saturation search
``fault_campaign``  one seeded live-fault run with online recovery
==================  ======================================================
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.lab.hashing import CODE_SALT, stable_hash, to_jsonable

JobRunner = Callable[["Job"], dict]

_RUNNERS: Dict[str, Tuple[JobRunner, int]] = {}


class JobCancelled(Exception):
    """Raised inside a runner when its observer requests cancellation.

    Cooperative: the check happens on observation boundaries (metric
    windows, trace events), so a run without observation hooks finishes
    normally and the host discards the result instead.
    """


@dataclass
class JobObserver:
    """Observation-only hooks a host threads into a running job.

    :mod:`repro.serve` uses this to watch live simulations: a metrics
    probe streaming windows into ``metrics_sink`` and (optionally) flit
    tracing into ``trace_sink``.  An observer is *never* part of the job
    spec — it does not enter the cache key, and attaching one must not
    change any result payload (the probe and recorder only read; the
    ``metrics`` result key still appears only when the job's own
    ``metrics_interval`` parameter asks for it).
    """

    metrics_sink: Any = None
    trace_sink: Any = None
    metrics_interval: Optional[int] = None

    def attach(self, sim) -> None:
        """Instrument a simulator per this observer's configuration."""
        if self.metrics_interval:
            sim.enable_metrics(
                interval=self.metrics_interval, sink=self.metrics_sink
            )
        if self.trace_sink is not None:
            sim.enable_tracing(self.trace_sink)


#: The observer of the job currently executing in this thread/context.
_OBSERVER: ContextVar[Optional[JobObserver]] = ContextVar(
    "repro_lab_job_observer", default=None
)


def current_observer() -> Optional[JobObserver]:
    """The active :class:`JobObserver`, if :func:`run_job` installed one."""
    return _OBSERVER.get()


def runner(kind: str, version: int = 1) -> Callable[[JobRunner], JobRunner]:
    """Register a job runner for ``kind``.

    Bump ``version`` whenever the runner's output for identical
    parameters changes — it is part of every cache key of that kind.
    """

    def decorate(fn: JobRunner) -> JobRunner:
        if kind in _RUNNERS:
            raise ValueError(f"job kind {kind!r} already registered")
        _RUNNERS[kind] = (fn, version)
        return fn

    return decorate


def runner_version(kind: str) -> int:
    try:
        return _RUNNERS[kind][1]
    except KeyError:
        raise ValueError(f"unknown job kind {kind!r}") from None


def registered_kinds() -> Tuple[str, ...]:
    return tuple(sorted(_RUNNERS))


@dataclass(frozen=True)
class Job:
    """One unit of batch work, identified by content.

    ``params`` must be plain JSON data (the sweep builders in
    :mod:`repro.lab.sweeps` guarantee this); ``seed`` is the explicit RNG
    seed of any stochastic part; ``tags`` are free-form labels for store
    queries and do *not* enter the cache key (they describe why the job
    ran, not what it computes).
    """

    kind: str
    params: Mapping[str, Any]
    seed: int = 0
    tags: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", to_jsonable(dict(self.params)))
        object.__setattr__(self, "tags", tuple(self.tags))

    @property
    def key(self) -> str:
        """Content-addressed identity: spec + seed + code version."""
        return stable_hash(
            {
                "kind": self.kind,
                "params": self.params,
                "seed": self.seed,
                "runner_version": runner_version(self.kind),
            },
            salt=CODE_SALT,
        )

    def describe(self) -> str:
        return f"{self.kind}[{self.key[:12]}]"


def run_job(job: Job, observer: Optional[JobObserver] = None) -> dict:
    """Execute one job in the current process; returns a plain dict.

    The payload is normalized to plain JSON data (tuples to lists, enums
    to values) so a freshly computed result is indistinguishable from
    the same result read back from the cache or the store.

    ``observer`` installs observation-only streaming hooks for the
    duration of the call (see :class:`JobObserver`); runners that build
    simulators pick it up via :func:`current_observer`.  The result is
    identical with or without one.
    """
    from repro.obs.telemetry import span

    try:
        fn, _ = _RUNNERS[job.kind]
    except KeyError:
        raise ValueError(f"unknown job kind {job.kind!r}") from None
    # Telemetry only: with no tracer on the context (the default) this
    # span is a free no-op and nothing about the run changes.
    with span("run_job", kind=job.kind, key=job.key[:16]):
        if observer is None:
            return to_jsonable(fn(job))
        token = _OBSERVER.set(observer)
        try:
            return to_jsonable(fn(job))
        finally:
            _OBSERVER.reset(token)


# ----------------------------------------------------------------------
# Built-in runners.  Imports happen inside the functions: workers only
# pay for the layers the job actually touches, and the registry can be
# imported without dragging in the whole stack.
# ----------------------------------------------------------------------
@runner("synthesis", version=1)
def _run_synthesis(job: Job) -> dict:
    """One custom design point of the Fig. 6 synthesis sweep."""
    from repro.core.specio import spec_from_dict
    from repro.core.synthesis import TopologySynthesizer
    from repro.lab.records import design_point_to_dict, floorplan_from_dict
    from repro.physical.technology import TechNode, TechnologyLibrary

    p = job.params
    spec = spec_from_dict(p["spec"])
    tech = TechnologyLibrary.for_node(TechNode(p.get("tech_node", 65)))
    floorplan = (
        floorplan_from_dict(p["floorplan"]) if p.get("floorplan") else None
    )
    synthesizer = TopologySynthesizer(spec, tech, floorplan)
    result = synthesizer.synthesize(
        p["num_switches"],
        frequency_hz=p["frequency_hz"],
        flit_width=p.get("flit_width", 32),
        packet_size_flits=p.get("packet_size_flits", 4),
    )
    return {"design": design_point_to_dict(result.design)}


@runner("baseline", version=1)
def _run_baseline(job: Job) -> dict:
    """One standard-topology reference point (mesh or star)."""
    from repro.core.baselines import mesh_baseline, star_baseline
    from repro.core.evaluate import DesignEvaluator
    from repro.core.specio import spec_from_dict
    from repro.lab.records import design_point_to_dict
    from repro.physical.technology import TechNode, TechnologyLibrary

    p = job.params
    spec = spec_from_dict(p["spec"])
    tech = TechnologyLibrary.for_node(TechNode(p.get("tech_node", 65)))
    evaluator = DesignEvaluator(tech)
    builders = {"mesh": mesh_baseline, "star": star_baseline}
    try:
        build = builders[p["baseline"]]
    except KeyError:
        raise ValueError(
            f"unknown baseline {p.get('baseline')!r}; "
            f"choose from {sorted(builders)}"
        ) from None
    design = build(
        spec,
        evaluator,
        frequency_hz=p["frequency_hz"],
        flit_width=p.get("flit_width", 32),
    )
    return {"design": design_point_to_dict(design)}


@runner("load_point", version=1)
def _run_load_point(job: Job) -> dict:
    """One injection-rate point of a load-latency curve.

    With ``metrics_interval`` in the params, a read-only
    :class:`repro.obs.MetricsProbe` rides along and its compact summary
    (per-link utilization, hot links, stall/contention totals) lands in
    the result next to the point.  The probe never changes simulation
    outcomes, and the key is absent by default, so pre-existing cache
    keys and results are untouched.
    """
    from repro.lab.records import load_point_to_dict
    from repro.sim.experiments import _run_point
    from repro.topology.presets import standard_instance

    p = job.params
    inst = standard_instance(p["topology"], p["size"])
    params = _effective_sim_parameters(p, inst.min_vcs)
    obs = current_observer()
    # The job's own interval (which puts "metrics" in the result) wins;
    # an observer can still watch a job that never asked for metrics.
    interval = p.get("metrics_interval") or (
        obs.metrics_interval if obs is not None else None
    )
    # (simulator, probe) pairs: the probe holds its simulator weakly, so
    # the job keeps the simulator until the probe has finalized.
    probes = []
    on_sim = None
    if interval or (obs is not None and obs.trace_sink is not None):
        def on_sim(sim):
            if interval:
                probes.append((sim, sim.enable_metrics(
                    interval=interval,
                    sink=obs.metrics_sink if obs is not None else None,
                )))
            if obs is not None and obs.trace_sink is not None:
                sim.enable_tracing(obs.trace_sink)
    point = _run_point(
        inst.topology,
        inst.table,
        params,
        inst.vc_assignment,
        p.get("pattern", "uniform"),
        p["rate"],
        p.get("cycles", 1500),
        p.get("warmup", 250),
        p.get("packet_size", 4),
        job.seed,
        on_sim=on_sim,
    )
    result = {"point": None if point is None else load_point_to_dict(point)}
    if probes:
        __, probe = probes[0]
        probe.finalize()
        if p.get("metrics_interval"):
            result["metrics"] = probe.compact_summary()
    return result


@runner("saturation", version=1)
def _run_saturation(job: Job) -> dict:
    """A complete bisection saturation search on a standard topology."""
    from repro.sim.experiments import saturation_throughput
    from repro.topology.presets import standard_instance

    p = job.params
    inst = standard_instance(p["topology"], p["size"])
    params = _effective_sim_parameters(p, inst.min_vcs)
    rate = saturation_throughput(
        inst.topology,
        inst.table,
        params,
        vc_assignment=inst.vc_assignment,
        pattern=p.get("pattern", "uniform"),
        latency_factor=p.get("latency_factor", 3.0),
        cycles=p.get("cycles", 1500),
        warmup=p.get("warmup", 250),
        packet_size=p.get("packet_size", 4),
        seed=job.seed,
        tolerance=p.get("tolerance", 0.02),
    )
    return {"saturation_rate": rate}


@runner("fault_campaign", version=1)
def _run_fault_campaign(job: Job) -> dict:
    """One seeded fault-injection run with live recovery (robustness).

    Traffic draws from ``job.seed``; the fault schedule from
    ``derive_seed(job.seed, "faults")`` — two campaigns with the same
    seed are byte-identical, while traffic and faults stay decoupled.

    Checkpoint-aware: when the host installed a
    :class:`repro.resilience.CheckpointPlan` (a ContextVar side channel,
    like :class:`JobObserver` — never part of the cache key), the run
    persists a state capsule every ``plan.interval`` cycles and, on
    retry after a crash, resumes from the last capsule instead of cycle
    zero.  Results are byte-identical with checkpointing on, off, or
    resumed mid-run (``tests/resilience/`` enforces all three).
    """
    from repro.arch.packet import reset_packet_ids
    from repro.lab.hashing import derive_seed
    from repro.resilience.checkpoint import (
        current_checkpoint_plan,
        run_with_checkpoints,
    )
    from repro.sim import (
        DrainTimeoutError,
        FaultSchedule,
        NocSimulator,
        RecoveryController,
        RetransmissionPolicy,
        SyntheticTraffic,
    )
    from repro.topology.presets import standard_instance

    p = job.params
    cycles = p.get("cycles", 4000)
    plan = current_checkpoint_plan()
    ckpt_store = plan.store() if plan is not None else None
    resumed = (
        ckpt_store.try_restore(job.key) if ckpt_store is not None else None
    )
    if resumed is not None:
        sim, traffic = resumed
        controller = sim._controller
        # Telemetry only (no-op without an active span): the restore
        # point shows up in the job's trace next to the retry events.
        from repro.obs.telemetry import add_event

        add_event("checkpoint.restore", cycle=sim.cycle)
    else:
        inst = standard_instance(p["topology"], p["size"])
        params = _effective_sim_parameters(p, inst.min_vcs)
        window = (
            p.get("fault_start", cycles // 4),
            p.get("fault_end", max(cycles // 4 + 1, cycles // 2)),
        )
        schedule = FaultSchedule.random(
            inst.topology,
            seed=derive_seed(job.seed, "faults"),
            link_faults=p.get("link_faults", 0),
            switch_faults=p.get("switch_faults", 1),
            transient_bursts=p.get("transient_bursts", 0),
            window=window,
            repair_after=p.get("repair_after"),
        )

        reset_packet_ids()
        sim = NocSimulator(
            inst.topology, inst.table, params,
            vc_assignment=inst.vc_assignment,
        )
        sim.attach_fault_schedule(schedule)
        # Bounded retries keep the drain finite even when the controller
        # gives up and the run degrades to best-effort loss.
        sim.enable_retransmission(RetransmissionPolicy(max_retries=8))
        controller = RecoveryController()
        sim.attach_recovery_controller(controller)
        traffic = SyntheticTraffic(
            p.get("pattern", "uniform"),
            p.get("rate", 0.1),
            packet_size_flits=p.get("packet_size", 4),
            seed=job.seed,
        )
    obs = current_observer()
    if obs is not None:
        obs.attach(sim)
    survived = True
    try:
        if ckpt_store is not None:
            run_with_checkpoints(
                sim, cycles, traffic,
                store=ckpt_store, tag=job.key,
                interval=plan.interval, drain=True,
            )
        else:
            sim.run(max(0, cycles - sim.cycle), traffic, drain=True)
    except DrainTimeoutError:
        survived = False
    if ckpt_store is not None:
        # The job finished; its capsule has served its purpose.
        ckpt_store.discard(job.key)

    stats = sim.stats
    inis = sim.initiators.values()
    delivered = stats.packets_delivered
    lost = sum(ni.packets_lost for ni in inis)
    abandoned = sum(ni.packets_abandoned_unreachable for ni in inis)
    reachable = delivered + lost
    degraded = stats.degraded_latency_summary()
    return {
        "survived": survived,
        "survival_rate": delivered / reachable if reachable else None,
        "delivered": delivered,
        "lost": lost,
        "abandoned_unreachable": abandoned,
        "retransmitted": sum(ni.packets_retransmitted for ni in inis),
        "recovered": sum(ni.packets_recovered for ni in inis),
        "duplicates_discarded": sum(
            t.duplicates_discarded for t in sim.targets.values()
        ),
        "flits_dropped_by_faults": stats.flits_dropped_by_faults,
        "unroutable_injections": stats.unroutable_injections,
        "gave_up": controller.gave_up,
        "faults": [
            {"cycle": f.cycle, "kind": f.kind, "component": f.component}
            for f in stats.fault_events
        ],
        "recoveries": [
            {
                "detected_cycle": r.detected_cycle,
                "completed_cycle": r.completed_cycle,
                "detection_latency": r.detection_latency,
                "recovery_cycles": r.recovery_cycles,
                "blamed_links": r.blamed_links,
                "blamed_switches": r.blamed_switches,
                "routes_changed": r.routes_changed,
                "packets_purged": r.packets_purged,
                "transfers_abandoned": r.transfers_abandoned,
            }
            for r in stats.recoveries
        ],
        "healthy_latency_mean": degraded.healthy_mean,
        "degraded_latency_mean": degraded.degraded_mean,
        "latency_inflation": degraded.inflation,
    }


def _effective_sim_parameters(p: Mapping[str, Any], min_vcs: int):
    """NocParameters for a simulation job, honoring topology VC floors."""
    from repro.arch.parameters import DEFAULT_PARAMETERS
    from repro.lab.records import noc_parameters_from_dict

    params = (
        noc_parameters_from_dict(p["noc_params"])
        if p.get("noc_params")
        else DEFAULT_PARAMETERS
    )
    if params.num_vcs < min_vcs:
        params = params.with_(num_vcs=min_vcs)
    return params
