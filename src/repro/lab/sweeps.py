"""Declarative sweep builders: whole experiments as job lists.

These functions translate the sweeps the stack already performs —
the Fig. 6 synthesis design-space exploration, injection-rate load
curves, saturation searches — into lists of content-addressed
:class:`~repro.lab.jobs.Job` specs, plus the inverse: reassembling the
familiar result objects (:class:`~repro.core.sweep.SweepResult`, load
curves) from a completed batch or a replayed store.

The enumeration order of :func:`synthesis_sweep_jobs` mirrors
:meth:`repro.core.sweep.DesignSpaceExplorer.explore` exactly, so the
parallel cached path and the classic serial path produce identical
point lists — the property the acceptance tests pin down.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.pareto import DEFAULT_OBJECTIVES, Objectives, pareto_front
from repro.core.spec import CommunicationSpec
from repro.core.specio import spec_to_dict
from repro.core.sweep import SweepResult, default_switch_counts
from repro.lab.executor import BatchResult, run_jobs
from repro.lab.jobs import Job
from repro.lab.records import design_point_from_dict, optional_floorplan_to_dict
from repro.lab.store import ResultStore
from repro.physical.floorplan import Floorplan
from repro.physical.technology import TechNode
from repro.sim.experiments import LoadPoint
from repro.topology.presets import STANDARD_KINDS


# ----------------------------------------------------------------------
# Synthesis (Fig. 6) sweeps
# ----------------------------------------------------------------------
def synthesis_sweep_jobs(
    spec: CommunicationSpec,
    switch_counts: Optional[Sequence[int]] = None,
    frequencies_hz: Sequence[float] = (400e6, 600e6, 800e6),
    flit_widths: Sequence[int] = (32,),
    include_baselines: bool = True,
    tech_node: TechNode = TechNode.NM_65,
    floorplan: Optional[Floorplan] = None,
    tags: Sequence[str] = (),
) -> List[Job]:
    """The full Fig. 6 design-space sweep as independent jobs.

    Point jobs come first (width-major, then frequency, then switch
    count), then the mesh/star baselines — the exact order
    ``DesignSpaceExplorer.explore`` evaluates serially.
    """
    n = len(spec.core_names)
    if switch_counts is None:
        switch_counts = default_switch_counts(n)
    spec_data = spec_to_dict(spec)
    floorplan_data = optional_floorplan_to_dict(floorplan)
    base_tags = tuple(tags) + (f"sweep:{spec.name}",)

    jobs: List[Job] = []
    for width in flit_widths:
        for freq in frequencies_hz:
            for k in switch_counts:
                if k < 1 or k > n:
                    continue
                jobs.append(Job(
                    kind="synthesis",
                    params={
                        "spec": spec_data,
                        "num_switches": k,
                        "frequency_hz": freq,
                        "flit_width": width,
                        "tech_node": tech_node.value,
                        "floorplan": floorplan_data,
                    },
                    tags=base_tags,
                ))
    if include_baselines:
        for width in flit_widths:
            for freq in frequencies_hz:
                for baseline in ("mesh", "star"):
                    jobs.append(Job(
                        kind="baseline",
                        params={
                            "spec": spec_data,
                            "baseline": baseline,
                            "frequency_hz": freq,
                            "flit_width": width,
                            "tech_node": tech_node.value,
                        },
                        tags=base_tags,
                    ))
    return jobs


def sweep_result_from_batch(
    batch: BatchResult,
    objectives: Objectives = DEFAULT_OBJECTIVES,
) -> SweepResult:
    """Reassemble a classic :class:`SweepResult` from a finished batch.

    Quarantined jobs (see :attr:`BatchResult.quarantined`) are left out.
    """
    points = []
    baselines = []
    for job, result in batch.succeeded():
        if job.kind == "synthesis":
            points.append(design_point_from_dict(result["design"]))
        elif job.kind == "baseline":
            baselines.append(design_point_from_dict(result["design"]))
    return SweepResult(
        points=points,
        front=pareto_front(points, objectives),
        baselines=baselines,
    )


def sweep_result_from_store(
    store: ResultStore,
    tags: Sequence[str] = (),
    objectives: Objectives = DEFAULT_OBJECTIVES,
) -> SweepResult:
    """Replay a stored sweep without recomputing anything.

    This is the figure-script path: run ``repro batch`` once, then
    rebuild the Pareto front from the JSONL store forever after.
    """
    points = store.design_points(tags=tags)
    return SweepResult(
        points=points,
        front=pareto_front(points, objectives),
        baselines=store.baseline_points(tags=tags),
    )


def run_synthesis_sweep(
    spec: CommunicationSpec,
    switch_counts: Optional[Sequence[int]] = None,
    frequencies_hz: Sequence[float] = (400e6, 600e6, 800e6),
    flit_widths: Sequence[int] = (32,),
    include_baselines: bool = True,
    tech_node: TechNode = TechNode.NM_65,
    floorplan: Optional[Floorplan] = None,
    objectives: Objectives = DEFAULT_OBJECTIVES,
    workers: Optional[int] = None,
    cache=None,
    store: Optional[ResultStore] = None,
    tags: Sequence[str] = (),
) -> Tuple[SweepResult, BatchResult]:
    """One-call parallel cached exploration; (sweep, batch accounting)."""
    jobs = synthesis_sweep_jobs(
        spec,
        switch_counts=switch_counts,
        frequencies_hz=frequencies_hz,
        flit_widths=flit_widths,
        include_baselines=include_baselines,
        tech_node=tech_node,
        floorplan=floorplan,
        tags=tags,
    )
    batch = run_jobs(jobs, workers=workers, cache=cache, store=store)
    return sweep_result_from_batch(batch, objectives), batch


# ----------------------------------------------------------------------
# Simulation sweeps
# ----------------------------------------------------------------------
def load_curve_jobs(
    topology: str,
    size: int,
    rates: Sequence[float],
    pattern: str = "uniform",
    cycles: int = 1500,
    warmup: int = 250,
    packet_size: int = 4,
    seed: int = 1,
    noc_params: Optional[dict] = None,
    metrics_interval: Optional[int] = None,
    tags: Sequence[str] = (),
) -> List[Job]:
    """One job per injection rate of a load-latency curve.

    ``metrics_interval`` additionally samples each point's simulation
    with a :class:`repro.obs.MetricsProbe` at that cycle interval,
    storing a compact utilization summary in every result — the
    utilization-vs-load view :meth:`ResultStore.utilization_curve`
    replays.  ``None`` (the default) leaves the params — and therefore
    every cache key — exactly as before.
    """
    if topology not in STANDARD_KINDS:
        raise ValueError(
            f"unknown topology {topology!r}; choose from {STANDARD_KINDS}"
        )
    base_tags = tuple(tags) + (f"curve:{topology}{size}:{pattern}",)
    jobs = []
    for rate in rates:
        params = {
            "topology": topology,
            "size": size,
            "rate": rate,
            "pattern": pattern,
            "cycles": cycles,
            "warmup": warmup,
            "packet_size": packet_size,
            "noc_params": noc_params,
        }
        if metrics_interval is not None:
            params["metrics_interval"] = metrics_interval
        jobs.append(
            Job(kind="load_point", params=params, seed=seed, tags=base_tags)
        )
    return jobs


def load_curve_from_batch(batch: BatchResult) -> List[LoadPoint]:
    """LoadPoints from a finished curve batch, in offered-rate order.

    Rates without a delivered packet and quarantined jobs are left out.
    """
    from repro.lab.records import load_point_from_dict

    points = [
        load_point_from_dict(result["point"])
        for job, result in batch.succeeded()
        if job.kind == "load_point" and result.get("point") is not None
    ]
    points.sort(key=lambda p: p.offered_rate)
    return points


def utilization_curve_from_batch(batch: BatchResult) -> List[dict]:
    """Offered rate vs. measured utilization from an instrumented batch.

    Companion to :func:`load_curve_from_batch` for curves built with a
    ``metrics_interval``; jobs without metrics are skipped.  Same row
    shape as :meth:`ResultStore.utilization_curve`.
    """
    rows = []
    for job, result in batch.succeeded():
        if job.kind != "load_point":
            continue
        metrics = result.get("metrics")
        if metrics is None:
            continue
        rows.append(
            {
                "offered_rate": job.params["rate"],
                "mean_link_utilization": metrics["mean_link_utilization"],
                "peak_link_utilization": metrics["peak_link_utilization"],
                "total_stall_cycles": metrics["total_stall_cycles"],
                "total_contention_cycles": metrics["total_contention_cycles"],
                "top_links": metrics["top_links"],
            }
        )
    rows.sort(key=lambda r: r["offered_rate"])
    return rows


def fault_campaign_jobs(
    topology: str,
    size: int,
    runs: int = 4,
    pattern: str = "uniform",
    rate: float = 0.1,
    cycles: int = 4000,
    packet_size: int = 4,
    link_faults: int = 0,
    switch_faults: int = 1,
    transient_bursts: int = 0,
    repair_after: Optional[int] = None,
    seed: int = 1,
    noc_params: Optional[dict] = None,
    tags: Sequence[str] = (),
) -> List[Job]:
    """A robustness campaign: ``runs`` seeded live-fault simulations.

    Run *i* uses seed ``seed + i`` for both its traffic and (via
    :func:`~repro.lab.hashing.derive_seed`) its fault schedule, so every
    run explores a different fault placement yet the whole campaign
    replays byte-identically from the same base seed.
    """
    if topology not in STANDARD_KINDS:
        raise ValueError(
            f"unknown topology {topology!r}; choose from {STANDARD_KINDS}"
        )
    if runs < 1:
        raise ValueError("a campaign needs at least one run")
    base_tags = tuple(tags) + (f"faults:{topology}{size}:{pattern}",)
    params = {
        "topology": topology,
        "size": size,
        "pattern": pattern,
        "rate": rate,
        "cycles": cycles,
        "packet_size": packet_size,
        "link_faults": link_faults,
        "switch_faults": switch_faults,
        "transient_bursts": transient_bursts,
        "repair_after": repair_after,
        "noc_params": noc_params,
    }
    return [
        Job(
            kind="fault_campaign",
            params=dict(params),
            seed=seed + i,
            tags=base_tags,
        )
        for i in range(runs)
    ]


def fault_summary_from_batch(batch: BatchResult) -> dict:
    """Aggregate survival statistics over a finished fault campaign.

    ``runs`` counts the runs that finished; quarantined ones are left out.
    """
    if not any(j.kind == "fault_campaign" for j in batch.jobs):
        raise ValueError("batch contains no fault_campaign jobs")
    results = [r for j, r in batch.succeeded() if j.kind == "fault_campaign"]
    survived = sum(1 for r in results if r["survived"])
    rates = [r["survival_rate"] for r in results if r["survival_rate"] is not None]
    detections = [
        rec["detection_latency"]
        for r in results
        for rec in r["recoveries"]
        if rec["detection_latency"] is not None
    ]
    inflations = [
        r["latency_inflation"]
        for r in results
        if r["latency_inflation"] is not None
    ]
    return {
        "runs": len(results),
        "survived": survived,
        "faults_injected": sum(len(r["faults"]) for r in results),
        "recoveries": sum(len(r["recoveries"]) for r in results),
        "gave_up": sum(1 for r in results if r["gave_up"]),
        "mean_survival_rate": sum(rates) / len(rates) if rates else None,
        "min_survival_rate": min(rates) if rates else None,
        "packets_delivered": sum(r["delivered"] for r in results),
        "packets_lost": sum(r["lost"] for r in results),
        "packets_abandoned_unreachable": sum(
            r["abandoned_unreachable"] for r in results
        ),
        "packets_retransmitted": sum(r["retransmitted"] for r in results),
        "mean_detection_latency": (
            sum(detections) / len(detections) if detections else None
        ),
        "mean_latency_inflation": (
            sum(inflations) / len(inflations) if inflations else None
        ),
    }


def saturation_job(
    topology: str,
    size: int,
    pattern: str = "uniform",
    latency_factor: float = 3.0,
    cycles: int = 1500,
    warmup: int = 250,
    packet_size: int = 4,
    seed: int = 1,
    tolerance: float = 0.02,
    noc_params: Optional[dict] = None,
    tags: Sequence[str] = (),
) -> Job:
    """A single saturation bisection as a cacheable job."""
    if topology not in STANDARD_KINDS:
        raise ValueError(
            f"unknown topology {topology!r}; choose from {STANDARD_KINDS}"
        )
    params = {
        "topology": topology,
        "size": size,
        "pattern": pattern,
        "latency_factor": latency_factor,
        "cycles": cycles,
        "warmup": warmup,
        "packet_size": packet_size,
        "tolerance": tolerance,
        "noc_params": noc_params,
    }
    return Job(
        kind="saturation",
        params=params,
        seed=seed,
        tags=tuple(tags) + (f"saturation:{topology}{size}:{pattern}",),
    )
