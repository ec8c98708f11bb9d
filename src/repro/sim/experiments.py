"""Reusable simulation experiments: load sweeps and saturation search.

The standard NoC evaluation methodology (the axis of every
latency/throughput figure in the literature the paper surveys) packaged
as library calls:

* :func:`load_latency_curve` — mean/p95 latency and accepted throughput
  across an injection-rate sweep;
* :func:`saturation_throughput` — the classic saturation point (where
  latency exceeds a multiple of its zero-load value), found by
  bisection.

Every stochastic run takes an explicit ``seed`` and is fully
deterministic under it: identical seeds reproduce identical
:class:`LoadPoint` values field-for-field (the property the
:mod:`repro.lab` content-addressed cache relies on).  To fan a load
sweep's independent rate points out over worker processes, run its
:func:`repro.lab.load_curve_jobs` through :func:`repro.lab.run_jobs`
with ``workers`` > 1 — results are byte-identical to this serial path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.arch.parameters import DEFAULT_PARAMETERS, NocParameters
from repro.sim.simulator import NocSimulator
from repro.sim.traffic import SyntheticTraffic
from repro.topology.graph import RoutingTable, Topology


@dataclass(frozen=True)
class LoadPoint:
    """One point of a load-latency curve."""

    offered_rate: float       # flits/cycle/core
    accepted_rate: float      # flits/cycle/core, measured
    mean_latency: float
    p95_latency: float
    packets: int


def _run_point(
    topology: Topology,
    table: RoutingTable,
    params: NocParameters,
    vc_assignment,
    pattern: str,
    rate: float,
    cycles: int,
    warmup: int,
    packet_size: int,
    seed: int,
    kernel: str = "event",
    on_sim=None,
) -> Optional[LoadPoint]:
    sim = NocSimulator(
        topology, table, params, vc_assignment=vc_assignment,
        warmup_cycles=warmup, kernel=kernel,
    )
    if on_sim is not None:
        # Observability hook: attach read-only instrumentation (e.g. a
        # repro.obs.MetricsProbe) without forking the simulation path.
        on_sim(sim)
    traffic = SyntheticTraffic(pattern, rate, packet_size, seed=seed)
    sim.run(cycles, traffic)
    if sim.stats.packets_delivered == 0:
        return None
    latency = sim.stats.latency()
    cores = len(topology.cores)
    return LoadPoint(
        offered_rate=rate,
        accepted_rate=sim.stats.throughput_flits_per_cycle(cycles - warmup)
        / cores,
        mean_latency=latency.mean,
        p95_latency=latency.p95,
        packets=sim.stats.packets_delivered,
    )


def load_latency_curve(
    topology: Topology,
    table: RoutingTable,
    rates: Sequence[float],
    params: NocParameters = DEFAULT_PARAMETERS,
    vc_assignment=None,
    pattern: str = "uniform",
    cycles: int = 1500,
    warmup: int = 250,
    packet_size: int = 4,
    seed: int = 1,
    kernel: str = "event",
) -> List[LoadPoint]:
    """The latency/throughput curve across an injection-rate sweep.

    Each rate point is an independent simulation, run in order; rates
    without a delivered packet are left out.  ``kernel`` selects the
    simulation kernel per point (results are identical; the event kernel
    just reaches each point sooner).
    """
    if not rates:
        raise ValueError("need at least one rate")
    if any(not 0.0 < r <= 1.0 for r in rates):
        raise ValueError("rates must be in (0, 1]")
    maybe_points = [
        _run_point(topology, table, params, vc_assignment, pattern, rate,
                   cycles, warmup, packet_size, seed, kernel)
        for rate in rates
    ]
    return [p for p in maybe_points if p is not None]


def saturation_throughput(
    topology: Topology,
    table: RoutingTable,
    params: NocParameters = DEFAULT_PARAMETERS,
    vc_assignment=None,
    pattern: str = "uniform",
    latency_factor: float = 3.0,
    cycles: int = 1500,
    warmup: int = 250,
    packet_size: int = 4,
    seed: int = 1,
    tolerance: float = 0.02,
    kernel: str = "event",
) -> float:
    """Saturation injection rate (flits/cycle/core) by bisection.

    Saturation is declared where mean latency exceeds ``latency_factor``
    times the zero-load latency (measured at 2% injection) — the
    conventional knee definition.
    """
    if latency_factor <= 1.0:
        raise ValueError("latency factor must exceed 1.0")
    base = _run_point(
        topology, table, params, vc_assignment, pattern, 0.02,
        cycles, warmup, packet_size, seed, kernel,
    )
    if base is None:
        raise RuntimeError("no packets delivered at the probe rate")
    threshold = base.mean_latency * latency_factor

    lo, hi = 0.02, 1.0
    point_hi = _run_point(
        topology, table, params, vc_assignment, pattern, hi,
        cycles, warmup, packet_size, seed, kernel,
    )
    if point_hi is not None and point_hi.mean_latency < threshold:
        return hi  # never saturates within the sweepable range
    while hi - lo > tolerance:
        mid = (lo + hi) / 2.0
        point = _run_point(
            topology, table, params, vc_assignment, pattern, mid,
            cycles, warmup, packet_size, seed, kernel,
        )
        if point is not None and point.mean_latency < threshold:
            lo = mid
        else:
            hi = mid
    return lo
