"""The metrics probe: periodic sampling of a live simulation.

The probe is the bridge between the simulator's always-on component
counters (``Link.flits_carried``, ``SwitchModel.stall_cycles_by_output``,
``InitiatorNI.injection_stall_cycles``...) and the observability
surfaces: at every sampling boundary it computes per-component deltas
over the window, streams one JSON row per link/switch/NI to a
:class:`~repro.obs.sinks.JsonlMetricsSink`, and folds aggregates into a
:class:`~repro.obs.metrics.MetricRegistry`.

Design constraint (and the reason sampling, not instrumentation, is the
mechanism): with metrics disabled the simulator hot loop runs exactly
the pre-observability code — the only addition is one ``is not None``
test per cycle in :meth:`NocSimulator.step`.  Enabling the probe adds
work only at sampling boundaries, amortized by the interval.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import MetricRegistry

#: Bucket bounds for per-link interval utilization (fractions of cycles).
UTILIZATION_BOUNDS = (0.1, 0.25, 0.5, 0.75, 0.9)

#: Bucket bounds for sampled per-port buffer occupancy (flits).
OCCUPANCY_BOUNDS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0)


class MetricsProbe:
    """Periodic observer of one :class:`~repro.sim.NocSimulator`.

    Attach via :meth:`NocSimulator.enable_metrics`; the simulator calls
    :meth:`on_cycle` once per cycle and the probe decides when a window
    closes.  Call :meth:`finalize` after the run to flush the trailing
    partial window; :meth:`summary` / :meth:`compact_summary` reduce the
    lifetime counters for reports and the lab result store.
    """

    def __init__(
        self,
        sim,
        interval: int = 100,
        registry: Optional[MetricRegistry] = None,
        sink=None,
    ):
        if interval < 1:
            raise ValueError("sampling interval must be >= 1 cycle")
        # The simulator holds its probe, so the probe holds it weakly.
        self._sim = weakref.ref(sim)
        self.interval = interval
        self.registry = registry if registry is not None else MetricRegistry()
        self.sink = sink
        self.samples_taken = 0
        self._window_start = sim.cycle

        # Previous-sample snapshots for delta computation.
        self._link_prev: Dict[Tuple[str, str], Tuple[int, int]] = {
            key: (sim.links[key].flits_carried, sim.links[key].flits_dropped)
            for key in sim._link_order
        }
        self._switch_prev: Dict[str, Tuple[int, int, int]] = {
            name: self._switch_counters(sim.switches[name])
            for name in sim._switch_order
        }
        self._ni_prev: Dict[str, Tuple[int, int]] = {
            name: self._ni_counters(sim.initiators[name])
            for name in sim._initiator_order
        }

        # Lifetime peaks observed at sampling boundaries.
        self.peak_interval_utilization: Dict[Tuple[str, str], float] = {
            key: 0.0 for key in sim._link_order
        }
        self._ni_backlog_peak: Dict[str, int] = {
            name: 0 for name in sim._initiator_order
        }
        self._ni_pending_peak: Dict[str, int] = {
            name: 0 for name in sim._initiator_order
        }
        self._switch_occupancy_peak: Dict[str, int] = {
            name: 0 for name in sim._switch_order
        }

        # Registry aggregates (one row per closed window).
        r = self.registry
        self._m_flits = r.counter("flits_carried")
        self._m_stalls = r.counter("switch_stall_cycles")
        self._m_contention = r.counter("switch_contention_cycles")
        self._m_util_max = r.gauge("link_utilization_max")
        self._m_util_mean = r.gauge("link_utilization_mean")
        self._m_backlog_max = r.gauge("ni_backlog_max")
        self._m_util_hist = r.histogram(
            "link_utilization", UTILIZATION_BOUNDS
        )
        self._m_occ_hist = r.histogram(
            "buffer_occupancy", OCCUPANCY_BOUNDS
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _switch_counters(sw) -> Tuple[int, int, int]:
        return (sw.flits_forwarded, sw.stall_cycles, sw.contention_cycles)

    @staticmethod
    def _ni_counters(ni) -> Tuple[int, int]:
        return (ni.packets_retransmitted, ni.injection_stall_cycles)

    # ------------------------------------------------------------------
    # Driven by the simulator
    # ------------------------------------------------------------------
    @property
    def sim(self):
        """The observed simulator (None once it is gone)."""
        return self._sim()

    def on_cycle(self, cycle: int) -> None:
        """End-of-cycle hook; closes the window at interval boundaries."""
        if cycle + 1 - self._window_start >= self.interval:
            self._sample(cycle + 1)

    def next_sample_cycle(self) -> int:
        """First cycle whose :meth:`on_cycle` closes a window.

        A term of the event kernel's ``EventScheduler.jump_target``:
        window boundaries must land on executed cycles so the sampled
        per-window deltas match the reference kernel byte for byte.
        """
        return self._window_start + self.interval - 1

    def finalize(self) -> dict:
        """Flush the trailing partial window; returns :meth:`summary`."""
        if self.sim.cycle > self._window_start:
            self._sample(self.sim.cycle)
        return self.summary()

    # ------------------------------------------------------------------
    def _sample(self, end: int) -> None:
        """Close the window ``[self._window_start, end)``."""
        sim = self.sim
        window = end - self._window_start
        emit = self.sink.emit if self.sink is not None else None

        utilizations: List[float] = []
        for key in sim._link_order:
            link = sim.links[key]
            prev_carried, prev_dropped = self._link_prev[key]
            carried = link.flits_carried - prev_carried
            dropped = link.flits_dropped - prev_dropped
            self._link_prev[key] = (link.flits_carried, link.flits_dropped)
            util = carried / window
            utilizations.append(util)
            if util > self.peak_interval_utilization[key]:
                self.peak_interval_utilization[key] = util
            self._m_flits.inc(carried)
            self._m_util_hist.observe(util)
            if emit is not None:
                emit(
                    {
                        "cycle": end,
                        "kind": "link",
                        "name": link.name,
                        "window": window,
                        "flits": carried,
                        "utilization": round(util, 6),
                        "busy_cycles_total": link.flits_carried,
                        "dropped": dropped,
                    }
                )

        for name in sim._switch_order:
            sw = sim.switches[name]
            pf, ps, pc = self._switch_prev[name]
            forwarded = sw.flits_forwarded - pf
            stalls = sw.stall_cycles - ps
            contention = sw.contention_cycles - pc
            self._switch_prev[name] = self._switch_counters(sw)
            occupancy = sw.occupancy
            if occupancy > self._switch_occupancy_peak[name]:
                self._switch_occupancy_peak[name] = occupancy
            self._m_stalls.inc(stalls)
            self._m_contention.inc(contention)
            ports = {
                upstream: sw.inputs[upstream].occupancy
                for upstream in sorted(sw.inputs)
            }
            for occ in ports.values():
                self._m_occ_hist.observe(float(occ))
            if emit is not None:
                emit(
                    {
                        "cycle": end,
                        "kind": "switch",
                        "name": name,
                        "window": window,
                        "forwarded": forwarded,
                        "stall_cycles": stalls,
                        "contention_cycles": contention,
                        "occupancy": occupancy,
                        "port_occupancy": ports,
                    }
                )

        backlog_max = 0
        for name in sim._initiator_order:
            ni = sim.initiators[name]
            prev_rt, prev_stall = self._ni_prev[name]
            retransmitted = ni.packets_retransmitted - prev_rt
            inj_stalls = ni.injection_stall_cycles - prev_stall
            self._ni_prev[name] = self._ni_counters(ni)
            backlog = ni.backlog
            pending = ni.pending_transfers
            if backlog > backlog_max:
                backlog_max = backlog
            if backlog > self._ni_backlog_peak[name]:
                self._ni_backlog_peak[name] = backlog
            if pending > self._ni_pending_peak[name]:
                self._ni_pending_peak[name] = pending
            if emit is not None:
                emit(
                    {
                        "cycle": end,
                        "kind": "ni",
                        "name": name,
                        "window": window,
                        "backlog": backlog,
                        "pending_transfers": pending,
                        "retransmitted": retransmitted,
                        "injection_stall_cycles": inj_stalls,
                        "target_backlog": sim.targets[name].backlog,
                    }
                )

        self._m_util_max.set(max(utilizations) if utilizations else 0.0)
        self._m_util_mean.set(
            sum(utilizations) / len(utilizations) if utilizations else 0.0
        )
        self._m_backlog_max.set(backlog_max)
        if emit is not None:
            row = self.registry.row(end)
            row["kind"] = "aggregate"
            row["window"] = window
            emit(row)
        self.samples_taken += 1
        self._window_start = end

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Full lifetime reduction: every link, switch, and NI."""
        sim = self.sim
        cycles = max(1, sim.cycle)
        links = {}
        for key in sim._link_order:
            link = sim.links[key]
            links[link.name] = {
                "busy_cycles": link.flits_carried,
                "utilization": link.flits_carried / cycles,
                "peak_interval_utilization": (
                    self.peak_interval_utilization[key]
                ),
                "flits_dropped": link.flits_dropped,
            }
        switches = {}
        for name in sim._switch_order:
            sw = sim.switches[name]
            switches[name] = {
                "flits_forwarded": sw.flits_forwarded,
                "stall_cycles": sw.stall_cycles,
                "contention_cycles": sw.contention_cycles,
                "contention_losers": sw.contention_losers,
                "lock_hold_cycles": sw.lock_hold_cycles,
                "locks_taken": sw.locks_taken,
                "mean_lock_hold_cycles": sw.mean_lock_hold_cycles,
                "peak_buffer_occupancy": max(
                    (p.peak_occupancy for p in sw.inputs.values()), default=0
                ),
            }
        nis = {}
        for name in sim._initiator_order:
            ni = sim.initiators[name]
            nis[name] = {
                "packets_injected": ni.packets_injected,
                "injection_stall_cycles": ni.injection_stall_cycles,
                "packets_retransmitted": ni.packets_retransmitted,
                "peak_backlog": self._ni_backlog_peak[name],
                "peak_pending_transfers": self._ni_pending_peak[name],
            }
        return {
            "cycles": sim.cycle,
            "interval": self.interval,
            "samples": self.samples_taken,
            "links": links,
            "switches": switches,
            "nis": nis,
        }

    def compact_summary(self, top: int = 5) -> dict:
        """Small, store-friendly reduction (for lab sweep records)."""
        full = self.summary()
        links = full["links"]
        ranked = sorted(
            links.items(), key=lambda kv: (-kv[1]["busy_cycles"], kv[0])
        )
        utilizations = [v["utilization"] for v in links.values()]
        return {
            "cycles": full["cycles"],
            "interval": full["interval"],
            "samples": full["samples"],
            "peak_link_utilization": max(utilizations, default=0.0),
            "mean_link_utilization": (
                sum(utilizations) / len(utilizations) if utilizations else 0.0
            ),
            "top_links": [
                {
                    "link": name,
                    "busy_cycles": v["busy_cycles"],
                    "utilization": v["utilization"],
                }
                for name, v in ranked[:top]
            ],
            "total_stall_cycles": sum(
                s["stall_cycles"] for s in full["switches"].values()
            ),
            "total_contention_cycles": sum(
                s["contention_cycles"] for s in full["switches"].values()
            ),
            "max_ni_peak_backlog": max(
                (n["peak_backlog"] for n in full["nis"].values()), default=0
            ),
            "packets_retransmitted": sum(
                n["packets_retransmitted"] for n in full["nis"].values()
            ),
        }
