"""In-memory span tracer installed around the public calls of each layer.

The benchmark measures end-to-end metrics with no tracer installed.  A
separate traced run patches wrappers onto the layer boundaries named in
``README.md`` (class attributes and module functions of ``repro``), runs
the workload once more, and removes the wrappers again.

Two kinds of wrapper share one call stack:

* **spans** (coarse calls: topology builds, simulator runs, jobs, cache
  calls, flow stages) are kept as ``(name, start, end, parent, run_id)``
  records and written out when the benchmark ends;
* **hot calls** (per-cycle component ticks, link sends, stats records)
  fold into per-name totals only.  A 16x16 run makes millions of them,
  and one record each would cost more memory than the simulation.

Both kinds feed the same per-name totals of calls, time and self time.
A call's self time is its duration minus the time of the wrapped calls
it made.  A call whose caller is the same wrapped name (a subclass
``tick`` calling ``super().tick``) is not counted twice.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Dict, List, Optional


class Tracer:
    """Wrappers, the call stack they share, spans and per-name totals."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.origin = time.perf_counter()
        #: ``[name, start_s, end_s, parent_index, run_id]``; times are
        #: seconds since the tracer was created.
        self.spans: List[list] = []
        #: name -> ``[calls, total_s, self_s]``
        self.totals: Dict[str, list] = {}
        #: name -> free-form counters (cycles, flits, bytes, ...)
        self.counts: Dict[str, float] = {}
        # Frames: [name, start, child_s, span_index or None].
        self._stack: List[list] = []
        self._patches: List[tuple] = []

    # -- recording ------------------------------------------------------
    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def total(self, name: str) -> list:
        return self.totals.setdefault(name, [0, 0.0, 0.0])

    def span_wrapper(self, name: str, fn: Callable) -> Callable:
        name = sys.intern(name)  # the nesting test compares by identity
        totals = self.total(name)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        origin = self.origin
        run_id = self.run_id

        def traced(*args, **kwargs):
            if stack and stack[-1][0] is name:
                return fn(*args, **kwargs)
            parent = None
            for frame in reversed(stack):
                if frame[3] is not None:
                    parent = frame[3]
                    break
            index = len(spans)
            spans.append([name, 0.0, 0.0, parent, run_id])
            frame = [name, clock(), 0.0, index]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                if stack[-1] is frame:
                    stack.pop()
                else:  # another thread's call ended in between
                    stack.remove(frame)
                dur = end - frame[1]
                spans[index][1] = frame[1] - origin
                spans[index][2] = end - origin
                totals[0] += 1
                totals[1] += dur
                totals[2] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur

        traced.__wrapped__ = fn
        return traced

    def hot_wrapper(self, name: str, fn: Callable) -> Callable:
        name = sys.intern(name)  # the nesting test compares by identity
        totals = self.total(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if stack and stack[-1][0] is name:
                return fn(*args, **kwargs)
            frame = [name, clock(), 0.0, None]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - frame[1]
                stack.pop()
                totals[0] += 1
                totals[1] += dur
                totals[2] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur

        traced.__wrapped__ = fn
        return traced

    # -- patching -------------------------------------------------------
    def patch(self, owner, attr: str, name: str, hot: bool = False,
              wrap: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` (own attribute only) with a wrapper.

        ``wrap(tracer, original)`` builds a custom wrapper; by default a
        span (or, with ``hot``, a totals-only) wrapper named ``name``.
        Attributes ``owner`` only inherits are left alone: the class that
        defines them is patched instead.
        """
        if attr not in vars(owner):
            return
        original = vars(owner)[attr]
        if isinstance(original, property):
            replacement = property(self.span_wrapper(name, original.fget))
        elif wrap is not None:
            replacement = wrap(self, original)
        elif hot:
            replacement = self.hot_wrapper(name, original)
        else:
            replacement = self.span_wrapper(name, original)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading --------------------------------------------------------
    def calls(self, name: str) -> int:
        return self.totals.get(name, [0, 0.0, 0.0])[0]

    def seconds(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[1]

    def self_seconds(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[2]

    def to_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "spans": [
                {"name": n, "start_s": round(a, 6), "end_s": round(b, 6),
                 "parent": p, "run_id": r}
                for n, a, b, p, r in self.spans
            ],
            "totals": {
                name: {"calls": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in sorted(self.totals.items())
            },
            "counts": dict(sorted(self.counts.items())),
        }


# ----------------------------------------------------------------------
# The layer boundaries
# ----------------------------------------------------------------------
def _sim_run_wrapper(tracer: Tracer, original: Callable) -> Callable:
    """``NocSimulator.run`` as a span that also counts simulated cycles."""
    span = tracer.span_wrapper("sim.run", original)

    def run(sim, *args, **kwargs):
        cycle, skipped = sim.cycle, sim.cycles_skipped
        try:
            return span(sim, *args, **kwargs)
        finally:
            advanced = sim.cycle - cycle
            tracer.count("sim.cycles", advanced)
            tracer.count(
                "sim.executed_cycles", advanced - (sim.cycles_skipped - skipped)
            )

    return run


def _record_packet_wrapper(tracer: Tracer, original: Callable) -> Callable:
    """``StatsCollector.record_packet`` plus a delivered-flit count.

    The simulator hands every packet a target receives to
    ``record_packet`` (which then drops warmup packets), so the flit
    count here is everything the network delivered.
    """
    hot = tracer.hot_wrapper("stats.record", original)

    def record_packet(stats, packet, arrival_cycle):
        tracer.counts["arch.flits_delivered"] = (
            tracer.counts.get("arch.flits_delivered", 0) + packet.size_flits
        )
        return hot(stats, packet, arrival_cycle)

    return record_packet


def install_library(tracer: Tracer) -> None:
    """Wrap the topology, sim, arch, resilience, lab and core layers."""
    import repro.core.flow as flow
    import repro.core.synthesis as synthesis
    import repro.lab.executor as executor
    import repro.resilience.checkpoint as checkpoint
    import repro.topology.presets as presets
    from repro.arch.link import AckNackLink, CreditLink, Link, OnOffLink
    from repro.arch.network_interface import InitiatorNI, TargetNI
    from repro.arch.switch import SwitchModel
    from repro.core.evaluate import DesignEvaluator
    from repro.core.sweep import DesignSpaceExplorer
    from repro.core.synthesis import TopologySynthesizer
    from repro.physical.floorplan import IncrementalFloorplanner
    from repro.sim.simulator import NocSimulator
    from repro.sim.stats import StatsCollector
    from repro.sim.traffic import FlowGraphTraffic, SyntheticTraffic

    p = tracer.patch
    # topology / sim
    p(presets, "standard_instance", "topology.instance")
    p(NocSimulator, "__init__", "sim.build")
    p(NocSimulator, "run", "sim.run", wrap=_sim_run_wrapper)
    # arch: per-cycle component work
    p(SwitchModel, "tick", "arch.switch.tick", hot=True)
    for cls in (Link, CreditLink, OnOffLink, AckNackLink):
        p(cls, "tick", "arch.link.tick", hot=True)
        p(cls, "send", "arch.link.send", hot=True)
    p(InitiatorNI, "tick", "arch.ni.tick", hot=True)
    p(TargetNI, "tick", "arch.ni.tick", hot=True)
    p(SyntheticTraffic, "tick", "traffic.tick", hot=True)
    p(FlowGraphTraffic, "tick", "traffic.tick", hot=True)
    p(StatsCollector, "record_packet", "stats.record", wrap=_record_packet_wrapper)
    # resilience
    p(checkpoint, "snapshot_simulator", "resilience.ckpt_save")
    p(checkpoint, "restore_simulator", "resilience.ckpt_restore")
    # lab
    p(executor, "run_job", "lab.run_job")
    install_lab(tracer)
    # core + physical: the Fig. 6 flow
    p(DesignSpaceExplorer, "explore", "core.explore")
    p(TopologySynthesizer, "synthesize", "core.synthesize")
    p(synthesis, "map_cores", "core.map_cores")
    p(IncrementalFloorplanner, "place", "physical.floorplan_place")
    p(DesignEvaluator, "evaluate", "core.evaluate")
    p(flow, "generate_netlist", "core.netlist")
    p(flow, "verify_design", "core.verify")


def install_lab(tracer: Tracer) -> None:
    """Wrap only the lab calls a job server makes in its own process."""
    from repro.lab.cache import ResultCache
    from repro.lab.jobs import Job

    tracer.patch(Job, "key", "lab.job_key")
    tracer.patch(ResultCache, "get", "lab.cache_get")
    tracer.patch(ResultCache, "put", "lab.cache_put")


def install_client(tracer: Tracer) -> None:
    """Wrap the serve client calls the load generator makes."""
    from repro.serve.client import ServeClient

    for attr in ("health", "submit", "status", "stats"):
        tracer.patch(ServeClient, attr, f"serve.client.{attr}")
