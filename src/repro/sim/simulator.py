"""The cycle-accurate NoC simulator.

Builds the component models of :mod:`repro.arch` from a
:class:`repro.topology.Topology` plus a routing table, then advances
them cycle by cycle with a deterministic two-phase schedule:

1. switches arbitrate and forward (at most one flit per output link);
2. initiator NIs inject (one flit per NI);
3. links deliver flits whose traversal completes, and sample buffer
   state for ON/OFF backpressure;
4. target NIs drain, complete packets, and issue responses.

Every send at cycle ``c`` lands no earlier than ``c + link delay``, so a
flit advances at most one hop per cycle — the standard wormhole timing
the paper's components implement.

This simulator is the stand-in for the authors' RTL/SystemC models (see
DESIGN.md): slower but behaviourally equivalent at flit granularity,
which is the level all the reproduced claims live at.

Two run kernels share the per-cycle semantics of ``step()``:

* ``kernel="reference"`` — execute every cycle, one ``step()`` per tick;
  the oracle the differential tests compare against;
* ``kernel="event"`` (the default) — components *post wakeups* instead
  of being polled: an :class:`repro.sim.event_wheel.EventScheduler`
  keeps active sets plus a bucketed delivery wheel, each executed cycle
  ticks only the components with pending work (in the reference
  kernel's sorted phase order), and when the network is fully quiescent
  the clock jumps straight to the earliest cycle at which any traffic
  generator, in-flight link pipeline, NI retransmission timer, pending
  response, fault-schedule entry, recovery controller or metrics window
  can act.  Traffic lookahead buffers its draws for verbatim replay.

Both are byte-identical in stats, traces and recovery accounting
(``tests/sim/test_kernel_equivalence.py`` enforces this over a
configuration matrix).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.arch.link import AckNackLink, Link, make_link
from repro.arch.network_interface import (
    InitiatorNI,
    RetransmissionPolicy,
    RoutingLut,
    TargetNI,
)
from repro.arch.packet import MessageClass, Packet
from repro.arch.parameters import DEFAULT_PARAMETERS, NocParameters
from repro.arch.switch import SwitchModel
from repro.reliability.faults import FaultScenario, reconfigure_routing
from repro.topology.graph import NodeKind, RoutingTable, Topology
from repro.sim.stats import StatsCollector

#: Valid ``NocSimulator(kernel=...)`` selectors.
KERNELS = ("reference", "event")


def _check_kernel(kernel: str) -> None:
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}; choose from {KERNELS}")


class DrainTimeoutError(RuntimeError):
    """The network failed to drain: deadlock, or traffic stuck on faults.

    Carries a census of where the in-flight state sits, so the caller
    (or a test) can tell a routing deadlock from a slow drain or a
    fault-stranded flow without poking at simulator internals.
    """

    def __init__(
        self,
        message: str,
        *,
        cycle: int,
        ni_backlog: Dict[str, int],
        pending_transfers: Dict[str, int],
        busy_links: List[str],
        switch_occupancy: Dict[str, int],
        target_backlog: Dict[str, int],
    ):
        super().__init__(message)
        self.cycle = cycle
        self.ni_backlog = ni_backlog
        self.pending_transfers = pending_transfers
        self.busy_links = busy_links
        self.switch_occupancy = switch_occupancy
        self.target_backlog = target_backlog

    @property
    def flits_stuck(self) -> int:
        """Flits sitting in links, switches and ejection buffers."""
        return (
            len(self.busy_links)
            + sum(self.switch_occupancy.values())
            + sum(self.target_backlog.values())
        )


@dataclass(frozen=True)
class RecoveryOutcome:
    """What one live reconfiguration did to the running network."""

    routes_changed: int
    packets_purged: int
    transfers_abandoned: int


class NocSimulator:
    """Instantiate and drive one NoC configuration.

    Parameters
    ----------
    topology:
        The network structure (with per-link pipeline annotations).
    routing_table:
        Source routes for every communicating core pair.
    params:
        Architectural parameters (flit width, buffers, flow control...).
    vc_assignment:
        Optional per-route VC indices (rings/tori), as produced by
        :func:`repro.topology.routing.dateline_vc_assignment`.
    warmup_cycles:
        Packets injected before this cycle are excluded from statistics.
    kernel:
        ``"event"`` (default) schedules only components with posted
        wakeups and jumps over quiescent stretches (see
        :mod:`repro.sim.event_wheel`); ``"reference"`` executes every
        cycle.  Results are byte-identical across both.
    """

    def __init__(
        self,
        topology: Topology,
        routing_table: RoutingTable,
        params: NocParameters = DEFAULT_PARAMETERS,
        vc_assignment: Optional[Dict[Tuple[str, str], Sequence[int]]] = None,
        warmup_cycles: int = 0,
        link_error_probability: float = 0.0,
        kernel: str = "event",
    ):
        _check_kernel(kernel)
        self.topology = topology
        self.routing_table = routing_table
        self.params = params
        self.link_error_probability = link_error_probability
        self.kernel = kernel
        self.cycle = 0
        self.cycles_skipped = 0  # idle cycles the event kernel jumped over
        self.stats = StatsCollector(warmup_cycles=warmup_cycles)

        self.switches: Dict[str, SwitchModel] = {}
        self.links: Dict[Tuple[str, str], Link] = {}
        self.initiators: Dict[str, InitiatorNI] = {}
        self.targets: Dict[str, TargetNI] = {}

        # Live fault-injection layer (all optional; see repro.sim.faults).
        self._fault_schedule = None
        self._corruption_rng: Optional[random.Random] = None
        self._retransmission: Optional[RetransmissionPolicy] = None
        self._controller = None
        self._recorder = None  # TraceRecorder, when tracing is enabled
        self._obs = None  # MetricsProbe, when metrics are enabled
        # Memory attachments by core: (service_cycles, response_flits).
        # Recorded so a checkpoint restore can rebuild the responder
        # closures attach_memory() installs (closures don't pickle).
        self._memory_attachments: Dict[str, Tuple[int, int]] = {}

        # ``_skip_hook`` is an optional ``f(from_cycle, to_cycle)``
        # callback the invariant tests use to audit every clock jump.
        self._skip_hook: Optional[Callable[[int, int], None]] = None

        # Event-kernel scheduler (built lazily by the first event-kernel
        # run; see repro.sim.event_wheel).  Its entire state is derived
        # from component state, so it is excluded from checkpoints and
        # rebuilt on restore.  ``_event_audit`` is an optional per-
        # executed-cycle ``f(cycle)`` callback the invariant tests use
        # to assert no wakeup was lost.
        self._event_sched = None
        self._event_audit: Optional[Callable[[int], None]] = None

        self._build(vc_assignment)
        self._switch_order = sorted(self.switches)
        self._initiator_order = sorted(self.initiators)
        self._target_order = sorted(self.targets)
        self._link_order = sorted(self.links)
        # Flat per-topology component sequences: the hot path iterates
        # these tuples instead of re-resolving dict keys every cycle.
        # Component objects are never replaced after construction (fault
        # injection mutates them in place), so the views stay valid.
        self._switch_seq = tuple(self.switches[n] for n in self._switch_order)
        self._initiator_seq = tuple(
            self.initiators[n] for n in self._initiator_order
        )
        self._initiator_items = tuple(
            (n, self.initiators[n]) for n in self._initiator_order
        )
        self._target_seq = tuple(self.targets[n] for n in self._target_order)
        self._link_seq = tuple(self.links[k] for k in self._link_order)
        for sw in self._switch_seq:
            sw.finalize_wiring()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self, vc_assignment) -> None:
        topo = self.topology
        for sw in topo.switches:
            self.switches[sw] = SwitchModel(sw, self.params)
        for core in topo.cores:
            lut = RoutingLut()
            for dst in topo.cores:
                if dst == core or not self.routing_table.has_route(core, dst):
                    continue
                route = self.routing_table.route(core, dst)
                vcs = None
                if vc_assignment is not None:
                    raw = vc_assignment.get((core, dst))
                    vcs = tuple(raw) if raw is not None else None
                lut.set(dst, route.path, vcs)
            self.initiators[core] = InitiatorNI(core, self.params, lut)
            self.targets[core] = TargetNI(core, self.params)
            self.targets[core].response_ni = self.initiators[core]

        for src, dst in topo.links:
            delay = topo.link_attrs(src, dst).delay_cycles
            link = make_link(
                f"{src}->{dst}", delay, self.params,
                flit_error_probability=self.link_error_probability,
            )
            self.links[(src, dst)] = link
            if topo.kind(dst) is NodeKind.SWITCH:
                port = self.switches[dst].add_input(src, link)
                link.connect(port)
            else:
                link.connect(self.targets[dst])
                self.targets[dst].register_ejection_link(src, link)
            if topo.kind(src) is NodeKind.SWITCH:
                self.switches[src].add_output(dst, link)
            else:
                # Core-side injection: first (or only) attachment wins; a
                # multi-homed core injects on the link its route starts with.
                self.initiators[src].connect(link)

        # Multi-attached cores: routes may start on different links; give
        # the initiator a dispatcher that picks the right one per flit.
        for core in topo.cores:
            out_links = [
                self.links[(core, sw)]
                for sw in topo.attached_switches(core)
                if (core, sw) in self.links
            ]
            if len(out_links) > 1:
                self.initiators[core].connect(_MultiHomedLink(core, out_links))

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def inject(
        self,
        source: str,
        destination: str,
        size_flits: int,
        cycle: Optional[int] = None,
        message_class: MessageClass = MessageClass.BEST_EFFORT,
        connection_id: Optional[int] = None,
        payload: Optional[object] = None,
    ) -> Optional[Packet]:
        """Queue one packet at the source NI (at the current cycle).

        When the fault layer is active a destination may legitimately
        have no route (its switch died and recovery dropped it from the
        LUTs): the injection is then counted and discarded rather than
        raised, since traffic generators cannot know the live topology.
        """
        ni = self.initiators.get(source)
        if ni is None:
            raise KeyError(f"unknown source core {source!r}")
        try:
            packet = ni.send(
                destination,
                size_flits,
                self.cycle if cycle is None else cycle,
                message_class=message_class,
                connection_id=connection_id,
                payload=payload,
            )
        except KeyError:
            if self._fault_schedule is None and self._controller is None:
                raise
            self.stats.unroutable_injections += 1
            return None
        self.stats.flits_injected += size_flits
        return packet

    def enable_tracing(self, recorder) -> None:
        """Attach a :class:`repro.sim.tracing.TraceRecorder`.

        Every injection, switch forwarding, and delivery event is logged
        (up to the recorder's cap) for path reconstruction and debug.
        """
        from repro.sim.tracing import TraceEventKind

        self._recorder = recorder
        for name, ni in self.initiators.items():
            ni.trace = (
                lambda cycle, flit, _n=name: recorder.record(
                    cycle, TraceEventKind.INJECT, _n, flit
                )
            )
        for name, sw in self.switches.items():
            sw.trace = (
                lambda cycle, flit, _n=name: recorder.record(
                    cycle, TraceEventKind.FORWARD, _n, flit
                )
            )
        for name, target in self.targets.items():
            target.trace = (
                lambda cycle, flit, _n=name: recorder.record(
                    cycle, TraceEventKind.DELIVER, _n, flit
                )
            )

    def enable_metrics(
        self, interval: int = 100, registry=None, sink=None
    ):
        """Attach a :class:`repro.obs.MetricsProbe` and return it.

        The probe samples the always-on component counters every
        ``interval`` cycles, streaming per-link/switch/NI rows to
        ``sink`` (a :class:`repro.obs.JsonlMetricsSink`) when one is
        given.  With no probe attached the hot loop pays exactly one
        ``is not None`` test per cycle, and simulation results are
        identical either way — the probe only reads.
        """
        from repro.obs.probe import MetricsProbe

        self._obs = MetricsProbe(
            self, interval=interval, registry=registry, sink=sink
        )
        return self._obs

    def disable_metrics(self) -> None:
        """Detach the metrics probe (its summaries remain usable)."""
        self._obs = None

    def attach_memory(
        self,
        core: str,
        service_cycles: int = 4,
        default_response_flits: int = 4,
    ) -> None:
        """Turn ``core`` into a memory/slave model.

        Arriving REQUEST packets produce RESPONSE packets back to the
        requester after ``service_cycles`` of access latency.  OCP
        transactions (packets whose payload is an
        :class:`repro.arch.ocp.OcpTransaction`) size their responses per
        the protocol (reads return the burst, writes an ack); other
        requests get ``default_response_flits``.
        """
        target = self.targets.get(core)
        if target is None:
            raise KeyError(f"unknown core {core!r}")
        ni = self.initiators[core]
        self._memory_attachments[core] = (
            service_cycles, default_response_flits
        )

        def responder(request: Packet, cycle: int) -> Optional[Packet]:
            from repro.arch.ocp import OcpTransaction, make_response_packet

            if request.source not in ni.lut:
                return None  # requester severed by a fault: drop the reply
            route, vc_path = ni.lut.lookup(request.source)
            if isinstance(request.payload, OcpTransaction):
                response = make_response_packet(
                    request, route, self.params, cycle, vc_path
                )
            else:
                response = Packet(
                    source=core,
                    destination=request.source,
                    size_flits=default_response_flits,
                    route=route,
                    injection_cycle=cycle,
                    message_class=MessageClass.RESPONSE,
                    vc_path=vc_path,
                    payload=request.payload,
                )
            self.stats.flits_injected += response.size_flits
            return response

        target.set_responder(responder, service_cycles=service_cycles)

    # ------------------------------------------------------------------
    # Checkpointing (see repro.resilience.checkpoint)
    # ------------------------------------------------------------------
    def __getstate__(self):
        """Pickle the full simulation state minus observation hooks.

        Observation (trace recorder, metrics probe, skip-audit hook) is
        read-only by contract — attaching it never changes results — so
        it stays out of the capsule; the host re-attaches after restore.
        Everything that *determines* results (component state, in-flight
        flits, RNG streams, fault/recovery state, stats) travels.
        """
        state = self.__dict__.copy()
        state["_recorder"] = None
        state["_obs"] = None
        state["_skip_hook"] = None
        # The event scheduler's wheel and active sets are fully derived
        # from component state; the restored simulator rebuilds them
        # (EventScheduler.rescan) for byte-identical continuation.
        state["_event_sched"] = None
        state["_event_audit"] = None
        return state

    def __setstate__(self, state):
        _check_kernel(state["kernel"])
        self.__dict__.update(state)
        # Component __getstate__ hooks dropped the cross-object wiring;
        # rebuild it from the durable attachment records.
        if self._controller is not None:
            for ni in self.initiators.values():
                ni.on_timeout = self._controller.note_timeout
                ni.on_ack = self._controller.note_ack
        for core, (service, flits) in list(self._memory_attachments.items()):
            self.attach_memory(
                core, service_cycles=service, default_response_flits=flits
            )

    def snapshot(self, traffic=None) -> bytes:
        """Serialize this simulator (and optionally its traffic source)
        into a versioned, checksummed state capsule.

        The capsule captures everything the next cycle depends on —
        component state, in-flight flits, RNG streams, fault schedule
        position, recovery-controller state, statistics, and the global
        packet-id watermark — so :meth:`restore` in a fresh process
        continues byte-identically.  Observation attachments (tracing,
        metrics) are excluded by design; re-attach them after restore.
        """
        from repro.resilience.checkpoint import snapshot_simulator

        return snapshot_simulator(self, traffic)

    @staticmethod
    def restore(capsule: bytes) -> Tuple["NocSimulator", object]:
        """Rebuild a simulator (and its traffic source) from a capsule.

        Returns ``(simulator, traffic)``; ``traffic`` is ``None`` when
        the snapshot was taken without one.  Raises
        :class:`repro.resilience.CheckpointCorruptError` on checksum or
        format damage and :class:`repro.resilience.CheckpointVersionError`
        on a capsule from an incompatible library version.
        """
        from repro.resilience.checkpoint import restore_simulator

        return restore_simulator(capsule)

    def step(self) -> None:
        """Advance one clock cycle."""
        c = self.cycle
        if self._fault_schedule is not None:
            self._apply_due_faults(c)
        for sw in self._switch_seq:
            sw.tick(c)
        for ni in self._initiator_seq:
            ni.tick(c)
        for link in self._link_seq:
            link.tick(c)
        record_packet = self.stats.record_packet
        for target in self._target_seq:
            received = target.packets_received
            before = len(received)
            target.tick(c)
            if len(received) != before:
                for packet, arrival in received[before:]:
                    record_packet(packet, arrival)
        if self._retransmission is not None:
            for name, ni in self._initiator_items:
                before_rt = ni.packets_retransmitted
                ni.check_timeouts(c)
                if self._recorder is not None and (
                    ni.packets_retransmitted > before_rt
                ):
                    from repro.sim.tracing import TraceEventKind

                    self._recorder.record_note(
                        c,
                        TraceEventKind.RETRANSMIT,
                        name,
                        f"{ni.packets_retransmitted - before_rt} transfer(s)",
                    )
        if self._controller is not None:
            self._controller.tick(c)
        if self._obs is not None:
            self._obs.on_cycle(c)
        self.cycle += 1

    def run(
        self,
        cycles: int,
        traffic=None,
        drain: bool = False,
        max_drain_cycles: int = 50_000,
    ) -> StatsCollector:
        """Run ``cycles`` cycles, then optionally drain in-flight traffic."""
        if cycles < 0:
            raise ValueError("cycles must be non-negative")
        if self.kernel == "event":
            return self._run_event(cycles, traffic, drain, max_drain_cycles)
        for __ in range(cycles):
            if traffic is not None:
                traffic.tick(self.cycle, self)
            self.step()
        if drain:
            drained = 0
            while not self.idle and drained < max_drain_cycles:
                self.step()
                drained += 1
            if not self.idle:
                raise self._drain_timeout_error(max_drain_cycles)
        return self.stats

    # ------------------------------------------------------------------
    # Event kernel: components post wakeups instead of being polled
    # ------------------------------------------------------------------
    def _run_event(
        self, cycles: int, traffic, drain: bool, max_drain_cycles: int
    ) -> StatsCollector:
        """The ``kernel="event"`` run loop.

        Each executed cycle replays the reference :meth:`step` phases on
        the scheduler's active subsets only (in the same sorted order);
        fully quiescent stretches jump to the next timed wakeup.  The
        scheduler is rebuilt from component state at every entry, so
        mutations between runs (direct injection, checkpoint restore,
        attachment changes) are always picked up.
        """
        from repro.sim.event_wheel import EventScheduler

        if self._event_sched is None:
            self._event_sched = EventScheduler(self)
        else:
            self._event_sched.rescan()
        sched = self._event_sched
        end = self.cycle + cycles
        while self.cycle < end:
            if sched.quiescent():
                target = sched.jump_target(traffic, end)
                if target is not None:
                    self._skip_to(target)
                    continue
            if traffic is not None:
                traffic.tick(self.cycle, self)
            sched.execute_cycle(self.cycle)
        if drain:
            end = self.cycle + max_drain_cycles
            while not self.idle and self.cycle < end:
                if sched.quiescent():
                    target = sched.jump_target(None, end)
                    if target is not None:
                        self._skip_to(target)
                        continue
                sched.execute_cycle(self.cycle)
            if not self.idle:
                raise self._drain_timeout_error(max_drain_cycles)
        return self.stats

    def _skip_to(self, target: int) -> None:
        """Jump the clock over ``[cycle, target)`` — all provably inert."""
        elapsed = target - self.cycle
        if self._skip_hook is not None:
            self._skip_hook(self.cycle, target)
        for link in self._link_seq:
            link.on_idle_skip(elapsed)
        self.cycles_skipped += elapsed
        self.cycle = target

    def _drain_timeout_error(self, max_drain_cycles: int) -> DrainTimeoutError:
        return DrainTimeoutError(
            f"network failed to drain within {max_drain_cycles} cycles "
            "(possible deadlock — check the routing table with "
            "repro.topology.deadlock; the exception carries an "
            "in-flight census)",
            cycle=self.cycle,
            ni_backlog={
                name: ni.backlog
                for name, ni in sorted(self.initiators.items())
                if ni.backlog
            },
            pending_transfers={
                name: ni.pending_transfers
                for name, ni in sorted(self.initiators.items())
                if ni.pending_transfers
            },
            busy_links=[
                self.links[key].name
                for key in self._link_order
                if self.links[key].busy
            ],
            switch_occupancy={
                name: self.switches[name].occupancy
                for name in self._switch_order
                if self.switches[name].occupancy
            },
            target_backlog={
                name: t.backlog
                for name, t in sorted(self.targets.items())
                if t.backlog
            },
        )

    # ------------------------------------------------------------------
    @property
    def idle(self) -> bool:
        """No traffic anywhere, and no transfer awaiting its end-to-end ack."""
        return (
            all(ni.backlog == 0 for ni in self.initiators.values())
            and all(
                ni.pending_transfers == 0 for ni in self.initiators.values()
            )
            and all(not link.busy for link in self.links.values())
            and all(sw.occupancy == 0 for sw in self.switches.values())
            and all(t.idle for t in self.targets.values())
        )

    # ------------------------------------------------------------------
    # Live fault injection and online recovery (see repro.sim.faults)
    # ------------------------------------------------------------------
    def enable_retransmission(
        self, policy: Optional[RetransmissionPolicy] = None
    ) -> RetransmissionPolicy:
        """Turn on NI-level end-to-end retransmission on every initiator."""
        policy = policy if policy is not None else RetransmissionPolicy()
        self._retransmission = policy
        for ni in self.initiators.values():
            ni.retransmission = policy
        return policy

    def attach_fault_schedule(self, schedule) -> None:
        """Install a :class:`repro.sim.faults.FaultSchedule` to consume.

        Components are validated eagerly: a schedule naming an unknown
        switch or link is a configuration error, not a mid-run surprise.
        """
        from repro.sim.faults import FaultKind

        for event in schedule.events:
            if event.kind in (FaultKind.SWITCH_DOWN, FaultKind.SWITCH_UP):
                if event.component not in self.switches:
                    raise KeyError(
                        f"fault schedule names unknown switch "
                        f"{event.component!r}"
                    )
            else:
                if tuple(event.component) not in self.links:
                    raise KeyError(
                        f"fault schedule names unknown link "
                        f"{event.component!r}"
                    )
                reverse = (event.component[1], event.component[0])
                if event.both_directions and reverse not in self.links:
                    raise KeyError(
                        f"fault schedule wants both directions of "
                        f"{event.component!r} but {reverse!r} does not exist"
                    )
        schedule.reset()
        self._fault_schedule = schedule
        self._corruption_rng = random.Random(schedule.corruption_seed)

    def attach_recovery_controller(self, controller) -> None:
        """Wire a :class:`repro.sim.faults.RecoveryController` in.

        The controller hears every NI timeout and end-to-end ack (its
        only sensors — no oracle access to the fault schedule) and gets
        a tick at the end of each cycle to detect and act.
        """
        if self._retransmission is None:
            self.enable_retransmission()
        controller.bind(self)
        self._controller = controller
        for ni in self.initiators.values():
            ni.on_timeout = controller.note_timeout
            ni.on_ack = controller.note_ack

    def _adjacent_links(self, switch: str) -> List[Tuple[str, str]]:
        return [
            key for key in self._link_order if switch in key
        ]

    def _apply_due_faults(self, cycle: int) -> int:
        """Apply every fault event due at ``cycle``; returns how many.

        The count lets the event kernel rebuild its scheduler state only
        when something actually changed (fault events rewire components
        wholesale — repairs reset flow-control state entirely).
        """
        from repro.sim.faults import FaultKind
        from repro.sim.tracing import TraceEventKind

        applied = 0
        for event in self._fault_schedule.due(cycle):
            applied += 1
            dropped = 0
            if event.kind is FaultKind.SWITCH_DOWN:
                dropped += self.switches[event.component].fail(cycle)
                for key in self._adjacent_links(event.component):
                    dropped += self.links[key].fail(cycle)
                where = event.component
            elif event.kind is FaultKind.SWITCH_UP:
                self.switches[event.component].repair(cycle)
                for key in self._adjacent_links(event.component):
                    self.links[key].repair(cycle)
                where = event.component
            elif event.kind is FaultKind.LINK_DOWN:
                targets = [tuple(event.component)]
                if event.both_directions:
                    targets.append((event.component[1], event.component[0]))
                for key in targets:
                    dropped += self.links[key].fail(cycle)
                where = "->".join(event.component)
            elif event.kind is FaultKind.LINK_UP:
                targets = [tuple(event.component)]
                if event.both_directions:
                    targets.append((event.component[1], event.component[0]))
                for key in targets:
                    self.links[key].repair(cycle)
                where = "->".join(event.component)
            else:  # TRANSIENT_BURST
                targets = [tuple(event.component)]
                if event.both_directions:
                    reverse = (event.component[1], event.component[0])
                    if reverse in self.links:
                        targets.append(reverse)
                for key in targets:
                    self.links[key].start_corruption_burst(
                        cycle + event.duration,
                        event.probability,
                        self._corruption_rng,
                    )
                where = "->".join(event.component)
            self.stats.flits_dropped_by_faults += dropped
            self.stats.record_fault(cycle, event.kind.value, where)
            if self._recorder is not None:
                self._recorder.record_note(
                    cycle, TraceEventKind.FAULT, where, event.describe()
                )
        return applied

    def hot_swap_routing(
        self, new_table: RoutingTable, cycle: int
    ) -> Tuple[int, int]:
        """Replace every NI LUT with the routes of ``new_table`` live.

        Destinations absent from the new table are removed (their
        endpoints were severed); pending transfers toward them are
        abandoned.  Returns ``(routes_changed, transfers_abandoned)``.

        VC assignments are reset: recovery tables come from up*/down*
        routing, which is deadlock-free on a single virtual channel.
        """
        cores = self.topology.cores
        routes_changed = 0
        abandoned = 0
        for core in self._initiator_order:
            ni = self.initiators[core]
            current = set(ni.lut.destinations())
            fresh = {
                dst
                for dst in cores
                if dst != core and new_table.has_route(core, dst)
            }
            for dst in sorted(current - fresh):
                ni.lut.remove(dst)
                routes_changed += 1
            for dst in sorted(fresh):
                path = new_table.route(core, dst).path
                if dst not in current or ni.lut.lookup(dst)[0] != path:
                    ni.lut.set(dst, path, None)
                    routes_changed += 1
            abandoned += ni.abandon_unreachable(cycle)
        self.routing_table = new_table
        return routes_changed, abandoned

    def purge_packets(self, predicate, cycle: int) -> int:
        """Drop every queued/in-flight flit of packets matching ``predicate``.

        Walks links, switch buffers (with credit repair and wormhole
        lock release) and NI injection queues in deterministic order.
        Flits already sitting in a target's ejection buffer stay: they
        made it across and drain harmlessly.
        """
        purged = 0
        for key in self._link_order:
            purged += self.links[key].purge(predicate, cycle)
        for name in self._switch_order:
            purged += self.switches[name].purge(predicate, cycle)
        for name in self._initiator_order:
            purged += self.initiators[name].purge_queued(predicate, cycle)
        return purged

    def recover_from(self, scenario: FaultScenario, cycle: int) -> RecoveryOutcome:
        """Reconfigure the live network around ``scenario``'s faults.

        1. compute a deadlock-free degraded table (partial: cores cut
           off by the faults are dropped rather than fatal);
        2. purge every packet whose route crosses a failed component
           (their transfers stay pending and will retransmit);
        3. hot-swap all NI LUTs and abandon transfers whose destination
           no longer exists.

        Raises :class:`repro.reliability.faults.UnrecoverableFaultError`
        if nothing routable survives.
        """
        new_table = reconfigure_routing(
            self.topology, scenario, allow_partial=True
        )
        failed_links = scenario.failed_links
        failed_switches = scenario.failed_switches

        def doomed(packet: Packet) -> bool:
            route = packet.route
            if any(node in failed_switches for node in route[1:-1]):
                return True
            return any(
                (a, b) in failed_links for a, b in zip(route, route[1:])
            )

        purged = self.purge_packets(doomed, cycle)
        routes_changed, abandoned = self.hot_swap_routing(new_table, cycle)
        if self._recorder is not None:
            from repro.sim.tracing import TraceEventKind

            self._recorder.record_note(
                cycle,
                TraceEventKind.RECOVERY,
                "controller",
                f"rerouted {routes_changed}, purged {purged}, "
                f"abandoned {abandoned}",
            )
        return RecoveryOutcome(
            routes_changed=routes_changed,
            packets_purged=purged,
            transfers_abandoned=abandoned,
        )

    def link_utilization(self) -> Dict[Tuple[str, str], float]:
        """Fraction of cycles each link carried a flit (lifetime)."""
        if self.cycle == 0:
            return {key: 0.0 for key in self.links}
        return {
            key: link.flits_carried / self.cycle for key, link in self.links.items()
        }

    def total_retransmissions(self) -> int:
        """ACK/NACK retransmission count across all links."""
        return sum(
            link.retransmissions
            for link in self.links.values()
            if isinstance(link, AckNackLink)
        )

    def peak_buffer_occupancy(self) -> Dict[Tuple[str, str], int]:
        """Deepest single-VC FIFO fill per (switch, upstream) port.

        The empirical counterpart of
        :func:`repro.core.buffer_sizing.size_buffers`: a sized design
        should show peaks at or under the recommended depths.
        """
        return {
            (sw_name, upstream): port.peak_occupancy
            for sw_name, sw in self.switches.items()
            for upstream, port in sw.inputs.items()
        }

    def total_corrupted_flits(self) -> int:
        """Injected transmission errors caught by the link-level CRC."""
        return sum(
            link.flits_corrupted
            for link in self.links.values()
            if isinstance(link, AckNackLink)
        )


class _MultiHomedLink:
    """Injection dispatcher for cores attached to several switches.

    Presents the single-link interface the initiator NI expects and
    forwards each flit onto the physical link its route starts with.
    """

    def __init__(self, core: str, links: List[Link]):
        self.core = core
        self._by_target: Dict[str, Link] = {}
        for link in links:
            target = link.name.split("->", 1)[1]
            self._by_target[target] = link

    def _pick(self, flit) -> Link:
        first_switch = flit.packet.route[1]
        try:
            return self._by_target[first_switch]
        except KeyError:
            raise RuntimeError(
                f"core {self.core!r}: route enters via {first_switch!r} but no "
                "injection link reaches it"
            ) from None

    def can_send_flit(self, flit, cycle: int) -> bool:
        return self._pick(flit).can_send(flit.vc, cycle)

    def send(self, flit, cycle: int) -> None:
        self._pick(flit).send(flit, cycle)
