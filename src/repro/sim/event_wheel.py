"""The event-wheel scheduler behind ``NocSimulator(kernel="event")``.

The reference kernel polls every component every cycle.  This module
removes the polling: components **post wakeups** when their state
changes, each executed cycle touches only the components with pending
work, and *provably quiescent* stretches are jumped over whole.

Two kinds of structure drive the run loop:

* two :class:`WakeupWheel` s of **receivers**, filled by the links'
  sends.  A credit or ON/OFF link is a fixed-delay pipe, so a flit's
  landing cycle is known when it is sent: ``Link.send`` posts the
  receiving switch on :attr:`EventScheduler.wheel` at the cycle its
  pipeline makes the flit eligible (landing plus the switch latency),
  and the receiving target NI on :attr:`EventScheduler.target_wheel`
  at the landing cycle.  Phases 1 and 4 merge their bucket into the
  active set, and the receiver takes what has landed itself (see
  :class:`repro.arch.switch.SwitchModel` and
  :class:`repro.arch.network_interface.TargetNI`);
* per-class **active sets** (switches, initiator NIs, links, target
  NIs) holding the *level-triggered* wakeups: a component enters its
  set when work arrives and leaves when its own tick finds the work
  gone.

Phase 3 ticks only the links with work of their own: ACK/NACK links
(per-cycle protocol work while busy) and faulty links (down, a packet
poisoned, or in a burst window) that still hold an undecided flit.  A
faulty link only decides fates (:meth:`repro.arch.link.Link.decide`)
and leaves survivors for the receiver, so a target fed by a faulty and
a clean link keeps link order in its shared buffer.  No clean credit or
ON/OFF link is ever ticked: an ON/OFF link works out its backpressure
count from its own sends and the slots its receiver returns (see
:class:`repro.arch.link.OnOffLink`).

Wakeups are posted by the components themselves, through the optional
hooks this scheduler installs:

* ``Link.send`` posts the receiver (credit and ON/OFF links, through
  ``Link.wheel``, ``Link.token`` and ``Link.lag``) and, on a link
  faulty at the last :meth:`EventScheduler.rescan` or an ACK/NACK link,
  activates the link (``Link.wakeup``);
* a delivery through a port's ``accept`` (an ACK/NACK link's own tick,
  or the link phase of a ``step()``) wakes the receiving switch or
  target;
* ``InitiatorNI.enqueue`` wakes the initiator — covering traffic
  injections, responses, end-to-end acks, and retransmission copies.

Byte-identity with the reference kernel rests on three invariants that
``tests/sim/test_kernel_invariants.py`` audits:

* **ordering** — within each phase the active subset is ticked in the
  same sorted component order the reference kernel uses, so shared-RNG
  draws (burst corruption, ACK/NACK error injection) and shared-
  receiver interactions happen in the reference order;
* **no lost wakeup** — a component with pending work is always in its
  active set or on a wheel (:meth:`EventScheduler.find_lost_wakeups`
  is the detector);
* **settled buffers** — wherever switch buffers are read or rewritten
  outside the switch's own tick (fault events, a recovery controller's
  action, a metrics sample, the end of a ``run()``), the switches first
  take everything landed by then (:meth:`EventScheduler.settle`), so
  state between runs equals the reference kernel's.

A switch stays active while it holds flits.  With a multi-stage
pipeline (``switch_latency_cycles > 1``) that includes the cycles its
head flits wait out the pipeline; those ticks find no *ready* head and
mutate nothing (stall and contention counters only move when an
eligible flit exists), so they cost time, not results.

The scheduler lives as long as its simulator: one ``run()`` call picks
up the wheels and active sets where the last one left them.  Everything
it holds is derivable from component state, and whatever changes that
state behind the hooks triggers a full :meth:`EventScheduler.rescan`:
fault events and recovery inside a cycle rescan at once, and the public
mutators that act outside the hooks (``step()``, ``purge_packets``,
``hot_swap_routing`` and ``recover_from``) mark the scheduler
:attr:`~EventScheduler.stale`, so the next ``run()`` rescans on entry.
Checkpoint capsules do not carry the scheduler: a restored simulator
builds a fresh one, which rebuilds the wheels and the active sets
exactly, and continues byte-identically (``tests/resilience/
test_event_checkpoint.py``).
"""

from __future__ import annotations

import weakref
from collections import defaultdict
from functools import partial
from typing import Dict, List, Optional, Set

from repro.arch.link import AckNackLink
from repro.sim.tracing import TraceEventKind

__all__ = ["WakeupWheel", "EventScheduler"]


class WakeupWheel:
    """Bucketed ``cycle -> [token]`` map of pending timed wakeups.

    The run loop executes every cycle from the current one forward
    (jumps are bounded by :meth:`next_cycle`), so each bucket is popped
    exactly once, at its own cycle (or earlier, by a settle).  Stale
    tokens — a receiver whose flit was purged or dropped by a fault
    after the send posted it — are harmless: ticking a receiver with
    nothing landed is a no-op.
    """

    __slots__ = ("_buckets",)

    def __init__(self):
        # A missing bucket springs into being on its first post, so the
        # links that post on every send do it in one subscript.
        self._buckets: Dict[int, List[int]] = defaultdict(list)

    def clear(self) -> None:
        self._buckets.clear()

    def next_cycle(self) -> Optional[int]:
        """Earliest populated bucket, or None when the wheel is empty."""
        if not self._buckets:
            return None
        return min(self._buckets)


class EventScheduler:
    """Wakeup registry and run-loop core for ``kernel="event"``.

    One instance per simulator; built lazily on the first event-kernel
    ``run()``, kept across later ones, and excluded from checkpoints
    (see module docstring).

    The simulator owns its scheduler, and the wakeup hooks the
    components hold reach the scheduler's sets and wheels; so the
    scheduler refers back to the simulator only weakly, and neither it
    nor a hook forms a reference cycle through the simulator.  A
    simulator dropped after its run is freed at once, by reference
    counting.
    """

    def __init__(self, sim):
        self._sim = weakref.ref(sim)
        #: switches, by the cycle a landed flit becomes eligible
        self.wheel = WakeupWheel()
        #: target NIs, by the cycle a flit lands
        self.target_wheel = WakeupWheel()
        self.active_switches: Set[int] = set()
        self.active_initiators: Set[int] = set()
        self.active_targets: Set[int] = set()
        self.active_links: Set[int] = set()
        #: Initiators that may hold unacknowledged transfers (pruned
        #: lazily; a superset is safe, a miss would lose a deadline).
        self.rt_watch: Set[int] = set()

        #: ACK/NACK links have per-cycle protocol work while busy and
        #: are level-active; every other link posts its receiver.
        self._acknack = [
            isinstance(link, AckNackLink) for link in sim._link_seq
        ]
        #: A switch can act on a flit this many cycles after it lands.
        self._lag = sim.params.switch_latency_cycles
        #: Set when component state changed behind the hooks between
        #: runs; the next ``run()`` rescans before its first cycle.
        self.stale = False

        self._install_wakers()
        self.rescan()

    @property
    def sim(self):
        return self._sim()

    # ------------------------------------------------------------------
    # Wakeup hooks
    # ------------------------------------------------------------------
    # The hooks hold the active sets and the wheels' buckets directly
    # (``rescan`` mutates them in place rather than rebinding, to keep
    # these references valid): posts fire on every send, so each must
    # cost a dict subscript, not a Python frame.  A switch's input ports
    # and a target's ejection port get a bound ``set.add``, which a
    # delivery through ``accept`` (an ACK/NACK link, or a ``step()``)
    # fires.  Nothing is allocated per clean link: a credit or ON/OFF
    # link gets its receiver's bucket map, index and lag; only ACK/NACK
    # links (and, at rescan, faulty links) get a waker of their own.
    def _install_wakers(self) -> None:
        sim = self.sim
        index_of = {}
        for i, sw in enumerate(sim._switch_seq):
            index_of[sw.name] = i
            waker = partial(self.active_switches.add, i)
            for port in sw.inputs.values():
                port.wakeup = waker
        for i, tgt in enumerate(sim._target_seq):
            index_of[tgt.core] = i
            tgt.port.wakeup = partial(self.active_targets.add, i)
        for i, link in enumerate(sim._link_seq):
            receiver = sim._link_order[i][1]
            if self._acknack[i]:
                link.wakeup = partial(self.active_links.add, i)
                continue
            link.token = index_of[receiver]
            if receiver in sim.switches:
                link.wheel = self.wheel._buckets
                link.lag = self._lag
            else:
                link.wheel = self.target_wheel._buckets
        for i, ni in enumerate(sim._initiator_seq):
            ni.wakeup = self._make_initiator_waker(i)

    def _make_initiator_waker(self, i: int):
        active = self.active_initiators
        rt_watch = self.rt_watch

        def wake() -> None:
            active.add(i)
            rt_watch.add(i)
        return wake

    # ------------------------------------------------------------------
    # Reconstruction (first run, post-fault, post-recovery, stale entry)
    # ------------------------------------------------------------------
    def rescan(self) -> None:
        """Rebuild the wheels and active sets from component state.

        Every scheduling fact is derivable: buffered flits, queued
        packets, in-flight flits, unacknowledged transfers and fault
        state.  Called when the scheduler is built (the first
        event-kernel ``run()``, and the first after a checkpoint
        restore), after fault events (failures drop buffered work
        wholesale), after recovery-controller actions (purges empty
        buffers and hot-swap routes behind the hooks' back), and on a
        ``run()`` entry that finds the scheduler :attr:`stale`.  Each
        runs on settled buffers, so every flit still on a link is yet
        to land.  Changes that go through the hooks (direct ``inject``,
        responses) need no rescan.
        """
        self.stale = False
        sim = self.sim
        # The wheels and active sets are mutated in place, never
        # rebound: the wakeup hooks hold direct references to them.
        self.active_switches.clear()
        self.active_switches.update(
            i for i, sw in enumerate(sim._switch_seq) if sw.occupancy
        )
        self.active_initiators.clear()
        self.active_initiators.update(
            i for i, ni in enumerate(sim._initiator_seq) if ni.backlog
        )
        self.active_targets.clear()
        self.active_targets.update(
            i for i, tgt in enumerate(sim._target_seq) if not tgt.idle
        )
        self.rt_watch.clear()
        self.rt_watch.update(
            i for i, ni in enumerate(sim._initiator_seq)
            if ni.pending_transfers
        )
        self.wheel.clear()
        self.target_wheel.clear()
        self.active_links.clear()
        c = sim.cycle
        for i, link in enumerate(sim._link_seq):
            if self._acknack[i]:
                if link.busy:
                    self.active_links.add(i)
                continue
            in_flight = link._in_flight
            if link.faulty(c):
                link.wakeup = partial(self.active_links.add, i)
                if in_flight:
                    self.active_links.add(i)
            else:
                link.wakeup = None
            for due, __ in in_flight:
                link.wheel[due + link.lag].append(link.token)

    # ------------------------------------------------------------------
    # One executed cycle (the reference step(), on the active subset)
    # ------------------------------------------------------------------
    def execute_cycle(self, c: int) -> None:
        sim = self._sim()
        faults = sim._fault_schedule
        if faults is not None:
            nxt = faults.next_cycle()
            if nxt is not None and nxt <= c:
                # Fault events change components wholesale (failures
                # drop buffered and in-flight work, an ACK/NACK link's
                # repair restarts its protocol); rebuild rather than
                # patch.
                self.settle(c - 1)
                sim._apply_due_faults(c)
                self.rescan()

        # Phase 1: switches take landed flits, arbitrate and forward.
        # tick() reports whether the switch still holds flits; a dead
        # switch reports False (posts keep waking it, and its repair
        # forces a rescan), so the empty and failed cases demote alike.
        bucket = self.wheel._buckets.pop(c, None)
        if bucket is not None:
            self.active_switches.update(bucket)
        if self.active_switches:
            seq = sim._switch_seq
            done = []
            for i in sorted(self.active_switches):
                if not seq[i].tick(c):
                    done.append(i)
            self.active_switches.difference_update(done)

        # Phase 2: initiator NIs inject.
        if self.active_initiators:
            seq = sim._initiator_seq
            done = []
            for i in sorted(self.active_initiators):
                ni = seq[i]
                ni.tick(c)
                # Best-effort work settles it without the full count.
                if not (ni._be_queue or ni._current_be) and not ni.backlog:
                    done.append(i)
            self.active_initiators.difference_update(done)

        # Phase 3: ACK/NACK links run their protocol and faulty links
        # decide the fate of the flit due now, in sorted link order.
        # Neither kind is activated by this phase, so each verdict is
        # final right after the link's own tick.
        if self.active_links:
            seq = sim._link_seq
            acknack = self._acknack
            done = []
            for i in sorted(self.active_links):
                link = seq[i]
                if acknack[i]:
                    link.tick(c)
                    if not link.busy:
                        done.append(i)
                elif not link.decide(c):
                    done.append(i)
            self.active_links.difference_update(done)

        # Phase 4: target NIs take landed flits and drain, and each
        # logs the packets it completes in the simulator's stats itself.
        bucket = self.target_wheel._buckets.pop(c, None)
        if bucket is not None:
            self.active_targets.update(bucket)
        if self.active_targets:
            seq = sim._target_seq
            done = []
            for i in sorted(self.active_targets):
                tgt = seq[i]
                tgt.tick(c)
                if not (tgt.port.buffer or tgt._pending_responses):  # idle
                    done.append(i)
            self.active_targets.difference_update(done)

        # Phase 5: end-to-end retransmission deadlines.
        if sim._retransmission is not None and self.rt_watch:
            seq = sim._initiator_seq
            recorder = sim._recorder
            done = []
            for i in sorted(self.rt_watch):
                ni = seq[i]
                if not ni.pending_transfers:
                    done.append(i)
                    continue
                nxt = ni.next_timeout_cycle()
                if nxt is None or nxt > c:
                    continue  # check_timeouts would be a no-op
                before_rt = ni.packets_retransmitted
                ni.check_timeouts(c)
                if recorder is not None and (
                    ni.packets_retransmitted > before_rt
                ):
                    recorder.record_note(
                        c,
                        TraceEventKind.RETRANSMIT,
                        ni.core,
                        f"{ni.packets_retransmitted - before_rt} "
                        "transfer(s)",
                    )
            self.rt_watch.difference_update(done)

        # Phase 6: recovery controller (its next_wakeup contract states
        # exactly when tick() can act; earlier calls are no-ops).  A
        # completed recovery purges buffers and hot-swaps routes behind
        # the wakeup hooks' back, so it forces a rescan.
        controller = sim._controller
        if controller is not None:
            nxt = controller.next_wakeup(c)
            if nxt is not None and nxt <= c:
                self.settle(c)
                before_rec = getattr(controller, "recoveries", None)
                controller.tick(c)
                if getattr(controller, "recoveries", None) != before_rec:
                    self.rescan()

        # Phase 7: metrics probe window boundaries.
        if sim._obs is not None and c >= sim._obs.next_sample_cycle():
            self.settle(c)
            sim._obs.on_cycle(c)

        sim.cycle = c + 1
        if sim._event_audit is not None:
            sim._event_audit(c)

    def settle(self, cycle: int) -> None:
        """Every switch takes the flits landed by ``cycle``.

        Those are exactly the switches posted for the cycles up to
        ``cycle`` plus the switch latency; their posts are consumed, and
        each stays active while it holds flits.  Afterwards the switch
        buffers are those of the reference kernel after ``cycle``'s
        link phase.
        """
        buckets = self.wheel._buckets
        last = cycle + self._lag
        due = [k for k in buckets if k <= last]
        if not due:
            return
        seq = self.sim._switch_seq
        woken = set()
        for k in due:
            woken.update(buckets.pop(k))
        for i in woken:
            seq[i].land(cycle + 1)
        self.active_switches.update(woken)

    # ------------------------------------------------------------------
    # Quiescence: advance the clock to the next populated bucket
    # ------------------------------------------------------------------
    def quiescent(self) -> bool:
        """No level-triggered work anywhere (timed wakeups may remain)."""
        return not (
            self.active_switches
            or self.active_initiators
            or self.active_targets
            or self.active_links
        )

    def jump_target(self, traffic, limit: int) -> Optional[int]:
        """Jump target ``t`` with ``cycle < t <= limit``, or None.

        Only called when :meth:`quiescent` holds; the timed terms — the
        wheels' next buckets, retransmission deadlines, scheduled
        faults, the controller's wakeup, the probe's window boundary,
        and the traffic lookahead — bound the jump from above.  A jump
        never lands past the earliest of them, so every skipped cycle
        is provably inert.
        """
        sim = self.sim
        c = sim.cycle
        if limit <= c + 1:
            return None
        horizon = limit
        for wheel in (self.wheel, self.target_wheel):
            nxt = wheel.next_cycle()
            if nxt is not None and nxt < horizon:
                horizon = nxt
        if self.rt_watch:
            stale = []
            for i in self.rt_watch:
                ni = sim._initiator_seq[i]
                if not ni.pending_transfers:
                    stale.append(i)
                    continue
                deadline = ni.next_timeout_cycle()
                if deadline is not None and deadline < horizon:
                    horizon = deadline
            self.rt_watch.difference_update(stale)
        if sim._fault_schedule is not None:
            nxt = sim._fault_schedule.next_cycle()
            if nxt is not None and nxt < horizon:
                horizon = nxt
        if sim._controller is not None:
            nxt = sim._controller.next_wakeup(c)
            if nxt is not None and nxt < horizon:
                horizon = nxt
        if sim._obs is not None:
            nxt = sim._obs.next_sample_cycle()
            if nxt < horizon:
                horizon = nxt
        if horizon <= c:
            return None
        if traffic is not None:
            probe = getattr(traffic, "next_injection_cycle", None)
            if probe is None:
                return None  # opaque generator: never skip
            nxt = probe(c, sim, horizon)
            if nxt is not None and nxt < horizon:
                horizon = nxt
        if horizon <= c:
            return None
        return horizon

    # ------------------------------------------------------------------
    # Audit
    # ------------------------------------------------------------------
    def find_lost_wakeups(self) -> List[str]:
        """Components holding work with no wheel entry or active-set
        membership — the failure mode that silently freezes traffic.
        Called between executed cycles (``sim.cycle`` is the next one).

        Returns human-readable descriptions (empty = invariant holds);
        the property tests fail the run on any entry.
        """
        sim = self.sim
        lost: List[str] = []
        active = self.active_switches
        for i, sw in enumerate(sim._switch_seq):
            if sw.occupancy and not sw.failed and i not in active:
                lost.append(
                    f"switch {sw.name}: {sw.occupancy} buffered flit(s) "
                    "but not active"
                )
        for i, ni in enumerate(sim._initiator_seq):
            if ni.backlog and i not in self.active_initiators:
                lost.append(
                    f"initiator {ni.core}: backlog {ni.backlog} "
                    "but no wakeup"
                )
            if ni.pending_transfers and i not in self.rt_watch:
                lost.append(
                    f"initiator {ni.core}: {ni.pending_transfers} pending "
                    "transfer(s) but unwatched deadline"
                )
        for i, tgt in enumerate(sim._target_seq):
            if not tgt.idle and i not in self.active_targets:
                lost.append(
                    f"target {tgt.core}: buffered/pending work "
                    "but no wakeup"
                )
        c = sim.cycle
        for i, link in enumerate(sim._link_seq):
            if self._acknack[i]:
                if link.busy and i not in self.active_links:
                    lost.append(f"link {link.name}: busy but not active")
                continue
            in_flight = link._in_flight
            if not in_flight:
                continue
            if (in_flight[-1][0] >= c and link.faulty(c)
                    and i not in self.active_links):
                lost.append(
                    f"link {link.name}: undecided flit(s) on a faulty "
                    "link but not active"
                )
            if sim._link_order[i][1] in sim.switches:
                buckets, active = self.wheel._buckets, self.active_switches
                lag = self._lag
            else:
                buckets, active = self.target_wheel._buckets, self.active_targets
                lag = 0
            # A landed flit may wait for an active receiver; one still
            # on the wire needs the post its send made.
            for due, __ in in_flight:
                if link.token in buckets.get(due + lag, ()) or (
                    due < c and link.token in active
                ):
                    continue
                landed = "landed" if due < c else "in-flight"
                lost.append(
                    f"link {link.name}: {landed} flit due at {due}, but "
                    "its receiver is neither posted nor active"
                )
                break
        return lost
