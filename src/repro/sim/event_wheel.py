"""The event-wheel scheduler behind ``NocSimulator(kernel="event")``.

The reference kernel polls every component every cycle.  This module
removes the polling: components **post wakeups** when their state
changes, each executed cycle touches only the components with pending
work, and *provably quiescent* stretches are jumped over whole.

Two structures drive the run loop:

* a :class:`WakeupWheel` of **link** deliveries — every ``Link.send``
  posts the flit's delivery cycle, so an idle pipelined link is never
  ticked between send and delivery;
* per-class **active sets** (switches, initiator NIs, links, target
  NIs) holding the *level-triggered* wakeups: a component enters its
  set when work arrives and leaves when its own tick finds the work
  gone.

Wakeups are posted by the components themselves, through the optional
hooks this scheduler installs:

* ``InputPort.accept`` wakes its switch, ``EjectionPort.accept`` its
  target (a port holds only its buffers and this hook, and the delivery
  cycle comes from the link, so neither keeps a clock of its own);
* ``InitiatorNI.enqueue`` wakes the initiator — covering traffic
  injections, responses, end-to-end acks, and retransmission copies;
* ``Link.send`` posts the delivery cycle on the link wheel itself
  (credit and ON/OFF links, through ``Link.wheel``) or activates the
  link (ACK/NACK links, which have per-cycle protocol work while busy).

Byte-identity with the reference kernel rests on two invariants that
``tests/sim/test_kernel_invariants.py`` audits:

* **ordering** — within each phase the active subset is ticked in the
  same sorted component order the reference kernel uses, so shared-RNG
  draws (burst corruption, ACK/NACK error injection) and shared-
  receiver interactions happen in the reference order;
* **no lost wakeup** — a component with pending work is always in its
  active set or on the wheel (:meth:`EventScheduler.find_lost_wakeups`
  is the detector).

A switch stays active while it holds flits.  With a multi-stage
pipeline (``switch_latency_cycles > 1``) that includes the cycles its
head flits wait out the pipeline; those ticks find no *ready* head and
mutate nothing (stall and contention counters only move when an
eligible flit exists), so they cost time, not results.  An ON/OFF
link needs no tick between deliveries: it works out the free-slot count
its backpressure wire carries from its own deliveries and the slots its
receiver returns (see :class:`repro.arch.link.OnOffLink`).

The scheduler lives as long as its simulator: one ``run()`` call picks
up the wheel and active sets where the last one left them.  Everything
it holds is derivable from component state, and whatever changes that
state behind the hooks triggers a full :meth:`EventScheduler.rescan`:
fault events and recovery inside a cycle rescan at once, and the public
mutators that act outside the hooks (``step()``, ``purge_packets``,
``hot_swap_routing`` and ``recover_from``) mark the scheduler
:attr:`~EventScheduler.stale`, so the next ``run()`` rescans on entry.
Checkpoint capsules do not carry the scheduler: a restored simulator
builds a fresh one, which rebuilds the wheel and the active sets
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
    exactly once, at its own cycle.  Stale tokens — a link whose
    in-flight flits were purged or dropped by a fault after posting —
    are harmless: ticking a link with nothing due is a no-op.
    """

    __slots__ = ("_buckets",)

    def __init__(self):
        # A missing bucket springs into being on its first post, so the
        # links that post on every send do it in one subscript.
        self._buckets: Dict[int, List[int]] = defaultdict(list)

    def post(self, cycle: int, token: int) -> None:
        self._buckets[cycle].append(token)

    def pop_due(self, cycle: int):
        """Drain and return the bucket at ``cycle`` (empty when none)."""
        bucket = self._buckets.pop(cycle, None)
        return bucket if bucket is not None else ()

    def clear(self) -> None:
        self._buckets.clear()

    def next_cycle(self) -> Optional[int]:
        """Earliest populated bucket, or None when the wheel is empty."""
        if not self._buckets:
            return None
        return min(self._buckets)

    def tokens(self) -> Set[int]:
        """Every token currently posted (for the lost-wakeup audit)."""
        out: Set[int] = set()
        for bucket in self._buckets.values():
            out.update(bucket)
        return out

    def __len__(self) -> int:
        return sum(len(b) for b in self._buckets.values())


class EventScheduler:
    """Wakeup registry and run-loop core for ``kernel="event"``.

    One instance per simulator; built lazily on the first event-kernel
    ``run()``, kept across later ones, and excluded from checkpoints
    (see module docstring).

    The simulator owns its scheduler, and the wakeup hooks the
    components hold reach the scheduler's sets and wheel; so the
    scheduler refers back to the simulator only weakly, and neither it
    nor a hook forms a reference cycle through the simulator.  A
    simulator dropped after its run is freed at once, by reference
    counting.
    """

    def __init__(self, sim):
        self._sim = weakref.ref(sim)
        self.wheel = WakeupWheel()    # link delivery cycles
        self.active_switches: Set[int] = set()
        self.active_initiators: Set[int] = set()
        self.active_targets: Set[int] = set()
        self.active_links: Set[int] = set()
        #: Initiators that may hold unacknowledged transfers (pruned
        #: lazily; a superset is safe, a miss would lose a deadline).
        self.rt_watch: Set[int] = set()

        #: ACK/NACK links have per-cycle protocol work while busy and
        #: are level-active; every other link is wheel-managed (its
        #: deliveries are its only events).
        self._acknack = [
            isinstance(link, AckNackLink) for link in sim._link_seq
        ]
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
    # The hooks hold the active sets and the wheel's buckets directly
    # (``rescan`` mutates them in place rather than rebinding, to keep
    # these references valid): wakeups fire on every send and delivery,
    # so each must cost a set or dict operation, not a Python frame.
    # A switch's input ports, a target's ejection port and ACK/NACK
    # links get a bound ``set.add``; a wheel-managed link posts on the
    # buckets inside its own ``send``.
    def _install_wakers(self) -> None:
        sim = self.sim
        for i, sw in enumerate(sim._switch_seq):
            waker = partial(self.active_switches.add, i)
            for port in sw.inputs.values():
                port.wakeup = waker
        for i, ni in enumerate(sim._initiator_seq):
            ni.wakeup = self._make_initiator_waker(i)
        for i, tgt in enumerate(sim._target_seq):
            tgt.port.wakeup = partial(self.active_targets.add, i)
        buckets = self.wheel._buckets
        for i, link in enumerate(sim._link_seq):
            if self._acknack[i]:
                link.wakeup = partial(self.active_links.add, i)
            else:
                link.wheel = buckets
                link.token = i

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
        """Rebuild the wheel and active sets from component state.

        Every scheduling fact is derivable: buffered flits, queued
        packets, in-flight deliveries and unacknowledged transfers.
        Called when the scheduler is built (the first event-kernel
        ``run()``, and the first after a checkpoint restore), after
        fault events (failures drop buffered work wholesale), after
        recovery-controller actions (purges empty buffers and hot-swap
        routes behind the hooks' back), and on a ``run()`` entry that
        finds the scheduler :attr:`stale`.  Changes that go through the
        hooks (direct ``inject``, responses) need no rescan.
        """
        self.stale = False
        sim = self.sim
        # The wheel and active sets are mutated in place, never
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
        self.active_links.clear()
        for i, link in enumerate(sim._link_seq):
            if self._acknack[i]:
                if link.busy:
                    self.active_links.add(i)
            else:
                for deliver_at, __ in link._in_flight:
                    self.wheel.post(deliver_at, i)

    # ------------------------------------------------------------------
    # One executed cycle (the reference step(), on the active subset)
    # ------------------------------------------------------------------
    def execute_cycle(self, c: int) -> None:
        sim = self._sim()
        if sim._fault_schedule is not None and sim._apply_due_faults(c):
            # Fault events change components wholesale (failures drop
            # buffered and in-flight work, an ACK/NACK link's repair
            # restarts its protocol); rebuild rather than patch.
            self.rescan()

        # Phase 1: switches arbitrate and forward.  tick() reports
        # whether the switch still holds flits; a dead switch reports
        # False (accepts keep waking it, and its repair forces a
        # rescan), so the empty and failed cases demote alike.
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

        # Phase 3: links deliver (the active ACK/NACK links merged with
        # the wheel's due bucket, in sorted link order).  No link
        # appears twice: a wheel link sends at most once per cycle at a
        # fixed delay, so it posts each delivery cycle once, and
        # ACK/NACK links are never on the wheel.  No delivery activates
        # a link, and an ACK/NACK link's protocol state only changes
        # inside its own tick during this phase, so its deactivation
        # verdict is final right after that tick.
        order = self.wheel.pop_due(c)
        if self.active_links:
            order = [*order, *self.active_links]
        if order:
            if len(order) > 1:
                order = sorted(order)
            seq = sim._link_seq
            acknack = self._acknack
            done = None
            for i in order:
                link = seq[i]
                link.tick(c)
                if acknack[i] and not link.busy:
                    if done is None:
                        done = [i]
                    else:
                        done.append(i)
            if done is not None:
                self.active_links.difference_update(done)

        # Phase 4: target NIs drain, and each logs the packets it
        # completes in the simulator's stats itself.
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
                before_rec = getattr(controller, "recoveries", None)
                controller.tick(c)
                if getattr(controller, "recoveries", None) != before_rec:
                    self.rescan()

        # Phase 7: metrics probe window boundaries.
        if sim._obs is not None and c >= sim._obs.next_sample_cycle():
            sim._obs.on_cycle(c)

        if sim._event_audit is not None:
            sim._event_audit(c)
        sim.cycle = c + 1

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
        wheel's next bucket, retransmission deadlines, scheduled
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
        nxt = self.wheel.next_cycle()
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
        wheel_tokens = self.wheel.tokens()
        for i, link in enumerate(sim._link_seq):
            if self._acknack[i]:
                if link.busy and i not in self.active_links:
                    lost.append(f"link {link.name}: busy but not active")
            elif link._in_flight and i not in wheel_tokens:
                lost.append(
                    f"link {link.name}: in-flight flit(s) "
                    "but no wheel entry"
                )
        return lost
