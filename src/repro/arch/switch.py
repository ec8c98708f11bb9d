"""Wormhole switch model.

"Switches are the backbone of the network.  Their main function is to
route packets from source to destination ... Switches provide buffering
resources to lower congestion and improve performance." (Section 3)

The model is an input-queued wormhole switch with per-(port, VC) FIFOs:

* routing is *source routing* — the output port is read from the flit's
  route, no route computation stage;
* per output port, an arbiter grants one flit per cycle among the input
  VCs whose head flit requests it;
* wormhole: a (output, VC) pair is locked by the winning packet from
  head to tail, so packets never interleave within a VC (but different
  VCs share the physical link cycle-by-cycle);
* every slot an input FIFO frees (a pop, a purge, the switch's death)
  is handed back to the upstream link with ``return_credit``; credit
  and ON/OFF links count on it, ACK/NACK links probe the buffer on
  delivery instead.  The switch holds those links itself
  (``in_links``): a link delivers into an input port, and the port
  holds nothing that leads back;
* each tick first takes the flits that landed on its credit and ON/OFF
  in-links in earlier cycles into the port FIFOs (under the event
  kernel nothing else delivers them; under the reference kernel the
  links have already delivered them, and the take finds nothing).

Switch state is int-indexed.  Output ports are numbered in sorted
downstream-name order (the arbitration order), input VC *slots* as
``input index * num_vcs + vc`` in sorted upstream-name order.  A
ready flit's output index is looked up by its next node's name, and
requests, wormhole locks, arbiters and per-output counters are flat
lists over those indices, built once: a switch is constructed with all
its links, so its ports never change after ``__init__``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.arch.arbiter import RoundRobinArbiter, TdmaArbiter
from repro.arch.link import AckNackLink, Link
from repro.arch.packet import Flit, MessageClass
from repro.arch.parameters import ArbitrationKind, NocParameters
from repro.arch.slots import Slotted

# Hoisted enum member: the GT test runs once per buffered head flit per
# switch tick, and ``MessageClass.GUARANTEED`` costs a class __getattr__
# on every evaluation.
_GT = MessageClass.GUARANTEED


class InputPort(Slotted):
    """Per-upstream-neighbour input: one FIFO per virtual channel.

    Implements the link Receiver contract's ``accept``; the owning
    switch pops the FIFOs and returns each slot to the upstream link.
    Each buffered flit carries its *ready cycle* — arrival plus the
    router pipeline depth — so multi-stage switches are modelled by
    delaying eligibility, not by extra buffer structures.  A FIFO is a
    plain list: it never holds more than ``buffer_depth`` flits, so
    popping its head is cheap.  ``wakeup`` is the event kernel's hook,
    fired on every accept (an ACK/NACK link's delivery, or a link phase
    run by ``step()``) so the delivery activates the switch.
    """

    __slots__ = ("depth", "_latency", "buffers", "peak_occupancy", "wakeup")
    _unpickled = ("wakeup",)

    def __init__(self, params: NocParameters):
        self.depth = params.buffer_depth
        # Pipeline depth is fixed at construction; cached so accept()
        # (one call per flit-hop) skips the params attribute chase.
        self._latency = params.switch_latency_cycles
        # Each entry: (flit, earliest cycle it may be forwarded).
        self.buffers: List[List[Tuple[Flit, int]]] = [
            [] for __ in range(params.num_vcs)
        ]
        self.peak_occupancy = 0  # deepest any single VC FIFO ever got
        self.wakeup: Optional[Callable[[], None]] = None

    def accept(self, flit: Flit, cycle: int) -> bool:
        """Buffer a flit delivered in ``cycle``'s link phase.

        The flit may be forwarded from ``cycle + latency`` on.
        """
        buf = self.buffers[flit.vc]
        if len(buf) >= self.depth:
            return False
        buf.append((flit, cycle + self._latency))
        occupied = len(buf)
        if occupied > self.peak_occupancy:
            self.peak_occupancy = occupied
        wakeup = self.wakeup
        if wakeup is not None:
            wakeup()
        return True

    @property
    def occupancy(self) -> int:
        return sum(len(b) for b in self.buffers)


class SwitchModel(Slotted):
    """One switch instance inside the simulator.

    ``inputs`` maps each upstream node to the link arriving from it and
    ``outputs`` each downstream node to the link leaving toward it.  The
    switch keeps the input links as ``in_links``, makes an
    :class:`InputPort` per input link, connects the link to it, and
    keeps the ports as ``inputs``.

    The flat ``_scan`` list drives tick()'s sweep over every (input, VC)
    FIFO, and ``_wires`` pairs each credit or ON/OFF in-link's
    ``_in_flight`` list with its port.  Caching these lists is safe
    because they are created once and only ever mutated in place
    (purge/fail clear-and-extend, never rebind), so the references stay
    live across faults, purges and checkpoint restores.
    """

    __slots__ = (
        "name", "params", "inputs", "in_links", "outputs", "_tdma", "trace",
        "flits_forwarded", "failed", "flits_dropped", "contention_losers",
        "lock_hold_cycles", "locks_taken", "_sorted_outputs", "out_index",
        "_out_links", "_scan", "_wires", "_nvcs", "_nslots", "_rr", "_locks",
        "_lock_owner", "_lock_since", "_arbiters", "_tdma_at", "_requests",
        "_stalls", "_stall_mark", "_contention",
    )
    _unpickled = ("trace",)

    def __init__(self, name: str, params: NocParameters,
                 inputs: Mapping[str, Link], outputs: Mapping[str, Link]):
        self.name = name
        self.params = params
        self.inputs: Dict[str, InputPort] = {}
        self.in_links: Dict[str, Link] = dict(inputs)
        for upstream, link in self.in_links.items():
            port = InputPort(params)
            link.connect(port)
            self.inputs[upstream] = port
        self.outputs: Dict[str, Link] = dict(outputs)
        self._tdma: Dict[str, TdmaArbiter] = {}
        self.trace = None  # optional callback(cycle, flit) on forward
        self.flits_forwarded = 0
        self.failed = False  # a dead switch neither buffers nor forwards
        self.flits_dropped = 0
        # Observability counters (repro.obs): cheap always-on integers in
        # the same spirit as flits_forwarded/peak_occupancy.  They live
        # on blocked or per-packet paths, never on the per-flit fast path.
        self.contention_losers = 0  # candidates denied by arbitration
        self.lock_hold_cycles = 0   # accumulated wormhole-lock hold time
        self.locks_taken = 0        # completed (head..tail) wormhole locks

        nvcs = params.num_vcs
        self._sorted_outputs = sorted(self.outputs)
        #: downstream node -> output index (the order arbitration visits)
        self.out_index = {
            name: i for i, name in enumerate(self._sorted_outputs)
        }
        self._out_links = [self.outputs[n] for n in self._sorted_outputs]
        self._scan = [
            (i * nvcs + vc, vc, self.inputs[up].buffers[vc], self.in_links[up])
            for i, up in enumerate(sorted(self.inputs))
            for vc in range(nvcs)
        ]
        self._wires = [
            (link._in_flight, self.inputs[up])
            for up, link in self.in_links.items()
            if not isinstance(link, AckNackLink)
        ]
        nout = len(self._sorted_outputs)
        self._nvcs = nvcs
        self._nslots = len(self.inputs) * nvcs
        self._rr = params.arbitration is not ArbitrationKind.FIXED_PRIORITY
        # Wormhole ownership per (output index * nvcs + output VC): the
        # owning input slot (-1 when free), the owning packet (to
        # release locks of purged packets without disturbing healthy
        # wormholes) and the cycle the lock was taken.
        self._locks = [-1] * (nout * nvcs)
        self._lock_owner: List[Optional[object]] = [None] * (nout * nvcs)
        self._lock_since = [0] * (nout * nvcs)
        self._arbiters = [
            RoundRobinArbiter(self._nslots) if self._nslots else None
            for __ in range(nout)
        ]
        self._tdma_at: List[Optional[TdmaArbiter]] = [None] * nout
        # Per-output candidate lists, filled and emptied within a tick.
        self._requests: List[Optional[list]] = [None] * nout
        self._stalls = [0] * nout       # downstream link refused
        self._stall_mark = [-1] * nout  # last cycle counted in _stalls
        self._contention = [0] * nout   # more than one candidate

    def set_tdma_table(self, downstream: str, arbiter: TdmaArbiter) -> None:
        """Install an Aethereal slot table on one output port."""
        if downstream not in self.outputs:
            raise KeyError(f"no output to {downstream!r}")
        self._tdma[downstream] = arbiter
        self._tdma_at[self.out_index[downstream]] = arbiter

    # ------------------------------------------------------------------
    # Per-cycle operation
    # ------------------------------------------------------------------
    def tick(self, cycle: int) -> bool:
        """Arbitrate each output port and forward at most one flit on it.

        All (input, VC) head flits are scanned exactly once, so an input
        FIFO supplies at most one flit per cycle (the crossbar's input
        bandwidth constraint) and each output link carries at most one.

        Returns whether the switch still holds flits (False for a dead
        switch).  The event kernel keeps the switch active while it
        does; the reference kernel ignores the return value.
        """
        # Take what landed before this cycle, as land() does but inline
        # (a call per tick costs more than the take).  A dead switch's
        # ports fill too; its death and repair decide what becomes of
        # the flits.
        for wire, port in self._wires:
            while wire and wire[0][0] < cycle:
                due, flit = wire.pop(0)
                buf = port.buffers[flit.vc]
                if len(buf) >= port.depth:  # pragma: no cover - flow control prevents this
                    raise RuntimeError(f"switch {self.name}: receiver overflow")
                buf.append((flit, due + port._latency))
                if len(buf) > port.peak_occupancy:
                    port.peak_occupancy = len(buf)
        if self.failed:
            return False
        out_links = self._out_links
        locks = self._locks
        nvcs = self._nvcs
        requests = self._requests
        touched = None  # output indices with candidates, in scan order
        held = 0  # non-empty FIFOs, less those a pop below empties
        for slot, vc, buf, in_link in self._scan:
            if not buf:
                continue
            held += 1
            flit, ready = buf[0]
            if cycle < ready:
                continue
            packet = flit.packet
            hop = flit.hop
            route = packet.route
            oi = self.out_index.get(
                route[hop + 1] if hop + 1 < len(route) else None, -1
            )
            if oi < 0:
                raise RuntimeError(
                    f"switch {self.name}: flit routed to unknown output "
                    f"{route[hop + 1] if hop + 1 < len(route) else None!r}"
                )
            vc_path = packet.vc_path
            out_vc = vc_path[hop] if vc_path is not None else 0
            if packet.message_class is not _GT:
                # GT flits own their time slots end to end; slot
                # reservation already serializes them, so only
                # best-effort traffic takes wormhole locks.
                li = oi * nvcs + out_vc
                owner = locks[li]
                if flit.is_head:
                    if owner >= 0 and owner != slot:
                        continue  # VC busy with another packet
                elif owner != slot:
                    continue  # only the owner may send body/tail
            else:
                li = -1
            link = out_links[oi]
            if not link.can_send(out_vc, cycle):
                if self._stall_mark[oi] != cycle:
                    self._stall_mark[oi] = cycle
                    self._stalls[oi] += 1
                continue
            cand = (slot, vc, flit, out_vc, link, li, in_link, buf)
            cand_list = requests[oi]
            if cand_list is None:
                requests[oi] = [cand]
                if touched is None:
                    touched = [oi]
                else:
                    touched.append(oi)
            else:
                cand_list.append(cand)
        if touched is not None:
            if len(touched) > 1:
                touched.sort()
            tdma_at = self._tdma_at if self._tdma else None
            for oi in touched:
                candidates = requests[oi]
                requests[oi] = None
                tdma = tdma_at[oi] if tdma_at is not None else None
                if len(candidates) == 1 and tdma is None:
                    # Uncontended output without a slot table (the
                    # overwhelmingly common case): grant the lone
                    # requester.  Round-robin still advances its
                    # pointer past the winner, exactly as a grant would.
                    winner = candidates[0]
                    if self._rr:
                        self._arbiters[oi]._pointer = (
                            winner[0] + 1
                        ) % self._nslots
                else:
                    if len(candidates) > 1:
                        self._contention[oi] += 1
                        self.contention_losers += len(candidates) - 1
                    winner = self._arbitrate(oi, tdma, candidates, cycle)
                    if winner is None:
                        continue
                __, vc, flit, out_vc, link, li, in_link, buf = winner
                buf.pop(0)
                in_link.return_credit(vc, cycle)
                if not buf:
                    held -= 1
                flit.vc = out_vc
                if li >= 0:  # best-effort: wormhole lock ops
                    if flit.is_head:
                        locks[li] = winner[0]
                        self._lock_owner[li] = flit.packet
                        self._lock_since[li] = cycle
                    if flit.is_tail:
                        locks[li] = -1
                        self._lock_owner[li] = None
                        self.lock_hold_cycles += cycle - self._lock_since[li] + 1
                        self.locks_taken += 1
                link.send(flit, cycle)
                flit.hop += 1
                self.flits_forwarded += 1
                if self.trace is not None:
                    self.trace(cycle, flit)
        return held > 0

    def land(self, cycle: int) -> None:
        """Take every flit that landed before ``cycle`` into its FIFO,
        as the link phase of its landing cycle would have."""
        for wire, port in self._wires:
            while wire and wire[0][0] < cycle:
                due, flit = wire.pop(0)
                buf = port.buffers[flit.vc]
                if len(buf) >= port.depth:  # pragma: no cover - flow control prevents this
                    raise RuntimeError(f"switch {self.name}: receiver overflow")
                buf.append((flit, due + port._latency))
                if len(buf) > port.peak_occupancy:
                    port.peak_occupancy = len(buf)

    def _arbitrate(
        self,
        oi: int,
        tdma: Optional[TdmaArbiter],
        candidates: List[tuple],
        cycle: int,
    ) -> Optional[tuple]:
        n = self._nslots
        requests = [False] * n
        by_slot: Dict[int, tuple] = {}
        for cand in candidates:
            s = cand[0]
            requests[s] = True
            by_slot[s] = cand

        if tdma is not None:
            connection_of: List[Optional[int]] = [None] * n
            for s, cand in by_slot.items():
                flit = cand[2]
                if flit.packet.message_class is _GT:
                    connection_of[s] = flit.packet.connection_id
            granted = tdma.grant(cycle, requests, connection_of)
        elif not self._rr:
            granted = next((i for i, r in enumerate(requests) if r), None)
        else:
            granted = self._arbiters[oi].grant(requests)
        if granted is None:
            return None
        return by_slot[granted]

    # ------------------------------------------------------------------
    # Fault injection and recovery support
    # ------------------------------------------------------------------
    def _release_locks(self, keep=None) -> None:
        for li, owner in enumerate(self._lock_owner):
            if owner is not None and (keep is None or not keep(owner)):
                self._locks[li] = -1
                self._lock_owner[li] = None

    def fail(self, cycle: int) -> int:
        """Kill the switch: drop all buffered flits, stop forwarding."""
        self.failed = True
        dropped = 0
        for upstream, in_link in self.in_links.items():
            for vc, buf in enumerate(self.inputs[upstream].buffers):
                dropped += len(buf)
                for __ in buf:
                    in_link.return_credit(vc, cycle)
                buf.clear()
        self.flits_dropped += dropped
        self._release_locks()
        return dropped

    def repair(self, cycle: int) -> None:
        """Bring a dead switch back (buffers start empty)."""
        self.failed = False

    def purge(self, predicate, cycle: int) -> int:
        """Drop buffered flits whose packet matches ``predicate``.

        Purged flits' slots return upstream, and wormhole locks owned by
        purged packets are released so the output VCs they were holding
        become available again.  The recovery controller purges after
        the link phase.
        """
        purged = 0
        for upstream, in_link in self.in_links.items():
            for buf in self.inputs[upstream].buffers:
                keep = []
                for flit, ready in buf:
                    if predicate(flit.packet):
                        in_link.return_credit(
                            flit.vc, cycle, after_links=True
                        )
                        purged += 1
                    else:
                        keep.append((flit, ready))
                buf.clear()
                buf.extend(keep)
        self._release_locks(keep=lambda owner: not predicate(owner))
        return purged

    @property
    def occupancy(self) -> int:
        """Total flits buffered in this switch (stats/idle detection)."""
        return sum(port.occupancy for port in self.inputs.values())

    # ------------------------------------------------------------------
    # Observability aggregates (repro.obs reads these)
    # ------------------------------------------------------------------
    def _per_output(self, counts: str) -> Dict[str, int]:
        return dict(zip(self._sorted_outputs, getattr(self, counts)))

    @property
    def stall_cycles_by_output(self) -> Dict[str, int]:
        """Cycles in which a ready flit bound for each output was refused
        by downstream flow control (credit exhaustion / OFF backpressure)."""
        return self._per_output("_stalls")

    @property
    def contention_cycles_by_output(self) -> Dict[str, int]:
        """Cycles in which each output port had more than one candidate."""
        return self._per_output("_contention")

    @property
    def stall_cycles(self) -> int:
        """Stall cycles summed over output ports."""
        return sum(self._stalls)

    @property
    def contention_cycles(self) -> int:
        """Contention cycles summed over output ports."""
        return sum(self._contention)

    @property
    def mean_lock_hold_cycles(self) -> float:
        """Average wormhole-lock hold time of completed packets."""
        if self.locks_taken == 0:
            return 0.0
        return self.lock_hold_cycles / self.locks_taken
