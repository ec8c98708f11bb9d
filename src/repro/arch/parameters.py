"""NoC architectural parameters — the xpipes instantiation knobs.

The paper stresses that xpipes is "a parametrized library ... and a NoC
hardware compiler ... customizable at instantiation time for a specific
application domain".  This dataclass is that parameter bundle: every
component model (switch, NI, link) and the simulator read their
configuration from here, and the synthesis sweep in
:mod:`repro.core.sweep` explores this space.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum


class FlowControlKind(Enum):
    """Link-level flow control (Section 3, Fig. 1).

    * ``CREDIT`` — credit-based: the sender tracks free downstream slots
      exactly; the reference scheme.
    * ``ON_OFF`` — backpressure: "backpressure from the downstream switch
      stalls the transmission until there is sufficient buffering
      capacity.  In this case, output buffers can be omitted."
    * ``ACK_NACK`` — flits are sent speculatively and "have to be
      retransmitted until the downstream router has sufficient capacity
      to store and accept them", so output (retransmission) buffers are
      required.
    """

    CREDIT = "credit"
    ON_OFF = "on_off"
    ACK_NACK = "ack_nack"


class ArbitrationKind(Enum):
    ROUND_ROBIN = "round_robin"
    FIXED_PRIORITY = "fixed_priority"
    TDMA = "tdma"  # Aethereal-style GT slots + BE round-robin


@dataclass(frozen=True)
class NocParameters:
    """One point in the xpipes configuration space.

    Attributes
    ----------
    flit_width:
        Payload bits per flit (also the link data width).
    buffer_depth:
        Input FIFO depth per (port, VC), in flits.
    output_buffer_depth:
        Output FIFO depth per port; must be > 0 for ACK/NACK.
    num_vcs:
        Virtual channels per link (1 = plain wormhole, xpipes default).
    flow_control:
        Link-level flow control protocol.
    arbitration:
        Output-port arbitration policy.
    header_bits:
        Route/control bits carried by the head flit (source-routing
        field, packet id, etc.); determines how much payload the head
        flit loses.
    max_packet_flits:
        Upper bound on packet length accepted by the NIs.
    onoff_threshold:
        Free-slot threshold under which ON/OFF asserts OFF.  Each link
        raises it to its own delay (within the buffer depth), which
        covers the flits its stale sample cannot see.
    ack_nack_window:
        Retransmission window (= output buffer slots reserved per link).
    switch_latency_cycles:
        Router pipeline depth: cycles between a flit entering an input
        buffer and its earliest possible forwarding.  1 models the
        minimal xpipes-style switch; real 65 nm routers pipeline 2-4
        stages to hit frequency (the Fig. 2 timing pressure).
    """

    flit_width: int = 32
    buffer_depth: int = 4
    output_buffer_depth: int = 0
    num_vcs: int = 1
    flow_control: FlowControlKind = FlowControlKind.ON_OFF
    arbitration: ArbitrationKind = ArbitrationKind.ROUND_ROBIN
    header_bits: int = 16
    max_packet_flits: int = 64
    onoff_threshold: int = 2
    ack_nack_window: int = 4
    switch_latency_cycles: int = 1

    def __post_init__(self) -> None:
        if self.flit_width < 8:
            raise ValueError("flit width must be >= 8 bits")
        if self.buffer_depth < 1:
            raise ValueError("buffer depth must be >= 1")
        if self.output_buffer_depth < 0:
            raise ValueError("output buffer depth must be >= 0")
        if self.num_vcs < 1:
            raise ValueError("need at least one virtual channel")
        if self.header_bits < 1:
            raise ValueError("header bits must be >= 1")
        if self.max_packet_flits < 1:
            raise ValueError("max packet flits must be >= 1")
        if self.onoff_threshold < 1:
            raise ValueError("ON/OFF threshold must be >= 1")
        if self.onoff_threshold > self.buffer_depth:
            raise ValueError("ON/OFF threshold cannot exceed buffer depth")
        if self.ack_nack_window < 1:
            raise ValueError("ACK/NACK window must be >= 1")
        if self.switch_latency_cycles < 1:
            raise ValueError("switch latency must be >= 1 cycle")
        if (
            self.flow_control is FlowControlKind.ACK_NACK
            and self.output_buffer_depth < self.ack_nack_window
        ):
            raise ValueError(
                "ACK/NACK flow control requires output buffers covering the "
                "retransmission window (Section 3 of the paper)"
            )

    def with_(self, **changes) -> "NocParameters":
        """Return a modified copy (sweep helper)."""
        return replace(self, **changes)


DEFAULT_PARAMETERS = NocParameters()
