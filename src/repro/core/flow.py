"""The end-to-end NoC design tool flow — Fig. 6 of the paper.

One facade runs the whole iNoCs-style pipeline:

    spec (+ optional floorplan, technology)
      -> component characterization      (repro.physical)
      -> topology synthesis sweep        (repro.core.sweep)
      -> Pareto front                    (repro.core.pareto)
      -> chosen instance                 (knee point or user choice)
      -> RTL-style netlist               (repro.core.netlist)
      -> simulation model                (repro.core.simgen)
      -> verification                    (repro.core.verification)

"All this information is fed into the design toolchain ... From the set
of all Pareto optimal points, the designer can then choose a NoC
instance.  Then, the RTL of the topology is automatically generated.
The tools also generate simulation models (high level as well as RTL)
with traffic generators." (Section 6)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.arch.parameters import NocParameters
from repro.core.evaluate import DesignPoint
from repro.core.netlist import Netlist, generate_netlist, to_verilog
from repro.core.pareto import knee_point
from repro.core.spec import CommunicationSpec
from repro.core.sweep import DesignSpaceExplorer, SweepResult
from repro.core.verification import VerificationReport, verify_design
from repro.physical.floorplan import Floorplan
from repro.physical.technology import TechNode, TechnologyLibrary


@dataclass
class FlowResult:
    """Everything the tool flow hands back to the designer."""

    sweep: SweepResult
    chosen: DesignPoint
    netlist: Netlist
    verilog: str
    verification: VerificationReport

    @property
    def pareto_front(self) -> List[DesignPoint]:
        return self.sweep.front


class NocDesignFlow:
    """The Fig. 6 pipeline, spec in, verified NoC instance out."""

    def __init__(
        self,
        spec: CommunicationSpec,
        floorplan: Optional[Floorplan] = None,
        tech_node: TechNode = TechNode.NM_65,
    ):
        self.spec = spec
        self.tech = TechnologyLibrary.for_node(tech_node)
        self.floorplan = floorplan
        self.explorer = DesignSpaceExplorer(spec, self.tech, floorplan)

    def run(
        self,
        switch_counts: Optional[Sequence[int]] = None,
        frequencies_hz: Sequence[float] = (400e6, 600e6, 800e6),
        flit_widths: Sequence[int] = (32,),
        params: Optional[NocParameters] = None,
        verify_cycles: int = 3000,
        choose: Optional[DesignPoint] = None,
    ) -> FlowResult:
        """Execute the full flow.

        ``choose`` overrides the automatic knee-point selection with a
        specific design point (the designer's pick from the front).
        """
        sweep = self.explorer.explore(
            switch_counts=switch_counts,
            frequencies_hz=frequencies_hz,
            flit_widths=flit_widths,
        )
        if choose is not None:
            chosen = choose
        else:
            if not sweep.front:
                raise RuntimeError(
                    "no feasible design point found; relax frequency or "
                    "bandwidth constraints"
                )
            chosen = knee_point(sweep.front)
        effective = params or NocParameters(flit_width=chosen.flit_width)
        netlist = generate_netlist(
            chosen.topology, chosen.routing_table, effective
        )
        verification = verify_design(
            chosen, self.spec, effective, sim_cycles=verify_cycles
        )
        return FlowResult(
            sweep=sweep,
            chosen=chosen,
            netlist=netlist,
            verilog=to_verilog(netlist),
            verification=verification,
        )
