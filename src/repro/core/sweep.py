"""Design-space exploration: the synthesis sweep of the Fig. 6 flow.

"Based on the specifications, the topology synthesis tool builds several
topologies with different switch counts and architectural parameters
... with each design point having different power, area and performance
values." (Section 6)

:class:`DesignSpaceExplorer` sweeps switch count, frequency and flit
width, adds the standard-topology baselines, and returns all points
plus the Pareto front.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.baselines import _mesh_network, _score_mesh, star_baseline
from repro.core.evaluate import DesignPoint
from repro.core.pareto import DEFAULT_OBJECTIVES, Objectives, pareto_front
from repro.core.spec import CommunicationSpec
from repro.core.synthesis import TopologySynthesizer
from repro.physical.floorplan import Floorplan
from repro.physical.technology import TechNode, TechnologyLibrary


def default_switch_counts(num_cores: int) -> Tuple[int, ...]:
    """The explorer's default sweep of switch counts for ``n`` cores."""
    n = num_cores
    return tuple(sorted({max(1, n // 4), max(2, n // 3), max(2, n // 2),
                         max(2, (2 * n) // 3), n}))


@dataclass
class SweepResult:
    """Everything the exploration produced."""

    points: List[DesignPoint]
    front: List[DesignPoint]
    baselines: List[DesignPoint]

    @property
    def feasible_points(self) -> List[DesignPoint]:
        return [p for p in self.points if p.feasible]


class DesignSpaceExplorer:
    """Sweeps the synthesis knobs over one communication spec."""

    def __init__(
        self,
        spec: CommunicationSpec,
        tech: Optional[TechnologyLibrary] = None,
        floorplan: Optional[Floorplan] = None,
    ):
        self.spec = spec
        self.tech = tech or TechnologyLibrary.for_node(TechNode.NM_65)
        self.synthesizer = TopologySynthesizer(spec, self.tech, floorplan)

    def explore(
        self,
        switch_counts: Optional[Sequence[int]] = None,
        frequencies_hz: Sequence[float] = (400e6, 600e6, 800e6),
        flit_widths: Sequence[int] = (32,),
        include_baselines: bool = True,
        objectives: Objectives = DEFAULT_OBJECTIVES,
    ) -> SweepResult:
        """Run the sweep; returns all points and the Pareto front.

        To fan the design points out over worker processes, with a
        result cache and store, run the same sweep through
        :func:`repro.lab.run_synthesis_sweep`; its point list is
        byte-identical to this one.
        """
        n = len(self.spec.core_names)
        if switch_counts is None:
            switch_counts = default_switch_counts(n)
        points: List[DesignPoint] = []
        for width in flit_widths:
            for freq in frequencies_hz:
                for k in switch_counts:
                    if k < 1 or k > n:
                        continue
                    result = self.synthesizer.synthesize(
                        k, frequency_hz=freq, flit_width=width
                    )
                    points.append(result.design)
        baselines: List[DesignPoint] = []
        if include_baselines:
            for width in flit_widths:
                mesh_network = _mesh_network(self.spec, width)
                for freq in frequencies_hz:
                    baselines.append(
                        _score_mesh(
                            self.spec,
                            mesh_network,
                            self.synthesizer.evaluator,
                            frequency_hz=freq,
                            flit_width=width,
                        )
                    )
                    baselines.append(
                        star_baseline(
                            self.spec,
                            self.synthesizer.evaluator,
                            frequency_hz=freq,
                            flit_width=width,
                        )
                    )
        front = pareto_front(points, objectives)
        return SweepResult(points=points, front=front, baselines=baselines)
