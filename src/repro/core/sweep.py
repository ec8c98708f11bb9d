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

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.core.baselines import mesh_baseline, star_baseline
from repro.core.evaluate import DesignPoint
from repro.core.pareto import DEFAULT_OBJECTIVES, Objectives, pareto_front
from repro.core.spec import CommunicationSpec
from repro.core.synthesis import TopologySynthesizer
from repro.physical.floorplan import Floorplan
from repro.physical.technology import TechNode, TechnologyLibrary


@dataclass
class SweepResult:
    """Everything the exploration produced."""

    points: List[DesignPoint]
    front: List[DesignPoint]
    baselines: List[DesignPoint]

    @property
    def feasible_points(self) -> List[DesignPoint]:
        return [p for p in self.points if p.feasible]

    def best_by(self, objective: str) -> DesignPoint:
        feasible = self.feasible_points
        if not feasible:
            raise ValueError("no feasible design point")
        return min(feasible, key=lambda p: (getattr(p, objective), p.name))


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
        parallel: bool = False,
        workers: Optional[int] = None,
        cache=None,
        store=None,
    ) -> SweepResult:
        """Run the sweep; returns all points and the Pareto front.

        With ``parallel=True`` (or any of ``workers``/``cache``/``store``
        set) the sweep is delegated to :mod:`repro.lab`: design points
        become content-addressed jobs run by up to ``workers`` supervised
        child processes, previously computed points are reused
        from ``cache``, and every result can be persisted to ``store``.
        The point list is byte-identical to the serial path.
        """
        if parallel or workers is not None or cache is not None \
                or store is not None:
            from repro.lab.sweeps import run_synthesis_sweep

            sweep, _ = run_synthesis_sweep(
                self.spec,
                switch_counts=switch_counts,
                frequencies_hz=frequencies_hz,
                flit_widths=flit_widths,
                include_baselines=include_baselines,
                tech_node=self.tech.node,
                floorplan=self.synthesizer.input_floorplan,
                objectives=objectives,
                workers=workers,
                cache=cache,
                store=store,
            )
            return sweep
        n = len(self.spec.core_names)
        if switch_counts is None:
            switch_counts = sorted({max(1, n // 4), max(2, n // 3),
                                    max(2, n // 2), max(2, (2 * n) // 3), n})
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
                for freq in frequencies_hz:
                    baselines.append(
                        mesh_baseline(
                            self.spec,
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
