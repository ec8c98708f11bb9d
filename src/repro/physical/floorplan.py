"""Block-level floorplanning with incremental NoC-component insertion.

Reproduces the floorplan-aware synthesis loop of SunFloor [11][12] and the
iNoCs flow (Fig. 6):

* the designer supplies an *early floorplan of the SoC without the
  interconnect* (or just relative block positions);
* topology synthesis uses block positions to estimate wire lengths,
  delays and power **during** synthesis;
* once a topology is chosen, the NoC components (switches, NIs) are
  inserted at the best positions "while marginally perturbing the initial
  floorplan input" — incremental floorplanning.

The placer is deterministic: NoC components are placed at the weighted
centroid of the blocks they connect to, then legalized onto free sites
found by a spiral search, so the original block placement is never moved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass
class Block:
    """A placed rectangular block (core, switch or NI).

    Coordinates are the lower-left corner, in millimeters.
    """

    name: str
    width_mm: float
    height_mm: float
    x_mm: float = 0.0
    y_mm: float = 0.0
    fixed: bool = False

    def __post_init__(self) -> None:
        if self.width_mm <= 0 or self.height_mm <= 0:
            raise ValueError(f"block {self.name!r} must have positive dimensions")

    @property
    def center(self) -> Tuple[float, float]:
        return (self.x_mm + self.width_mm / 2.0, self.y_mm + self.height_mm / 2.0)

    @property
    def area_mm2(self) -> float:
        return self.width_mm * self.height_mm

    def overlaps(self, other: "Block", margin: float = 0.0) -> bool:
        """Axis-aligned overlap test with an optional spacing margin."""
        return not (
            self.x_mm + self.width_mm + margin <= other.x_mm
            or other.x_mm + other.width_mm + margin <= self.x_mm
            or self.y_mm + self.height_mm + margin <= other.y_mm
            or other.y_mm + other.height_mm + margin <= self.y_mm
        )


def spacing_bounds(
    block: Block, margin: float
) -> Tuple[float, float, float, float]:
    """A placed block's side of :meth:`Block.overlaps`, summed once:
    ``(x, x + w + margin, y, y + h + margin)``."""
    return (
        block.x_mm,
        block.x_mm + block.width_mm + margin,
        block.y_mm,
        block.y_mm + block.height_mm + margin,
    )


def fits(
    x: float,
    y: float,
    width: float,
    height: float,
    margin: float,
    bounds: Iterable[Tuple[float, float, float, float]],
) -> bool:
    """Whether a ``width`` x ``height`` block at ``(x, y)`` overlaps none
    of the :func:`spacing_bounds` — :meth:`Block.overlaps` evaluated term
    for term, without building the block."""
    x1 = x + width + margin
    y1 = y + height + margin
    for ox, ox1, oy, oy1 in bounds:
        if not (x1 <= ox or ox1 <= x or y1 <= oy or oy1 <= y):
            return False
    return True


def manhattan(a: Tuple[float, float], b: Tuple[float, float]) -> float:
    """Manhattan distance between two points — the on-chip wire metric."""
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


class Floorplan:
    """A set of placed blocks plus distance queries.

    The floorplan is the physical substrate of the whole tool flow: wire
    lengths between any two blocks' centers feed the delay and power
    models during topology synthesis.
    """

    def __init__(self, blocks: Iterable[Block] = ()):
        self._blocks: Dict[str, Block] = {}
        for block in blocks:
            self.add(block)

    # ------------------------------------------------------------------
    def add(self, block: Block) -> None:
        if block.name in self._blocks:
            raise ValueError(f"duplicate block {block.name!r}")
        self._blocks[block.name] = block

    def __contains__(self, name: str) -> bool:
        return name in self._blocks

    def __len__(self) -> int:
        return len(self._blocks)

    def __iter__(self):
        return iter(self._blocks.values())

    def block(self, name: str) -> Block:
        try:
            return self._blocks[name]
        except KeyError:
            raise KeyError(f"no block named {name!r} in floorplan") from None

    @property
    def names(self) -> List[str]:
        return list(self._blocks)

    # ------------------------------------------------------------------
    def distance_mm(self, a: str, b: str) -> float:
        """Center-to-center Manhattan distance between two blocks."""
        return manhattan(self.block(a).center, self.block(b).center)

    def bounding_box(self) -> Tuple[float, float, float, float]:
        """(xmin, ymin, xmax, ymax) of all blocks."""
        if not self._blocks:
            return (0.0, 0.0, 0.0, 0.0)
        xs0 = [b.x_mm for b in self._blocks.values()]
        ys0 = [b.y_mm for b in self._blocks.values()]
        xs1 = [b.x_mm + b.width_mm for b in self._blocks.values()]
        ys1 = [b.y_mm + b.height_mm for b in self._blocks.values()]
        return (min(xs0), min(ys0), max(xs1), max(ys1))

    @property
    def die_area_mm2(self) -> float:
        x0, y0, x1, y1 = self.bounding_box()
        return (x1 - x0) * (y1 - y0)

    def hpwl(self, nets: Sequence[Sequence[str]]) -> float:
        """Half-perimeter wirelength of a set of nets (block-name lists)."""
        total = 0.0
        for net in nets:
            if len(net) < 2:
                continue
            centers = [self.block(n).center for n in net]
            xs = [c[0] for c in centers]
            ys = [c[1] for c in centers]
            total += (max(xs) - min(xs)) + (max(ys) - min(ys))
        return total

    def has_overlaps(self, margin: float = 0.0) -> bool:
        blocks = list(self._blocks.values())
        for i, a in enumerate(blocks):
            for b in blocks[i + 1:]:
                if a.overlaps(b, margin=margin):
                    return True
        return False

    def copy(self) -> "Floorplan":
        return Floorplan(
            Block(b.name, b.width_mm, b.height_mm, b.x_mm, b.y_mm, b.fixed)
            for b in self._blocks.values()
        )

    # ------------------------------------------------------------------
    @staticmethod
    def grid(
        names: Sequence[str],
        block_width_mm: float = 1.0,
        block_height_mm: float = 1.0,
        columns: Optional[int] = None,
        spacing_mm: float = 0.1,
    ) -> "Floorplan":
        """Regular grid placement — the default when no floorplan is given.

        Mirrors the tool flow's fallback: "Instead of a floorplan, a
        simpler metric can be used, such as the relative distance between
        the blocks".
        """
        if not names:
            raise ValueError("need at least one block")
        cols = columns or max(1, math.ceil(math.sqrt(len(names))))
        fp = Floorplan()
        for i, name in enumerate(names):
            row, col = divmod(i, cols)
            fp.add(
                Block(
                    name=name,
                    width_mm=block_width_mm,
                    height_mm=block_height_mm,
                    x_mm=col * (block_width_mm + spacing_mm),
                    y_mm=row * (block_height_mm + spacing_mm),
                )
            )
        return fp


@dataclass
class _Insertion:
    name: str
    width_mm: float
    height_mm: float
    attached_to: List[Tuple[str, float]]  # (block name, connection weight)


class IncrementalFloorplanner:
    """Insert NoC components into an existing floorplan.

    Original blocks are never moved ("marginally perturbing the initial
    floorplan input"); each new component is placed at the weighted
    centroid of its attached blocks, then legalized to the nearest
    non-overlapping site via a deterministic spiral search over a fine
    grid.
    """

    def __init__(self, floorplan: Floorplan, margin_mm: float = 0.02):
        self.base = floorplan
        self.margin_mm = margin_mm
        self._pending: List[_Insertion] = []

    def insert(
        self,
        name: str,
        width_mm: float,
        height_mm: float,
        attached_to: Sequence[Tuple[str, float]],
    ) -> None:
        """Queue a component for insertion.

        ``attached_to`` lists (existing block name, weight) pairs; the
        weight is typically the bandwidth on the connection, so hot links
        pull the component closer.
        """
        if not attached_to:
            raise ValueError(f"component {name!r} must attach to at least one block")
        for blk, weight in attached_to:
            if blk not in self.base:
                raise KeyError(f"component {name!r} attaches to unknown block {blk!r}")
            if weight < 0:
                raise ValueError("connection weights must be non-negative")
        self._pending.append(_Insertion(name, width_mm, height_mm, list(attached_to)))

    def place(self) -> Floorplan:
        """Place all queued components; returns the augmented floorplan."""
        result = self.base.copy()
        rings: Dict[int, List[Tuple[float, float]]] = {}
        for item in self._pending:
            target = self._weighted_centroid(result, item)
            placed = self._legalize(result, item, target, rings)
            result.add(placed)
        return result

    # ------------------------------------------------------------------
    @staticmethod
    def _weighted_centroid(fp: Floorplan, item: _Insertion) -> Tuple[float, float]:
        total_w = sum(w for _, w in item.attached_to)
        if total_w <= 0:
            # Unweighted average if all weights are zero.
            pts = [fp.block(n).center for n, _ in item.attached_to]
            return (
                sum(p[0] for p in pts) / len(pts),
                sum(p[1] for p in pts) / len(pts),
            )
        x = sum(fp.block(n).center[0] * w for n, w in item.attached_to) / total_w
        y = sum(fp.block(n).center[1] * w for n, w in item.attached_to) / total_w
        return (x, y)

    def _legalize(
        self,
        fp: Floorplan,
        item: _Insertion,
        target: Tuple[float, float],
        rings: Dict[int, List[Tuple[float, float]]],
    ) -> Block:
        """Spiral-search the nearest overlap-free site around ``target``.

        ``rings`` maps a ring's candidate count to its ``(cos, sin)``
        table; it is filled on first use and shared across insertions.
        """
        x0, y0, x1, y1 = fp.bounding_box()
        # Allow placement slightly outside the current bounding box: the
        # die grows marginally rather than forcing overlaps.
        width, height, margin = item.width_mm, item.height_mm, self.margin_mm
        slack = max(width, height) * 4 + 1.0
        step = max(min(width, height) / 2.0, 0.05)
        half_w, half_h = width / 2.0, height / 2.0
        tx, ty = target

        bounds = [spacing_bounds(other, margin) for other in fp]
        if fits(tx - half_w, ty - half_h, width, height, margin, bounds):
            return Block(item.name, width, height, tx - half_w, ty - half_h)
        # Expanding rings of candidate centers around the target.
        radius = step
        while radius < slack + max(x1 - x0, y1 - y0):
            steps = max(8, int(2 * math.pi * radius / step))
            table = rings.get(steps)
            if table is None:
                table = rings[steps] = [
                    (math.cos(angle), math.sin(angle))
                    for angle in (2 * math.pi * k / steps for k in range(steps))
                ]
            # Every candidate center lies within ``radius`` of the target
            # on each axis, so only blocks that reach this band can
            # collide.  The band's edges use the same float operations
            # as a candidate's, so rounding cannot hide a collision.
            lo_x = (tx - radius) - half_w
            lo_y = (ty - radius) - half_h
            hi_x1 = (tx + radius) - half_w + width + margin
            hi_y1 = (ty + radius) - half_h + height + margin
            near = [
                b for b in bounds
                if hi_x1 > b[0] and b[1] > lo_x and hi_y1 > b[2] and b[3] > lo_y
            ]
            best = None
            for k, (cos_a, sin_a) in enumerate(table):
                cx = tx + radius * cos_a
                cy = ty + radius * sin_a
                x = cx - half_w
                y = cy - half_h
                xe = x + width + margin
                ye = y + height + margin
                for ox, ox1, oy, oy1 in near:
                    if not (xe <= ox or ox1 <= x or ye <= oy or oy1 <= y):
                        break
                else:
                    d = abs(cx - tx) + abs(cy - ty)
                    if best is None or d < best[0]:
                        best = (d, x, y)
            if best is not None:
                return Block(item.name, width, height, best[1], best[2])
            radius += step
        raise RuntimeError(f"could not legalize component {item.name!r}")
