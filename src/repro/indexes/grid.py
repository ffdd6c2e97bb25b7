"""A uniform spatial grid over a bounding rectangle.

The grid is the spatial backbone of two paper components:

* the worker-side GI2 index divides its space into ``2^k x 2^k`` cells and
  keeps one inverted index per cell (Section IV-D);
* the dispatcher-side gridt index uses the same cell layout to hold the
  per-cell term-to-worker hash maps (Section IV-C).

Cells are addressed by ``(column, row)`` pairs; helper methods convert
points and rectangles into cell coordinates.  Points outside the bounding
rectangle are clamped to the nearest border cell, which mirrors how a real
deployment would handle slightly out-of-range GPS fixes rather than
dropping them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Tuple

from ..core.geometry import Point, Rect

__all__ = ["UniformGrid", "CellCoord"]

CellCoord = Tuple[int, int]


@dataclass(frozen=True)
class UniformGrid:
    """Geometry of a ``columns x rows`` uniform grid over ``bounds``."""

    bounds: Rect
    columns: int
    rows: int
    #: Extent of one cell, derived once from ``bounds`` (``cell_of`` runs
    #: per object and must not recompute it).
    cell_width: float = field(init=False, repr=False, compare=False)
    cell_height: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.columns <= 0 or self.rows <= 0:
            raise ValueError("grid dimensions must be positive")
        if self.bounds.width <= 0 or self.bounds.height <= 0:
            raise ValueError("grid bounds must have positive area")
        object.__setattr__(self, "cell_width", self.bounds.width / self.columns)
        object.__setattr__(self, "cell_height", self.bounds.height / self.rows)

    # ------------------------------------------------------------------
    # Point / rectangle mapping
    # ------------------------------------------------------------------
    def cell_of(self, point: Point) -> CellCoord:
        """The cell containing ``point`` (out-of-range points are clamped)."""
        return self.cell_at(point.x, point.y)

    def cell_at(self, x: float, y: float) -> CellCoord:
        """The cell containing ``(x, y)`` (out-of-range points are clamped)."""
        bounds = self.bounds
        col = int((x - bounds.min_x) / self.cell_width)
        row = int((y - bounds.min_y) / self.cell_height)
        if col < 0:
            col = 0
        elif col >= self.columns:
            col = self.columns - 1
        if row < 0:
            row = 0
        elif row >= self.rows:
            row = self.rows - 1
        return (col, row)

    def frame(self) -> Tuple[float, float, float, float, int, int]:
        """``(min_x, min_y, cell width, cell height, last column, last row)``:
        what a hot loop needs to compute :meth:`cell_at` inline."""
        bounds = self.bounds
        return (bounds.min_x, bounds.min_y, self.cell_width, self.cell_height,
                self.columns - 1, self.rows - 1)

    def cell_rect(self, cell: CellCoord) -> Rect:
        """The spatial extent of ``cell``."""
        col, row = cell
        if not (0 <= col < self.columns and 0 <= row < self.rows):
            raise ValueError("cell %r outside grid" % (cell,))
        return Rect(
            self.bounds.min_x + col * self.cell_width,
            self.bounds.min_y + row * self.cell_height,
            self.bounds.min_x + (col + 1) * self.cell_width,
            self.bounds.min_y + (row + 1) * self.cell_height,
        )

    def cell_center(self, cell: CellCoord) -> Point:
        return self.cell_rect(cell).center

    def cells_overlapping(self, rect: Rect) -> List[CellCoord]:
        """All cells whose extent intersects ``rect``.

        The query rectangle is clipped to the grid bounds first; a query
        entirely outside the bounds overlaps the nearest border cells, so
        that subscriptions just outside the data region are still indexed
        somewhere deterministic.
        """
        min_col, min_row = self.cell_at(rect.min_x, rect.min_y)
        max_col, max_row = self.cell_at(rect.max_x, rect.max_y)
        return [
            (col, row)
            for row in range(min_row, max_row + 1)
            for col in range(min_col, max_col + 1)
        ]

    def all_cells(self) -> Iterator[CellCoord]:
        for row in range(self.rows):
            for col in range(self.columns):
                yield (col, row)
