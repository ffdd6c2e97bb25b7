"""Unit tests for the uniform grid."""

import pytest

from repro.core.geometry import Point, Rect
from repro.indexes.grid import UniformGrid


@pytest.fixture
def grid():
    return UniformGrid(Rect(0, 0, 100, 50), columns=10, rows=5)


class TestConstruction:
    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            UniformGrid(Rect(0, 0, 1, 1), 0, 5)

    def test_degenerate_bounds_rejected(self):
        with pytest.raises(ValueError):
            UniformGrid(Rect(0, 0, 0, 1), 2, 2)

    def test_cell_sizes(self, grid):
        assert grid.cell_width == pytest.approx(10.0)
        assert grid.cell_height == pytest.approx(10.0)
        assert grid.columns * grid.rows == 50


class TestCellOf:
    def test_interior_points(self, grid):
        assert grid.cell_of(Point(5, 5)) == (0, 0)
        assert grid.cell_of(Point(95, 45)) == (9, 4)
        assert grid.cell_of(Point(15, 25)) == (1, 2)

    def test_boundary_points_clamped(self, grid):
        assert grid.cell_of(Point(100, 50)) == (9, 4)
        assert grid.cell_of(Point(0, 0)) == (0, 0)

    def test_out_of_range_points_clamped(self, grid):
        assert grid.cell_of(Point(-10, -10)) == (0, 0)
        assert grid.cell_of(Point(1000, 1000)) == (9, 4)


class TestCellRect:
    def test_cell_rect_contains_its_points(self, grid):
        cell = grid.cell_of(Point(37, 23))
        assert grid.cell_rect(cell).contains_point(Point(37, 23))

    def test_cell_rects_tile_bounds(self, grid):
        total = sum(grid.cell_rect(cell).area for cell in grid.all_cells())
        assert total == pytest.approx(grid.bounds.area)

    def test_invalid_cell_raises(self, grid):
        with pytest.raises(ValueError):
            grid.cell_rect((10, 0))

    def test_cell_center_inside_cell(self, grid):
        rect = grid.cell_rect((3, 2))
        assert rect.contains_point(grid.cell_center((3, 2)))


class TestCellsOverlapping:
    def test_small_rect_single_cell(self, grid):
        assert grid.cells_overlapping(Rect(1, 1, 2, 2)) == [(0, 0)]

    def test_rect_spanning_cells(self, grid):
        cells = grid.cells_overlapping(Rect(5, 5, 25, 15))
        assert set(cells) == {(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)}

    def test_full_bounds(self, grid):
        assert len(grid.cells_overlapping(grid.bounds)) == grid.columns * grid.rows

    def test_rect_outside_bounds_clamps(self, grid):
        cells = grid.cells_overlapping(Rect(200, 200, 300, 300))
        assert cells == [(9, 4)]

    def test_every_overlapping_cell_really_intersects(self, grid):
        probe = Rect(12, 3, 47, 28)
        for cell in grid.cells_overlapping(probe):
            assert grid.cell_rect(cell).intersects(probe)
