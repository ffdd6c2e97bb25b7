"""Unit tests for repro.core.geometry."""


import pytest

from repro.core.geometry import Point, Rect, bounding_rect, km_to_degrees


class TestPoint:
    def test_as_tuple(self):
        assert Point(1.5, 2.5).as_tuple() == (1.5, 2.5)

    def test_points_are_hashable_and_comparable(self):
        assert len({Point(1, 2), Point(1, 2), Point(2, 1)}) == 2
        assert Point(1, 2) < Point(2, 0)


class TestRectConstruction:
    def test_invalid_rect_raises(self):
        with pytest.raises(ValueError):
            Rect(5, 0, 1, 10)
        with pytest.raises(ValueError):
            Rect(0, 5, 10, 1)

    def test_degenerate_rect_allowed(self):
        r = Rect(1, 1, 1, 1)
        assert r.area == 0.0
        assert r.contains_point(Point(1, 1))

    def test_from_center(self):
        r = Rect.from_center(Point(5, 5), 4, 2)
        assert r.as_tuple() == (3, 4, 7, 6)


class TestRectProperties:
    def test_dimensions(self):
        r = Rect(0, 0, 4, 3)
        assert r.width == 4
        assert r.height == 3
        assert r.area == 12
        assert r.center == Point(2.0, 1.5)

    def test_corners_order(self):
        r = Rect(0, 0, 2, 1)
        assert r.corners == (Point(0, 0), Point(2, 0), Point(2, 1), Point(0, 1))


class TestRectPredicates:
    def test_contains_point_border_inclusive(self):
        r = Rect(0, 0, 10, 10)
        assert r.contains_point(Point(0, 0))
        assert r.contains_point(Point(10, 10))
        assert r.contains_point(Point(5, 5))
        assert not r.contains_point(Point(10.001, 5))

    def test_contains_rect(self):
        outer = Rect(0, 0, 10, 10)
        assert outer.contains_rect(Rect(1, 1, 9, 9))
        assert outer.contains_rect(outer)
        assert not outer.contains_rect(Rect(5, 5, 11, 9))

    def test_intersects_touching_edges(self):
        assert Rect(0, 0, 1, 1).intersects(Rect(1, 0, 2, 1))
        assert not Rect(0, 0, 1, 1).intersects(Rect(1.01, 0, 2, 1))

    def test_intersection_value(self):
        a = Rect(0, 0, 5, 5)
        b = Rect(3, 2, 8, 9)
        assert a.intersection(b).as_tuple() == (3, 2, 5, 5)

    def test_intersection_disjoint_is_none(self):
        assert Rect(0, 0, 1, 1).intersection(Rect(2, 2, 3, 3)) is None

    def test_union(self):
        assert Rect(0, 0, 1, 1).union(Rect(2, 2, 3, 3)).as_tuple() == (0, 0, 3, 3)

    def test_enlargement_area(self):
        a = Rect(0, 0, 2, 2)
        assert a.enlargement_area(Rect(0, 0, 1, 1)) == 0.0
        assert a.enlargement_area(Rect(0, 0, 4, 2)) == pytest.approx(4.0)


class TestRectSplit:
    def test_split_x(self):
        left, right = Rect(0, 0, 10, 4).split_x(4)
        assert left.as_tuple() == (0, 0, 4, 4)
        assert right.as_tuple() == (4, 0, 10, 4)

    def test_split_y(self):
        bottom, top = Rect(0, 0, 10, 4).split_y(1)
        assert bottom.as_tuple() == (0, 0, 10, 1)
        assert top.as_tuple() == (0, 1, 10, 4)

    def test_split_axis_dispatch(self):
        r = Rect(0, 0, 2, 2)
        assert r.split(0, 1)[0].as_tuple() == r.split_x(1)[0].as_tuple()
        assert r.split(1, 1)[0].as_tuple() == r.split_y(1)[0].as_tuple()
        with pytest.raises(ValueError):
            r.split(2, 1)

    def test_split_outside_raises(self):
        with pytest.raises(ValueError):
            Rect(0, 0, 1, 1).split_x(2)

    def test_split_children_tile_parent(self):
        parent = Rect(-3, -1, 7, 9)
        left, right = parent.split_x(2.5)
        assert left.union(right).as_tuple() == parent.as_tuple()
        assert left.area + right.area == pytest.approx(parent.area)


class TestHelpers:
    def test_bounding_rect(self):
        rect = bounding_rect([Point(1, 5), Point(-2, 3), Point(4, -1)])
        assert rect.as_tuple() == (-2, -1, 4, 5)

    def test_bounding_rect_empty_raises(self):
        with pytest.raises(ValueError):
            bounding_rect([])

    def test_km_to_degrees_roundtrip(self):
        d_lon, d_lat = km_to_degrees(111.0, latitude_deg=0.0)
        assert d_lat == pytest.approx(1.0, abs=0.01)
        assert d_lon == pytest.approx(1.0, abs=0.01)

    def test_km_to_degrees_shrinks_with_latitude(self):
        d_lon_eq, _ = km_to_degrees(50.0, latitude_deg=0.0)
        d_lon_north, _ = km_to_degrees(50.0, latitude_deg=60.0)
        assert d_lon_north > d_lon_eq  # same km needs more degrees up north
