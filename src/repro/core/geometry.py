"""Planar geometry primitives used throughout PS2Stream.

The paper works with geographic coordinates (latitude / longitude) but all
of its algorithms only need axis-aligned rectangles and points, so the
primitives here are plain 2-D Euclidean shapes.  ``Point`` and ``Rect`` are
immutable value objects: every index and partitioner in the library stores
and exchanges them freely without defensive copying.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Optional, Tuple

__all__ = ["Point", "Rect", "bounding_rect", "km_to_degrees"]


@dataclass(frozen=True, order=True)
class Point:
    """A point in the plane.

    ``x`` is longitude-like and ``y`` latitude-like, but nothing in the
    library assumes geographic semantics except the helpers that convert
    kilometre side lengths into degrees when synthesising query ranges.
    """

    x: float
    y: float

    def as_tuple(self) -> Tuple[float, float]:
        """Return ``(x, y)``."""
        return (self.x, self.y)


@dataclass(frozen=True)
class Rect:
    """An axis-aligned rectangle ``[min_x, max_x] x [min_y, max_y]``.

    Rectangles are closed on all sides: a point lying exactly on the border
    is considered contained.  Degenerate rectangles (zero width or height)
    are permitted; they behave like segments or points.
    """

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self) -> None:
        if self.min_x > self.max_x or self.min_y > self.max_y:
            raise ValueError(
                "invalid rectangle: (%r, %r, %r, %r)"
                % (self.min_x, self.min_y, self.max_x, self.max_y)
            )

    def __reduce__(self) -> Tuple[Any, ...]:
        """Pickle the four bounds positionally (the fabric's wire contract);
        the receiver rebuilds through the constructor, so a received
        rectangle is validated."""
        return (type(self), (self.min_x, self.min_y, self.max_x, self.max_y))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_center(cls, center: Point, width: float, height: float) -> "Rect":
        """Build a rectangle of the given size centred on ``center``."""
        half_w = width / 2.0
        half_h = height / 2.0
        return cls(center.x - half_w, center.y - half_h, center.x + half_w, center.y + half_h)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def width(self) -> float:
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        return self.max_y - self.min_y

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Point:
        return Point((self.min_x + self.max_x) / 2.0, (self.min_y + self.max_y) / 2.0)

    @property
    def corners(self) -> Tuple[Point, Point, Point, Point]:
        """The four corners in counter-clockwise order starting at min/min."""
        return (
            Point(self.min_x, self.min_y),
            Point(self.max_x, self.min_y),
            Point(self.max_x, self.max_y),
            Point(self.min_x, self.max_y),
        )

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    def contains_point(self, point: Point) -> bool:
        """True when ``point`` lies inside or on the border."""
        return (
            self.min_x <= point.x <= self.max_x
            and self.min_y <= point.y <= self.max_y
        )

    def contains_rect(self, other: "Rect") -> bool:
        """True when ``other`` lies entirely inside this rectangle."""
        return (
            self.min_x <= other.min_x
            and self.min_y <= other.min_y
            and self.max_x >= other.max_x
            and self.max_y >= other.max_y
        )

    def intersects(self, other: "Rect") -> bool:
        """True when the two rectangles overlap (border contact counts)."""
        return not (
            self.max_x < other.min_x
            or other.max_x < self.min_x
            or self.max_y < other.min_y
            or other.max_y < self.min_y
        )

    def intersection(self, other: "Rect") -> Optional["Rect"]:
        """The overlapping rectangle, or ``None`` when disjoint."""
        if not self.intersects(other):
            return None
        return Rect(
            max(self.min_x, other.min_x),
            max(self.min_y, other.min_y),
            min(self.max_x, other.max_x),
            min(self.max_y, other.max_y),
        )

    def union(self, other: "Rect") -> "Rect":
        """The smallest rectangle containing both rectangles."""
        return Rect(
            min(self.min_x, other.min_x),
            min(self.min_y, other.min_y),
            max(self.max_x, other.max_x),
            max(self.max_y, other.max_y),
        )

    def enlargement_area(self, other: "Rect") -> float:
        """How much the area grows when unioned with ``other``.

        Used by the R-tree insertion heuristic.
        """
        return self.union(other).area - self.area

    # ------------------------------------------------------------------
    # Splitting (used by kd-tree style partitioning)
    # ------------------------------------------------------------------
    def split_x(self, x: float) -> Tuple["Rect", "Rect"]:
        """Split vertically at ``x`` into (left, right)."""
        if not (self.min_x <= x <= self.max_x):
            raise ValueError("split coordinate %r outside rectangle" % x)
        left = Rect(self.min_x, self.min_y, x, self.max_y)
        right = Rect(x, self.min_y, self.max_x, self.max_y)
        return left, right

    def split_y(self, y: float) -> Tuple["Rect", "Rect"]:
        """Split horizontally at ``y`` into (bottom, top)."""
        if not (self.min_y <= y <= self.max_y):
            raise ValueError("split coordinate %r outside rectangle" % y)
        bottom = Rect(self.min_x, self.min_y, self.max_x, y)
        top = Rect(self.min_x, y, self.max_x, self.max_y)
        return bottom, top

    def split(self, axis: int, coordinate: float) -> Tuple["Rect", "Rect"]:
        """Split along ``axis`` (0 = x, 1 = y) at ``coordinate``."""
        if axis == 0:
            return self.split_x(coordinate)
        if axis == 1:
            return self.split_y(coordinate)
        raise ValueError("axis must be 0 or 1, got %r" % axis)

    def as_tuple(self) -> Tuple[float, float, float, float]:
        """Return ``(min_x, min_y, max_x, max_y)``."""
        return (self.min_x, self.min_y, self.max_x, self.max_y)


def bounding_rect(points: Iterable[Point]) -> Rect:
    """The minimum bounding rectangle of a non-empty point collection."""
    iterator = iter(points)
    try:
        first = next(iterator)
    except StopIteration:
        raise ValueError("bounding_rect() requires at least one point") from None
    min_x = max_x = first.x
    min_y = max_y = first.y
    for point in iterator:
        min_x = min(min_x, point.x)
        max_x = max(max_x, point.x)
        min_y = min(min_y, point.y)
        max_y = max(max_y, point.y)
    return Rect(min_x, min_y, max_x, max_y)


def km_to_degrees(km: float, latitude_deg: float = 0.0) -> Tuple[float, float]:
    """Approximate degree extents (d_lon, d_lat) of a ``km`` long segment.

    Query generators use this to turn the paper's "side length between 1 km
    and 50 km" specification into rectangle extents in coordinate space.
    """
    d_lat = km / 110.574
    d_lon = km / (111.320 * max(math.cos(math.radians(latitude_deg)), 1e-6))
    return d_lon, d_lat
