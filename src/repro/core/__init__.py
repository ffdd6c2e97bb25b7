"""Core data model of the PS2Stream reproduction.

This package contains the paper's primitive types — geometry, text
processing, boolean keyword expressions, spatio-textual objects, STS
queries — and the cost model (Definitions 1 and 3) shared by the
partitioners, the dynamic load adjusters and the cluster simulator.
"""

from .costmodel import CostModel, LoadReport, WorkerLoadCounters, cell_load
from .expression import BooleanExpression, ExpressionParseError, parse_expression
from .geometry import Point, Rect, bounding_rect, km_to_degrees
from .objects import (
    MatchResult,
    QueryDeletion,
    QueryInsertion,
    SpatioTextualObject,
    STSQuery,
    StreamTuple,
    TupleKind,
)
from .text import TermStatistics, cosine_similarity, tokenize

__all__ = [
    "BooleanExpression",
    "CostModel",
    "ExpressionParseError",
    "LoadReport",
    "MatchResult",
    "Point",
    "QueryDeletion",
    "QueryInsertion",
    "Rect",
    "STSQuery",
    "SpatioTextualObject",
    "StreamTuple",
    "TermStatistics",
    "TupleKind",
    "WorkerLoadCounters",
    "bounding_rect",
    "cell_load",
    "cosine_similarity",
    "km_to_degrees",
    "parse_expression",
    "tokenize",
]
