"""Query migration between workers (Section V): the worker-side moves and
the routing-index swap the adjusters drive.

Every function takes the cluster it acts on and is bound on ``Cluster``
under the same name (``cluster.migrate_cells(...)``); each one that changes
H1 is a declared mutator and bumps the routing version (lint rule RL005).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

from ..indexes.grid import CellCoord
from ..indexes.gridt import GridTIndex
from .protocol import mutates_routing
from .worker import QueryAssignment

if TYPE_CHECKING:
    from .cluster import Cluster

__all__ = [
    "MigrationRecord",
    "migrate_cells",
    "migrate_keywords",
    "migration_seconds",
    "replace_routing_index",
]


@dataclass(frozen=True)
class MigrationRecord:
    """Outcome of one cell (or keyword) migration between two workers.

    ``queries_moved`` counts queries whose postings lived entirely inside
    the shipped ``(cell, posting keyword)`` pairs — they leave the source
    worker.  ``queries_copied`` counts queries that keep a remainder on
    the source (postings in cells/keywords that stay); the target receives
    only their shipped pairs, never the full footprint.  Both kinds cross
    the network once, so the migration cost of Section V (``bytes_moved``,
    ``seconds``) covers their sum.
    """

    source_worker: int
    target_worker: int
    cells: Tuple[CellCoord, ...]
    queries_moved: int
    bytes_moved: int
    seconds: float
    queries_copied: int = 0

    @property
    def queries_shipped(self) -> int:
        """Total queries transferred over the network (moved + copied)."""
        return self.queries_moved + self.queries_copied


def migration_seconds(cluster: "Cluster", bytes_moved: int, queries_shipped: int) -> float:
    """Simulated wall-clock cost of one migration (Section V)."""
    return (
        cluster.config.migration_fixed_seconds
        + bytes_moved / cluster.config.migration_bandwidth_bytes_per_sec
        + queries_shipped
        * cluster.config.cost_model.insert_handling
        * cluster.config.cost_unit_seconds
    )


def _record_migration(
    cluster: "Cluster",
    source_worker: int,
    target_worker: int,
    cells: Tuple[CellCoord, ...],
    shipped: List[QueryAssignment],
) -> MigrationRecord:
    """Account one shipment of query assignments as a migration."""
    moved = sum(1 for assignment in shipped if assignment.moved)
    bytes_moved = sum(assignment.query.size_bytes() for assignment in shipped)
    record = MigrationRecord(
        source_worker=source_worker,
        target_worker=target_worker,
        cells=cells,
        queries_moved=moved,
        bytes_moved=bytes_moved,
        seconds=migration_seconds(cluster, bytes_moved, len(shipped)),
        queries_copied=len(shipped) - moved,
    )
    cluster.migrations.append(record)
    return record


@mutates_routing
def migrate_cells(
    cluster: "Cluster",
    source_worker: int,
    target_worker: int,
    cells: Sequence[CellCoord],
) -> MigrationRecord:
    """Move the query assignments of ``cells`` from one worker to another.

    For every live query registered in the migrated cells, exactly the
    ``(cell, posting keyword)`` pairs it owns there are extracted from
    the source and re-registered on the target — the same
    posting-plan mechanism the dispatcher uses at insertion time, so
    worker memory stays flat across adjustment rounds.  Queries whose
    postings lived entirely in the migrated cells leave the source
    (*moved*); queries that also overlap cells staying behind keep
    their remaining pairs on the source (*copied*).  The dispatcher
    routing index is updated to point the migrated cells at the target
    worker, and the routing version is bumped.
    """
    source = cluster.workers[source_worker]
    target = cluster.workers[target_worker]
    moving = set(cells)
    shipped = source.extract_cells(moving)
    target.install_queries(shipped)
    cluster.routing_index.migrate_cells(moving, source_worker, target_worker)
    cluster.invalidate_routing_caches()
    return _record_migration(cluster, source_worker, target_worker, tuple(moving), shipped)


@mutates_routing
def migrate_keywords(
    cluster: "Cluster",
    source_worker: int,
    target_worker: int,
    cell: CellCoord,
    keywords: Iterable[str],
) -> Optional[MigrationRecord]:
    """Ship one cell's postings for ``keywords`` to the target worker.

    The worker-side half of a Phase I text split
    (:meth:`GridTIndex.split_cell_by_text` is the routing half, applied
    by the caller): every live query posted in ``cell`` under one of
    the reassigned keywords hands exactly those ``(cell, keyword)``
    pairs to the target.  Returns the migration record, or ``None``
    when no posting matched (the split moved no resident queries).
    """
    source = cluster.workers[source_worker]
    target = cluster.workers[target_worker]
    shipped = source.extract_keywords(cell, set(keywords))
    cluster.invalidate_routing_caches()
    if not shipped:
        return None
    target.install_queries(shipped)
    return _record_migration(cluster, source_worker, target_worker, (cell,), shipped)


@mutates_routing
def replace_routing_index(cluster: "Cluster", routing_index: GridTIndex) -> None:
    """Swap in a new routing structure (global load adjustment).

    The workers' GI2 indexes hold ``(cell, posting keyword)`` pairs in
    the cluster's grid, so a structure over any other grid is rejected.
    """
    if routing_index.grid != cluster.routing_index.grid:
        raise ValueError(
            "routing index grid %r differs from the cluster's %r"
            % (routing_index.grid, cluster.routing_index.grid)
        )
    # The inline-routing counters survive the swap: the incoming
    # structure takes over the holder that has counted so far, so a
    # run's profile covers the whole stream.
    routing_index.profile = cluster.routing_index.profile
    cluster.routing_index = routing_index
    cluster.invalidate_routing_caches()
