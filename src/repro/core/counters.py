"""Hot-loop counters: where a run's tuples went, counted where they go.

One holder class per tier, owned from construction by the state it
counts — :class:`MatchProfile` by every
:class:`~repro.indexes.gi2.GI2Index`, :class:`RouteProfile` by every
:class:`~repro.indexes.gridt.GridTIndex`, :class:`DedupProfile` by every
:class:`~repro.runtime.merger.MergerNode` — and always counting: there is
no off switch (like the always-on message/byte counters of
``fabric.Channel``).  They are deterministic pure counts, so two runs of
one stream read identical values on every backend.

A holder leaves its owner only as :meth:`ProfileEvent.event` — a copy
stamped with the endpoint it describes, which is what rides the
``profile`` field of an :class:`~repro.runtime.telemetry.Observation`.
The owner's ``profile`` attribute stays *assignable*: whoever replaces
an index mid-run (a dispatch shard re-syncing its replica, the cluster
swapping routing structures) re-attaches the holder that has counted so
far, so a run's counters cover the whole stream.

The classes live in :mod:`repro.core` because both ``repro.indexes`` and
``repro.runtime`` count into them; :mod:`repro.runtime.profiling`
re-exports them beside the report and the stack sampler.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar, TypeVar

__all__ = ["DedupProfile", "MatchProfile", "ProfileEvent", "RouteProfile"]

_E = TypeVar("_E", bound="ProfileEvent")


@dataclass(slots=True)
class ProfileEvent:
    """Base of the per-tier counters (lint rule RL003 walks its subclasses).

    ``endpoint_id`` is ``-1`` on a live holder and on the coordinator's
    inline routing; :meth:`event` stamps the real one.
    """

    endpoint_id: int = -1

    def event(self: _E, endpoint_id: int) -> _E:
        """An independent copy of the counts so far, stamped for ``endpoint_id``."""
        return replace(self, endpoint_id=endpoint_id)


@dataclass(slots=True)
class MatchProfile(ProfileEvent):
    """One worker's GI2 matching counters for the run so far.

    Invariant (checked by ``tests/test_profiling.py``):
    ``postings_scanned >= candidates >= matches`` — every candidate check
    walks a posting entry, and every match passed a candidate check
    (``candidates`` skips postings already matched or lazily deleted, so
    it can undercut ``postings_scanned``).
    """

    cells_probed: int = 0
    postings_scanned: int = 0
    candidates: int = 0
    matches: int = 0


@dataclass(slots=True)
class RouteProfile(ProfileEvent):
    """One routing replica's GridT counters for the run so far.

    ``endpoint_id`` is the dispatch shard id, or ``-1`` for the
    coordinator's inline routing (the ``inline`` dispatch backend and
    the batched engine's fused arrival scan).  Every routed object
    probes exactly one cell and takes exactly one of the two paths, so
    :meth:`GridTIndex.route_cell` pays one increment per call and
    ``cells_probed`` is their sum.
    """

    probes: int = 0
    fallback_routes: int = 0
    #: Vestige of the deleted route memo, not a field: the frozen
    #: ``benchmarks/e2e/bench.py`` reads this name to print
    #: ``gridt.cache_hit_ratio``, which therefore stays 0.0.
    cache_hits: ClassVar[int] = 0

    @property
    def cells_probed(self) -> int:
        return self.probes + self.fallback_routes


@dataclass(slots=True)
class DedupProfile(ProfileEvent):
    """One merger shard's dedup counters for the run so far.

    ``lookups`` counts dedup-set membership tests (one per received
    result), ``duplicates`` the results suppressed, ``evictions`` the
    keys pushed out of the sliding window.  Unlike the period counters
    of :class:`~repro.runtime.merger.MergerNode`, these survive
    ``reset_period`` — a profile always covers the whole run.
    """

    lookups: int = 0
    duplicates: int = 0
    evictions: int = 0
