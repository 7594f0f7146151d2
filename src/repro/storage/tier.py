"""The storage tier: every PASS volume's WAP pipeline, one facade.

Each PASS volume has exactly one pipeline, as in the paper (sections
5.1 and 5.6): one Lasagna write-ahead provenance log, drained by one
Waldo into one ProvenanceDatabase.  :class:`StorageTier` is the single
place that builds those pipelines and drives them:

* :meth:`StorageTier.sync` flushes and rotates every volume's log,
  then drains every volume's Waldo, one volume after another;
* queries federate at the query layer: :meth:`federated_sources` hands
  every volume's database to ``QueryEngine.live``, whose OEM graph is
  arrival-order-insensitive, so cross-volume joins resolve in one
  merged graph;
* drained segments are archived per volume and compacted under a
  :class:`CompactionPolicy`, so the store survives months of churn with
  bounded memory.

``System.boot``, crashlab, the benchmarks, and the CLI all construct
storage through this facade.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.errors import NotPassVolume
from repro.obs import NULL_OBS
from repro.storage import recovery
from repro.storage.database import ProvenanceDatabase
from repro.storage.lasagna import Lasagna
from repro.storage.log import LogSegment
from repro.storage.recovery import RecoveryReport
from repro.storage.waldo import Waldo


@dataclass(frozen=True)
class CompactionPolicy:
    """Bounds on each volume's drained-segment archive.

    Once either bound is exceeded the oldest archived segments are
    folded into :class:`CompactedExtent` summaries (index range, record
    and byte counts) and their raw bytes are reclaimed.
    """

    max_segments: int = 16
    max_bytes: int = 4 * 1024 * 1024


@dataclass
class CompactedExtent:
    """Summary left behind when archived segments are compacted away."""

    first_index: int
    last_index: int
    segments: int
    records: int
    nbytes: int


class SegmentArchive:
    """Drained log segments retained for one volume, bounded by policy.

    Waldo hands every segment here after ingesting it; the archive is
    forensic state (what the database was built from), not a
    correctness dependency -- compaction can always reclaim it.
    """

    def __init__(self, policy: Optional[CompactionPolicy] = None):
        self.policy = policy or CompactionPolicy()
        self.segments: list[LogSegment] = []
        self.extents: list[CompactedExtent] = []
        self.segments_archived = 0
        self.segments_compacted = 0
        self.bytes_reclaimed = 0

    @property
    def archived_bytes(self) -> int:
        return sum(segment.nbytes for segment in self.segments)

    def add(self, segment: LogSegment) -> None:
        """Archive one drained segment, then re-establish the bounds."""
        self.segments.append(segment)
        self.segments_archived += 1
        self.compact()

    def _over_policy(self) -> bool:
        return (len(self.segments) > self.policy.max_segments
                or self.archived_bytes > self.policy.max_bytes)

    def compact(self, force: bool = False) -> int:
        """Fold the oldest segments into summary extents until the
        archive is within policy (all of them when ``force``); returns
        the bytes reclaimed by this pass."""
        reclaimed = 0
        while self.segments and (force or self._over_policy()):
            segment = self.segments.pop(0)
            self._fold(segment)
            self.segments_compacted += 1
            reclaimed += segment.nbytes
        self.bytes_reclaimed += reclaimed
        return reclaimed

    def _fold(self, segment: LogSegment) -> None:
        if self.extents and self.extents[-1].last_index < segment.index:
            extent = self.extents[-1]
            extent.last_index = segment.index
            extent.segments += 1
            extent.records += len(segment.records)
            extent.nbytes += segment.nbytes
            return
        self.extents.append(CompactedExtent(
            first_index=segment.index, last_index=segment.index,
            segments=1, records=len(segment.records),
            nbytes=segment.nbytes))

    def stats(self) -> dict:
        return {
            "segments": len(self.segments),
            "archived_bytes": self.archived_bytes,
            "extents": len(self.extents),
            "segments_archived": self.segments_archived,
            "segments_compacted": self.segments_compacted,
            "bytes_reclaimed": self.bytes_reclaimed,
        }


class _Pipeline:
    """One PASS volume's Lasagna and Waldo (tier-internal); the Waldo
    holds the volume's database and segment archive."""

    def __init__(self, volume, lasagna: Lasagna, waldo: Waldo):
        self.volume = volume
        self.lasagna = lasagna
        self.waldo = waldo

    @property
    def name(self) -> str:
        return self.volume.name


class StorageTier:
    """Facade over every PASS volume's storage pipeline."""

    def __init__(self, obs=NULL_OBS, faults=None, batching: bool = True):
        self.obs = obs
        self._faults = faults
        self.batching = batching
        self._volumes: dict[str, _Pipeline] = {}
        self._collector_registered = False
        self.drains = 0
        self.federations = 0

    # -- construction -----------------------------------------------------------

    def attach(self, volume, params=None) -> None:
        """Build one PASS volume's pipeline (Lasagna and its log, Waldo,
        database, archive) and make its Lasagna and every other volume's
        peers (cross-volume WAP).  The one construction site
        ``System.boot`` uses for the whole storage layer."""
        lasagna = Lasagna(volume, params, obs=self.obs, faults=self._faults)
        for pipe in self._volumes.values():
            pipe.lasagna.peers.append(lasagna)
            lasagna.peers.append(pipe.lasagna)
        waldo = Waldo(lasagna.log, name=volume.name, obs=self.obs,
                      faults=self._faults, batching=self.batching,
                      archive=SegmentArchive())
        self._volumes[volume.name] = _Pipeline(volume, lasagna, waldo)
        if not self._collector_registered:
            self._collector_registered = True
            self.obs.add_collector("tier", self._obs_counters)

    # -- accessors --------------------------------------------------------------

    def _pipeline(self, volume: Optional[str] = None) -> _Pipeline:
        """One volume's pipeline (the first PASS volume by default);
        raises :class:`NotPassVolume` naming the volume when the tier
        has no such pipeline."""
        if volume is None:
            if not self._volumes:
                raise NotPassVolume(
                    "no PASS volume has a storage pipeline "
                    "(booted with provenance=False?)")
            volume = next(iter(self._volumes))
        try:
            return self._volumes[volume]
        except KeyError:
            raise NotPassVolume(
                f"volume {volume!r} has no storage pipeline (PASS "
                f"volumes: {', '.join(self._volumes) or 'none'})"
            ) from None

    def volumes(self) -> list[str]:
        return list(self._volumes)

    def __bool__(self) -> bool:
        return bool(self._volumes)

    def lasagna(self, volume: str) -> Lasagna:
        return self._pipeline(volume).lasagna

    def waldo(self, volume: str) -> Waldo:
        return self._pipeline(volume).waldo

    def archive(self, volume: str) -> SegmentArchive:
        return self._pipeline(volume).waldo.archive

    def database(self, volume: Optional[str] = None) -> ProvenanceDatabase:
        """One volume's database (the first PASS volume by default)."""
        return self._pipeline(volume).waldo.database

    def databases(self) -> list[ProvenanceDatabase]:
        """Every volume's database, volume order."""
        return [pipe.waldo.database for pipe in self._volumes.values()]

    # -- ingest path ------------------------------------------------------------

    def sync(self) -> int:
        """Flush + rotate every volume's log, then drain every volume;
        returns records inserted (the ``System.sync`` work)."""
        for pipe in self._volumes.values():
            pipe.lasagna.sync()
        return self.drain()

    def drain(self) -> int:
        """Drain every volume's Waldo in volume order; returns records
        inserted."""
        self.drains += 1
        inserted = 0
        for pipe in self._volumes.values():
            waldo = pipe.waldo
            if self._faults is not None:
                self._faults.fire("shard.drain.pre", volume=pipe.name,
                                  segments=waldo.pending_segment_count)
            inserted += waldo.drain()
        return inserted

    # -- query federation --------------------------------------------------------

    def federated_sources(self) -> list[ProvenanceDatabase]:
        """Every volume's database: the sources of the merge-at-query
        federation.  ``QueryEngine.live`` over this list builds one
        merged OEM graph (kept current by each database's push feed), so
        cross-volume joins resolve in one graph -- answers merge at the
        graph, never per volume."""
        sources = self.databases()
        self.federations += 1
        if self._faults is not None:
            self._faults.fire("federate.merge",
                              volumes=len(self._volumes),
                              sources=len(sources))
        self.obs.event("tier.federate", layer="tier",
                       sources=len(sources))
        return sources

    # -- rollups -----------------------------------------------------------------

    def sizes(self, volume: Optional[str] = None) -> dict:
        """Tier-wide (or one volume's) database/index byte sizes: totals
        sum over the volumes, with the per-volume breakdown under
        ``"per_volume"`` (keyed by volume name)."""
        totals: dict = {"database": 0, "indexes": 0, "total": 0}
        per_volume: dict[str, dict] = {}
        targets = ([self._pipeline(volume)] if volume is not None
                   else list(self._volumes.values()))
        for pipe in targets:
            sizes = pipe.waldo.database.sizes()
            for key in ("database", "indexes", "total"):
                totals[key] += sizes[key]
            per_volume[pipe.name] = sizes
        totals["per_volume"] = per_volume
        return totals

    def compact(self) -> dict:
        """Force-compact every volume's archive; returns rollup stats."""
        reclaimed = 0
        segments = 0
        for pipe in self._volumes.values():
            archive = pipe.waldo.archive
            before = archive.segments_compacted
            reclaimed += archive.compact(force=True)
            segments += archive.segments_compacted - before
        return {"segments_compacted": segments,
                "bytes_reclaimed": reclaimed}

    def _obs_counters(self) -> dict:
        archives = [pipe.waldo.archive for pipe in self._volumes.values()]
        return {
            "volumes": len(self._volumes),
            "drains": self.drains,
            "federations": self.federations,
            "segments_archived": sum(a.segments_archived for a in archives),
            "segments_compacted": sum(a.segments_compacted
                                      for a in archives),
            "segments_retained": sum(len(a.segments) for a in archives),
            "archive_bytes_reclaimed": sum(a.bytes_reclaimed
                                           for a in archives),
        }

    # -- crash / recovery --------------------------------------------------------

    def crash(self) -> tuple[int, int]:
        """Machine death: every Waldo requeues undrained segments onto
        its log, every Lasagna loses its buffered records.  Returns
        ``(requeued_segments, lost_records)``."""
        requeued = sum(pipe.waldo.crash() for pipe in self._volumes.values())
        lost = sum(pipe.lasagna.crash() for pipe in self._volumes.values())
        return requeued, lost

    def recover(self, consume: bool = False) -> RecoveryReport:
        """Replay every volume's log into its database (volume order)
        and merge the reports."""
        combined = RecoveryReport()
        for pipe in self._volumes.values():
            report = recovery.recover(pipe.lasagna,
                                      database=pipe.waldo.database,
                                      consume=consume)
            combined.committed_records.extend(report.committed_records)
            combined.orphaned_records.extend(report.orphaned_records)
            combined.inconsistent_data.extend(report.inconsistent_data)
            combined.torn_bytes += report.torn_bytes
        return combined

    def __repr__(self) -> str:
        return f"<StorageTier {len(self._volumes)} volume(s)>"
