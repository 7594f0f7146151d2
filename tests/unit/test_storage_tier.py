"""StorageTier facade unit tests: layout, lookups, rollups, archive.

The facade contract: every PASS volume has exactly one pipeline (one
WAP log, one Waldo, one database, one archive) labelled by the volume
name, lookups of anything else raise ``NotPassVolume`` naming the
volume, ``sizes()`` sums over the volumes, and the drained-segment
archive stays within its compaction policy.
"""

import pytest

from repro.core.errors import NotPassVolume
from repro.query.helpers import ancestry_refs, newest_ref_by_name
from repro.storage.tier import CompactionPolicy, SegmentArchive
from repro.system import System

TWO_VOLUMES = ("a", "b")


def _write_files(system, count=6, payload=b"x" * 64, roots=("pass",)):
    with system.process(argv=["writer"]) as proc:
        for root in roots:
            for index in range(count):
                fd = proc.open(f"/{root}/f{index}.dat", "w")
                proc.write(fd, payload)
                proc.close(fd)
    system.sync()


class TestOnePipelinePerVolume:
    def test_labels_and_layout_match_the_classic_pipeline(self):
        system = System.boot()
        tier = system.tier
        assert tier.volumes() == ["pass"]
        assert tier.waldo("pass").name == "pass"
        assert tier.waldo("pass").log is tier.lasagna("pass").log
        assert tier.database("pass") is tier.waldo("pass").database
        assert tier.waldo("pass").archive is tier.archive("pass")
        assert len(system.databases()) == 1


class TestVolumeLookup:
    def test_database_without_pass_volumes_raises_not_pass_volume(self):
        system = System.boot(provenance=False)
        with pytest.raises(NotPassVolume, match="no PASS volume"):
            system.database()

    def test_database_of_plain_volume_raises_not_pass_volume(self):
        system = System.boot()
        with pytest.raises(NotPassVolume, match="'scratch'"):
            system.database("scratch")
        with pytest.raises(NotPassVolume, match="'scratch'"):
            system.tier.waldo("scratch")


class TestSizesRollup:
    def test_totals_are_the_sum_of_every_volume(self):
        system = System.boot(pass_volumes=TWO_VOLUMES)
        _write_files(system, count=5, roots=TWO_VOLUMES)
        rollup = system.tier.sizes()
        volume_sizes = [system.tier.waldo(volume).sizes()
                        for volume in TWO_VOLUMES]
        for key in ("database", "indexes", "total"):
            assert rollup[key] == sum(sizes[key] for sizes in volume_sizes)
        assert set(rollup["per_volume"]) == set(TWO_VOLUMES)
        assert all(sizes["total"] > 0 for sizes in volume_sizes)

    def test_system_sizes_matches_tier_rollup(self):
        system = System.boot(pass_volumes=TWO_VOLUMES)
        _write_files(system, roots=TWO_VOLUMES)
        assert system.sizes() == system.tier.sizes()

    def test_one_volume_rollup_matches_waldo_sizes(self):
        system = System.boot(pass_volumes=TWO_VOLUMES)
        _write_files(system, roots=TWO_VOLUMES)
        waldo_sizes = system.tier.waldo("a").sizes()
        rollup = system.tier.sizes("a")
        for key in ("database", "indexes", "total"):
            assert rollup[key] == waldo_sizes[key]
        assert list(rollup["per_volume"]) == ["a"]


class TestObservability:
    def test_tier_layer_reports_counters(self):
        system = System.boot(pass_volumes=TWO_VOLUMES)
        _write_files(system, roots=TWO_VOLUMES)
        system.query_engine()
        stats = system.stats()
        assert "tier" in stats
        counters = stats["tier"]["counters"]
        assert counters["volumes"] == 2
        assert counters["drains"] == 1
        assert counters["federations"] == 1
        assert counters["segments_archived"] >= 2

    def test_waldo_metrics_are_labelled_by_volume(self):
        system = System.boot(pass_volumes=TWO_VOLUMES)
        _write_files(system, roots=TWO_VOLUMES)
        volumes = system.stats()["waldo"].get("volumes", {})
        assert set(TWO_VOLUMES) <= set(volumes)


class TestArchiveCompaction:
    def _segment(self, index, records=3, nbytes=100):
        class FakeSegment:
            pass

        segment = FakeSegment()
        segment.index = index
        segment.records = [None] * records
        segment.nbytes = nbytes
        return segment

    def test_add_keeps_archive_within_policy(self):
        archive = SegmentArchive(CompactionPolicy(max_segments=3,
                                                  max_bytes=10_000))
        for index in range(10):
            archive.add(self._segment(index))
        assert len(archive.segments) <= 3
        assert archive.segments_archived == 10
        assert archive.segments_compacted == 7
        assert archive.bytes_reclaimed == 700
        # Folded history stays summarized, oldest-first, contiguous.
        assert archive.extents[0].first_index == 0
        assert archive.extents[-1].last_index == 6
        assert sum(extent.records for extent in archive.extents) == 21

    def test_byte_bound_triggers_compaction(self):
        archive = SegmentArchive(CompactionPolicy(max_segments=100,
                                                  max_bytes=250))
        for index in range(4):
            archive.add(self._segment(index, nbytes=100))
        assert archive.archived_bytes <= 250

    def test_force_compact_reclaims_everything(self):
        archive = SegmentArchive(CompactionPolicy())
        for index in range(5):
            archive.add(self._segment(index))
        reclaimed = archive.compact(force=True)
        assert not archive.segments
        assert reclaimed == 500
        assert archive.stats()["segments_compacted"] == 5

    def test_drained_segments_reach_the_tier_archives(self):
        system = System.boot(pass_volumes=TWO_VOLUMES)
        _write_files(system, count=4, roots=TWO_VOLUMES)
        archives = [system.tier.archive(volume) for volume in TWO_VOLUMES]
        assert all(archive.segments_archived > 0 for archive in archives)
        rollup = system.tier.compact()
        assert rollup["bytes_reclaimed"] > 0
        assert all(not archive.segments for archive in archives)


class TestCrashRecover:
    def test_tier_crash_and_recover_round_trip(self):
        system = System.boot(pass_volumes=TWO_VOLUMES)
        with system.process(argv=["writer"]) as proc:
            for volume in TWO_VOLUMES:
                for index in range(3):
                    fd = proc.open(f"/{volume}/g{index}.dat", "w")
                    proc.write(fd, b"y" * 48)
                    proc.close(fd)
        # Rotate segments out but never drain: everything is in logs.
        for volume in TWO_VOLUMES:
            log = system.tier.lasagna(volume).log
            log.flush()
            log.rotate()
        before = sum(len(db) for db in system.databases())
        assert before == 0
        system.tier.crash()
        report = system.tier.recover(consume=True)
        assert report.committed_records
        assert all(len(db) for db in system.databases())
        after = sum(len(db) for db in system.databases())
        assert after == len(report.committed_records)
        second = system.tier.recover(consume=True)
        assert second.clean and not second.committed_records

    def test_data_write_flushes_other_volumes_first(self):
        """Cross-volume WAP: the worker's provenance went to ``b``'s log
        with its first write, so ``/a/out``'s data write must make
        ``b``'s later buffered records durable before it lands."""
        system = System.boot(pass_volumes=TWO_VOLUMES)
        with system.process(argv=["seed"]) as proc:
            fd = proc.open("/a/in", "w")
            proc.write(fd, b"input" * 8)
            proc.close(fd)
        system.sync()
        with system.process(argv=["worker"]) as proc:
            fd = proc.open("/b/x", "w")
            proc.write(fd, b"x" * 32)
            proc.close(fd)
            fd = proc.open("/a/in", "r")
            payload = proc.read(fd)
            proc.close(fd)
            fd = proc.open("/a/out", "w")
            proc.write(fd, payload[::-1])
            proc.close(fd)
        system.tier.crash()
        system.tier.recover(consume=True)
        databases = system.databases()
        source = newest_ref_by_name(databases, "/a/in")
        closure = ancestry_refs(databases,
                                newest_ref_by_name(databases, "/a/out"))
        assert source.pnode in {ref.pnode for ref in closure}
