"""Crashing between volume drains leaves every PASS volume consistent.

The storage tier drains one PASS volume after another, and
``shard.drain.pre`` fires before each volume's Waldo drains.  A plan
that crashes there dies *between* volume drains: the volumes drained
earlier already hold their records in their databases, the rest still
hold theirs in closed log segments.  Recovery must replay exactly the
undrained volumes, end fsck-clean, preserve the WAP invariant, and be
idempotent; crashing before the last volume of the final drain must
recover the full clean-run record count (nothing was buffered, so
nothing is allowed to be lost).
"""

import dataclasses

import pytest

from repro.crashlab import discover, run_crash_scenario
from repro.crashlab.workloads import BOOT
from repro.faults import FaultPlan
from repro.system import System

VOLUMES = ("a", "b")
TWO_VOLUMES = dataclasses.replace(BOOT, pass_volumes=VOLUMES)


def two_volume_churn(system: System) -> None:
    """Writes, overwrites and a cross-volume copy on both PASS volumes,
    with a mid-run sync so each volume is drained twice."""
    with system.process(argv=["writer"]) as proc:
        for volume in VOLUMES:
            for index in range(4):
                fd = proc.open(f"/{volume}/src-{index}.dat", "w")
                proc.write(fd, bytes([65 + index]) * (96 + 32 * index))
                proc.close(fd)
    system.sync()
    with system.process(argv=["copier"]) as proc:
        for index in range(2):
            fd = proc.open(f"/a/src-{index}.dat", "r")
            payload = proc.read(fd)
            proc.close(fd)
            out = proc.open(f"/b/copy-{index}.dat", "w")
            proc.write(out, payload[::-1])
            proc.close(out)
        fd = proc.open("/a/src-3.dat", "w")
        proc.write(fd, b"overwritten" * 8)
        proc.close(fd)
    system.sync()


def _clean_total() -> int:
    """Record count a fault-free run leaves across both volumes."""
    result = run_crash_scenario(two_volume_churn, plan=None,
                                config=TWO_VOLUMES)
    assert result.fault is None
    return result.db_records


class TestVolumeCrashMidDrain:
    @pytest.fixture(scope="class")
    def volume_drain_hits(self):
        injector = discover(two_volume_churn, config=TWO_VOLUMES)
        return injector.hits.get("shard.drain.pre", 0)

    def test_two_volume_boot_reaches_the_volume_drain_site(
            self, volume_drain_hits):
        # One hit per volume per drain: 2 volumes, 2 syncs.
        assert volume_drain_hits == 4

    def test_crash_between_volume_drains_recovers_clean(self):
        """Crash before volume ``b``'s first drain: ``a``'s records are
        in its database, ``b`` recovers from its log."""
        plan = FaultPlan().add("shard.drain.pre", "crash", nth=2)
        result = run_crash_scenario(two_volume_churn, plan,
                                    config=TWO_VOLUMES)
        assert result.fault is not None
        assert getattr(result.fault, "site", None) == "shard.drain.pre"
        assert result.wap_violations == []
        assert result.fsck_report.clean
        assert result.idempotent

    def test_crash_at_last_volume_drain_loses_nothing(
            self, volume_drain_hits):
        """Crash before the final volume of the final drain: every
        record already reached a log, so recovery restores the exact
        clean-run total across both volumes' databases."""
        plan = FaultPlan().add("shard.drain.pre", "crash",
                               nth=volume_drain_hits)
        result = run_crash_scenario(two_volume_churn, plan,
                                    config=TWO_VOLUMES)
        assert result.fault is not None
        assert result.wap_violations == []
        assert result.fsck_report.clean
        assert result.idempotent
        assert result.db_records == _clean_total()

    def test_other_volume_keeps_its_records(self):
        """A crash before ``b``'s drain does not take ``a`` down: ``a``
        keeps what it drained, and after recovery both volumes'
        databases hold their own files."""
        plan = FaultPlan().add("shard.drain.pre", "crash", nth=2)
        result = run_crash_scenario(two_volume_churn, plan,
                                    config=TWO_VOLUMES)
        tier = result.system.tier
        for volume in VOLUMES:
            names = {record.value
                     for record in tier.database(volume).all_records()
                     if isinstance(record.value, str)}
            assert f"/{volume}/src-0.dat" in names
        assert result.fsck_report.clean
