"""Batched vs per-record ingest path on a churn workload (wall-clock).

The tentpole measurement for the batched ingest pipeline: the same
record-dense churn workload runs on two identically parameterized
systems, one booted with ``batching=True`` (observer event batches ->
``Analyzer.submit_batch`` -> ``Distributor.flush_batch`` -> log group
commit -> bulk Waldo drain) and one with ``batching=False`` (one
pipeline traversal per record, no group commit -- the pre-batching
pipeline).

The workload is chosen to stress every batched stage: chunked writes
(duplicate-elimination storms for the analyzer's dedup sets),
process churn (identity bursts), cross-process overwrites (freeze
traffic), and DPAPI bulk disclosure (big proto batches through
``disclosed_write``).

Semantics are asserted, not assumed: both arms must produce *identical
database contents* -- every record, in insertion order, compared modulo
the two things that legitimately differ across boots (volume ids inside
pnode numbers, and simulated-clock TIME values).

Run directly (CI does; no pytest plugins needed)::

    PYTHONPATH=src python benchmarks/bench_ingest.py \
        --out BENCH_results.json

Exits nonzero if the batched arm is not at least ``--min-speedup`` times
the unbatched arm's records/sec (default 2.0), or if fewer than
``--min-records`` records reached the database (default 10000).
"""

from __future__ import annotations

import argparse
import gc
import sys
import time

from repro.core.pnode import ObjectRef, TRANSIENT_VOLUME, local_of, volume_of
from repro.core.records import Attr
from repro.system import BootConfig, System

try:
    from _bench_io import merge_results
except ImportError:  # imported as part of a package-style run
    from benchmarks._bench_io import merge_results

#: Metrics off in both arms: measure the pipeline work itself.
BATCHED = BootConfig(observability=False)
UNBATCHED = BootConfig(observability=False, batching=False)

#: Small-chunk writes per new file (duplicate-heavy INPUT traffic).
CHUNKS_PER_FILE = 2
#: Disclosed records attached to each file (records-only pass_write).
DISCLOSED_PER_FILE = 96
#: One bulk DPAPI disclosure per round (a provenance-aware application
#: checkpointing its semantic state in one call).
BURST_RECORDS = 6000


def churn_round(system: System, round_index: int, files: int) -> None:
    """One round: new files (chunked writes + DPAPI disclosure), one
    bulk disclosure burst, then a different process overwrites half of
    the previous round's files."""
    with system.process(argv=[f"churner-{round_index}"]) as proc:
        dpapi = proc.dpapi
        if round_index == 0:
            proc.mkdir("/pass/churn")
        for index in range(files):
            fd = proc.open(f"/pass/churn/r{round_index}-f{index}.dat", "w")
            chunk = bytes([65 + (index % 26)]) * 64
            for _ in range(CHUNKS_PER_FILE):
                proc.write(fd, chunk)
            disclosed = dpapi.record_many(
                fd, Attr.ANNOTATION,
                (f"r{round_index}.f{index}.k{key}"
                 for key in range(DISCLOSED_PER_FILE)))
            dpapi.pass_write(fd, records=disclosed)
            proc.close(fd)
        # The burst: one records-only pass_write disclosing the round's
        # whole semantic state against one file.  No data moves, so no
        # WAP ordering point intervenes -- the window where group
        # commit (batched arm) gets to choose the flush boundary.
        fd = proc.open(f"/pass/churn/r{round_index}-f0.dat", "a")
        burst = dpapi.record_many(
            fd, Attr.ANNOTATION,
            (f"r{round_index}.burst.{key}" for key in range(BURST_RECORDS)))
        dpapi.pass_write(fd, records=burst)
        proc.close(fd)
    if round_index > 0:
        with system.process(argv=[f"rewriter-{round_index}"]) as proc:
            for index in range(files // 2):
                fd = proc.open(
                    f"/pass/churn/r{round_index - 1}-f{index}.dat", "w")
                proc.write(fd, b"overwrite" * 16)
                proc.close(fd)


def _canon_ref(ref: ObjectRef) -> tuple:
    """Volume-id-free identity: pnode numbers embed the globally unique
    volume id, which differs between the two boots; the transient/PASS
    distinction plus the local counter plus the version is what must
    match."""
    transient = volume_of(ref.pnode) == TRANSIENT_VOLUME
    return (transient, local_of(ref.pnode), ref.version)


def canonical_database(system: System) -> list[tuple]:
    """Every record of every volume, in insertion order, canonicalized.

    TIME values are masked (group commit legitimately shifts simulated
    timestamps); everything else -- subjects, attributes, values,
    cross-references, order -- must be byte-for-byte identical.
    """
    out: list[tuple] = []
    for database in system.databases():
        for record in database.all_records():
            value = record.value
            if isinstance(value, ObjectRef):
                canon_value: object = ("ref",) + _canon_ref(value)
            elif record.attr == Attr.TIME:
                canon_value = "<time>"
            else:
                canon_value = value
            out.append((_canon_ref(record.subject), record.attr,
                        canon_value))
    return out


def run_arm(config: BootConfig, rounds: int, files: int) -> dict:
    """Run the churn workload on one arm; returns timing + contents."""
    system = System.boot(config=config)
    # Measure the pipeline, not the collector: the cyclic GC's gen-2
    # passes scan the whole live heap (the database grows throughout),
    # charging each arm a fee proportional to how *long* it runs rather
    # than how much work it does.  Both arms run collector-free and pay
    # one explicit collection outside the timed region.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        for round_index in range(rounds):
            churn_round(system, round_index, files)
        records = system.sync()
        elapsed = time.perf_counter() - started
    finally:
        if gc_was_enabled:
            gc.enable()
        gc.collect()
    log = system.kernel.volume("pass").lasagna.log
    return {
        "records": records,
        "elapsed_s": elapsed,
        "records_per_sec": records / elapsed if elapsed else float("inf"),
        "log_flushes": log.flushes,
        "group_commits": log.batch_flushes,
        "contents": canonical_database(system),
    }


def run(rounds: int = 10, files: int = 120, repeats: int = 3) -> dict:
    """Both arms; returns the BENCH_results payload.

    Each repeat runs the two arms back to back (unbatched, then
    batched), so both halves of a pair see the same machine state, and
    the pair's elapsed ratio cancels whatever clock-frequency or cache
    drift that state carries.  The *median* pair ratio is the headline
    speedup -- per-arm minima are the classic low-noise estimators for
    a single arm, but a ratio of minima taken from different pairs can
    mix a drifted-fast run of one arm with a steady run of the other.
    The database-equality gate is asserted on *every* pair, not just
    the reported one.
    """
    # Warmup pair (discarded): the first measurement after unrelated
    # load (CI runs the test suite immediately before this) sees cold
    # caches and a throttled clock; both arms pay it here instead.
    run_arm(UNBATCHED, 1, files)
    run_arm(BATCHED, 1, files)
    pairs = []
    for _ in range(max(1, repeats)):
        u = run_arm(UNBATCHED, rounds, files)
        b = run_arm(BATCHED, rounds, files)
        assert u["records"] == b["records"], \
            "arms drained different record counts"
        assert u["contents"] == b["contents"], \
            "batched and unbatched database contents differ"
        pairs.append((u["elapsed_s"] / b["elapsed_s"], u, b))
    pairs.sort(key=lambda pair: pair[0])
    speedup, unbatched, batched = pairs[len(pairs) // 2]
    for _, u, b in pairs:
        del u["contents"], b["contents"]
    return {
        "schema": "repro-bench-ingest/1",
        "workload": "churn",
        "rounds": rounds,
        "files_per_round": files,
        "repeats": max(1, repeats),
        "chunks_per_file": CHUNKS_PER_FILE,
        "disclosed_per_file": DISCLOSED_PER_FILE,
        "burst_records": BURST_RECORDS,
        "records_total": batched["records"],
        "unbatched": unbatched,
        "batched": batched,
        "speedup": speedup,
    }


def test_batched_matches_and_beats_unbatched():
    """Pytest entry point (small scale): same arms, same equality gate."""
    result = run(rounds=4, files=40, repeats=1)
    assert result["records_total"] > 0
    assert result["batched"]["group_commits"] > 0
    assert result["speedup"] > 1.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--files", type=int, default=120,
                        help="new files per round (half get overwritten)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="back-to-back arm pairs; the median pair "
                             "ratio is the reported speedup")
    parser.add_argument("--out", default=None,
                        help="merge the result payload into this JSON file")
    parser.add_argument("--min-speedup", type=float, default=2.0)
    parser.add_argument("--min-records", type=int, default=10000)
    args = parser.parse_args(argv)

    result = run(rounds=args.rounds, files=args.files,
                 repeats=args.repeats)
    print(f"churn workload: {result['records_total']} records over "
          f"{args.rounds} rounds")
    print(f"  unbatched (per-record): {result['unbatched']['elapsed_s']:.3f}s"
          f"  ({result['unbatched']['records_per_sec']:,.0f} rec/s)")
    print(f"  batched (group commit): {result['batched']['elapsed_s']:.3f}s"
          f"  ({result['batched']['records_per_sec']:,.0f} rec/s, "
          f"{result['batched']['group_commits']} group commits)")
    print(f"  speedup: {result['speedup']:.1f}x")
    if args.out and args.out != "-":
        merge_results(args.out, "ingest", result)
        print(f"merged into {args.out}")
    if result["records_total"] < args.min_records:
        print(f"FAIL: drained {result['records_total']} records, need "
              f">= {args.min_records}", file=sys.stderr)
        return 1
    if result["speedup"] < args.min_speedup:
        print(f"FAIL: speedup {result['speedup']:.2f}x below the "
              f"{args.min_speedup}x gate", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
