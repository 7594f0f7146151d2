"""Incremental vs batch query path on a churn workload (wall-clock).

The tentpole measurement for the live OEM graph: a sync -> query ->
sync loop where provenance keeps arriving.  The *incremental* arm holds
one live engine (``System.query_engine()``); every sync splices the new
records into its graph through the database push feed, so per-round
cost is O(new records).  The *batch* arm does what the old read path
did: rebuild the whole graph from every record after each sync --
O(total history) per round.

Both arms run the identical workload and the identical query, and the
per-round query results are asserted equal, so the speedup is for the
same answer.

Run directly (CI does; no pytest plugins needed)::

    PYTHONPATH=src python benchmarks/bench_incremental_query.py \
        --out BENCH_results.json

Exits nonzero if the incremental loop is not at least ``--min-speedup``
times faster (default 2.0), or if fewer than 10k records were churned.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import sys
import time

from repro.pql.engine import QueryEngine
from repro.system import BootConfig, System

try:
    from _bench_io import merge_results
except ImportError:  # imported as part of a package-style run
    from benchmarks._bench_io import merge_results

#: Metrics off in both arms: measure the pipeline + graph work itself.
QUIET = BootConfig(observability=False)

#: Name-indexed lookup: evaluation is cheap in both arms (selection
#: pushdown), so the timings weigh sync + graph maintenance, which is
#: what the two arms do differently.
QUERY = ('select F from Provenance.file as F '
         'where F.name = "/pass/churn/r0-f0.dat"')


def churn_round(system: System, round_index: int, files: int) -> None:
    """One round of churn: new files plus overwrites of earlier ones."""
    with system.process(argv=[f"churner-{round_index}"]) as proc:
        if round_index == 0:
            proc.mkdir("/pass/churn")
        for index in range(files):
            fd = proc.open(f"/pass/churn/r{round_index}-f{index}.dat", "w")
            proc.write(fd, bytes([65 + (index % 26)]) * 128)
            proc.close(fd)
        if round_index > 0:
            for index in range(files // 2):
                fd = proc.open(
                    f"/pass/churn/r{round_index - 1}-f{index}.dat", "w")
                proc.write(fd, b"overwrite" * 16)
                proc.close(fd)


def _settle_collector() -> None:
    """Run a full collection before a timed region, untimed.

    The untimed churn allocates far more than either timed region, so
    without this the cyclic GC's full (gen-2) passes, which scan the
    whole live heap, land in a timed region by phase alone: a module
    more or less imported at startup moves one ~0.1 s pass into or out
    of an incremental round.  Starting each region from a collected
    heap charges it only for the collections its own allocations
    trigger -- the batch rebuild still pays for the ones it causes.
    """
    gc.collect()


def run_incremental(rounds: int, files: int):
    """Sync + query per round against the one live engine."""
    system = System.boot(config=QUIET)
    engine = system.query_engine()
    timings, results, records = [], [], 0
    for round_index in range(rounds):
        churn_round(system, round_index, files)
        _settle_collector()
        started = time.perf_counter()
        records += system.sync()
        rows = engine.execute_refs(QUERY)
        timings.append(time.perf_counter() - started)
        # pnode numbering differs between machines; versions don't.
        results.append(sorted(ref.version for ref in rows))
        assert system.query_engine() is engine
    return timings, results, records


def run_batch(rounds: int, files: int):
    """Sync + full graph rebuild + query per round (the old read path)."""
    system = System.boot(config=QUIET)
    timings, results, records = [], [], 0
    for round_index in range(rounds):
        churn_round(system, round_index, files)
        _settle_collector()
        started = time.perf_counter()
        records += system.sync()
        engine = QueryEngine.from_records(itertools.chain(
            *(db.all_records() for db in system.databases())))
        rows = engine.execute_refs(QUERY)
        timings.append(time.perf_counter() - started)
        results.append(sorted(ref.version for ref in rows))
    return timings, results, records


def run(rounds: int = 12, files: int = 150) -> dict:
    """Both arms; returns the BENCH_results payload."""
    batch_times, batch_rows, batch_records = run_batch(rounds, files)
    incr_times, incr_rows, incr_records = run_incremental(rounds, files)
    assert batch_records == incr_records, "arms churned different records"
    assert batch_rows == incr_rows, \
        "incremental and batch queries disagree"
    batch_total = sum(batch_times)
    incr_total = sum(incr_times)
    return {
        "schema": "repro-bench-incremental/1",
        "workload": "churn",
        "rounds": rounds,
        "files_per_round": files,
        "records_total": incr_records,
        "query": QUERY,
        "batch": {"per_round_s": batch_times, "total_s": batch_total},
        "incremental": {"per_round_s": incr_times, "total_s": incr_total},
        "speedup": batch_total / incr_total if incr_total else float("inf"),
    }


def test_incremental_beats_batch():
    """Pytest entry point (small scale): same loop, same gate."""
    result = run(rounds=6, files=60)
    assert result["speedup"] > 1.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rounds", type=int, default=12)
    parser.add_argument("--files", type=int, default=150,
                        help="new files per round (half get overwritten)")
    parser.add_argument("--out", default=None,
                        help="write the result payload to this JSON file")
    parser.add_argument("--min-speedup", type=float, default=2.0)
    parser.add_argument("--min-records", type=int, default=10000)
    args = parser.parse_args(argv)

    result = run(rounds=args.rounds, files=args.files)
    print(f"churn workload: {result['records_total']} records over "
          f"{args.rounds} rounds")
    print(f"  batch (rebuild per sync): {result['batch']['total_s']:.3f}s")
    print(f"  incremental (live graph): "
          f"{result['incremental']['total_s']:.3f}s")
    print(f"  speedup: {result['speedup']:.1f}x")
    if args.out and args.out != "-":
        merge_results(args.out, "incremental_query", result)
        print(f"merged into {args.out}")
    if result["records_total"] < args.min_records:
        print(f"FAIL: churned {result['records_total']} records, need "
              f">= {args.min_records}", file=sys.stderr)
        return 1
    if result["speedup"] < args.min_speedup:
        print(f"FAIL: speedup {result['speedup']:.2f}x below the "
              f"{args.min_speedup}x gate", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
