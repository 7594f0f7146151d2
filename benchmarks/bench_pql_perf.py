"""Planner vs naive PQL at million-record scale (wall-clock).

The tentpole measurement for the query optimizer: one federated live
engine (records routed across several databases, ``QueryEngine.live``
over their union -- the merge-at-query federation) answers the same queries twice,
once through the cost-based planner (secondary indexes + materialized
ancestry view + CSR adjacency) and once through the naive pre-planner
path (member scans plus the old name-only pushdown), via the engine's
per-call ``optimize=`` override.  Both arms share one graph, every
query's answer is asserted identical across arms, and timings exclude
the one-time warmup (lazy index builds, first closure computes, CSR
snapshot) -- the benchmark measures steady-state query latency, which
is what "queries stay interactive at millions of records" means.

The synthetic graph is a build-like DAG: ``chains`` independent
pipelines of (source, process, output) groups, each process reading
its chain's recent outputs (closure depth) plus a fan of shared source
files (edge density), every file carrying ``md5`` and ``mtime`` atoms.
Each chain ends in a ``snapshot`` node (a checkpoint object whose
``input`` is the chain's final output).  Point lookups hit ``md5``
equality on files (no index in the naive path); ancestry closures walk
``input*`` from a snapshot selected by md5 -- the planner answers with
an equality-index probe plus the cached closure, while the naive
nested-loop join expands the closure under *every* snapshot candidate
before WHERE filters, which is exactly the blowup the paper's query
workloads hit pre-planner.  (Snapshots root the closure workloads
because naive PQL pays that expansion per member-class candidate:
rooting them on the 2x-files-sized ``file`` class would make the
baseline arm take hours at this scale, not because the comparison
would be unfair.)

Run directly (CI does; no pytest plugins needed)::

    PYTHONPATH=src python benchmarks/bench_pql_perf.py \
        --out BENCH_results.json

Exits nonzero if indexed point lookups or ancestry closures are not at
least ``--min-speedup`` times faster (default 5.0), or if fewer than
``--min-records`` records were generated (default 1,000,000).
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.core.pnode import ObjectRef
from repro.core.records import Attr, ObjType, ProvenanceRecord
from repro.pql.engine import QueryEngine
from repro.storage.database import ProvenanceDatabase

try:
    from _bench_io import merge_results
except ImportError:  # imported as part of a package-style run
    from benchmarks._bench_io import merge_results


def synthesize(files: int, fan: int, depth_links: int,
               chains: int) -> list[ProvenanceRecord]:
    """A build-like DAG as a flat record stream.

    Group ``i`` (0-based) holds source ``3i+1``, process ``3i+2``,
    output ``3i+3``.  Groups with the same ``i % chains`` form one
    pipeline: each process reads its source, ``fan`` shared sources
    from anywhere earlier, and the previous ``depth_links`` outputs of
    its own chain -- so a chain tail's ``input*`` closure covers the
    whole chain without leaking into the others (sources are leaves).
    One ``snapshot`` node per chain references the chain's last
    output, giving the closure workloads a realistic small root class.
    """
    records = []
    add = records.append

    def R(pnode, attr, value):
        add(ProvenanceRecord(ObjectRef(pnode, 0), attr, value))

    for i in range(files):
        src, proc, out = 3 * i + 1, 3 * i + 2, 3 * i + 3
        R(src, Attr.TYPE, ObjType.FILE)
        R(src, Attr.NAME, f"/src/file{i}.c")
        R(src, "MD5", f"s{i:07d}")
        R(src, "MTIME", float(i))
        R(proc, Attr.TYPE, ObjType.PROCESS)
        R(proc, Attr.NAME, "cc")
        R(proc, Attr.INPUT, ObjectRef(src, 0))
        for k in range(fan):
            j = (i * 31 + k * 97) % (i + 1)       # some earlier group
            R(proc, Attr.INPUT, ObjectRef(3 * j + 1, 0))
        for d in range(1, depth_links + 1):
            j = i - d * chains                    # same chain, d back
            if j >= 0:
                R(proc, Attr.INPUT, ObjectRef(3 * j + 3, 0))
        R(out, Attr.TYPE, ObjType.FILE)
        R(out, Attr.NAME, f"/out/file{i}.o")
        R(out, "MD5", f"o{i:07d}")
        R(out, "MTIME", float(i) + 0.5)
        R(out, Attr.INPUT, ObjectRef(proc, 0))
    for c in range(min(chains, files)):
        tail = files - 1 - (files - 1 - c) % chains   # last group of c
        snap = 3 * files + c + 1
        R(snap, Attr.TYPE, "SNAPSHOT")
        R(snap, Attr.NAME, f"/snap/chain{c}")
        R(snap, "MD5", f"t{c:07d}")
        R(snap, Attr.INPUT, ObjectRef(3 * tail + 3, 0))
    return records


def shard_databases(records, shards: int) -> list[ProvenanceDatabase]:
    """Route the stream across ``shards`` databases by subject pnode,
    the several-database layout the federated engine merges at query."""
    buckets: list[list] = [[] for _ in range(shards)]
    for record in records:
        buckets[record.subject.pnode % shards].append(record)
    databases = []
    for index, bucket in enumerate(buckets):
        database = ProvenanceDatabase(f"bench-s{index}")
        database.insert_many(bucket)
        databases.append(database)
    return databases


def _timed(engine: QueryEngine, queries, optimize: bool,
           rounds: int = 1) -> float:
    started = time.perf_counter()
    for _ in range(rounds):
        for query in queries:
            engine.execute(query, optimize=optimize)
    return time.perf_counter() - started


def _assert_arms_agree(engine: QueryEngine, queries) -> None:
    for query in queries:
        planned = engine.execute_refs(query)
        engine._optimize, saved = False, engine._optimize
        try:
            naive = engine.execute_refs(query)
        finally:
            engine._optimize = saved
        assert sorted(map(repr, planned)) == sorted(map(repr, naive)), \
            f"planned and naive answers disagree for: {query}"


def run(files: int = 42000, fan: int = 8, depth_links: int = 4,
        chains: int = 256, lookups: int = 24, closures: int = 12,
        rounds: int = 3, shards: int = 4) -> dict:
    """Build the graph, verify planned ≡ naive, time both arms."""
    records = synthesize(files, fan, depth_links, chains)
    databases = shard_databases(records, shards)

    build_started = time.perf_counter()
    engine = QueryEngine.live(databases)
    build_s = time.perf_counter() - build_started

    # Query sets.  Point lookups: md5 equality spread over the outputs.
    # Ancestry: input* closure from a chain's snapshot, picked by md5.
    # Bounded: a depth-limited walk (exercises the CSR arrays).
    point_queries = [
        ('select F from Provenance.file as F '
         f'where F.md5 = "o{(files // lookups) * n:07d}"')
        for n in range(lookups)
    ]
    roots = range(min(closures, chains, files))
    ancestry_queries = [
        ('select count(A) from Provenance.snapshot as S, '
         f'S.input* as A where S.md5 = "t{c:07d}"')
        for c in roots
    ]
    name_ancestry = [
        ('select count(A) from Provenance.snapshot as S, '
         f'S.input* as A where S.name = "/snap/chain{c}"')
        for c in list(roots)[:4]
    ]
    bounded_queries = [
        ('select count(A) from Provenance.snapshot as S, '
         'S.input{1,4} as A '
         f'where S.md5 = "t{c:07d}"')
        for c in list(roots)[:4]
    ]
    everything = (point_queries + ancestry_queries + name_ancestry
                  + bounded_queries)

    # Ground truth *and* warmup in one pass: every query runs once per
    # arm (lazy index builds, closure computes, and the CSR snapshot
    # all happen here), and the answers must match exactly.
    warm_started = time.perf_counter()
    _assert_arms_agree(engine, everything)
    warmup_s = time.perf_counter() - warm_started

    point_naive = _timed(engine, point_queries, optimize=False)
    point_planned = _timed(engine, point_queries, optimize=True)
    ancestry_naive = _timed(engine, ancestry_queries, optimize=False,
                            rounds=rounds)
    ancestry_planned = _timed(engine, ancestry_queries, optimize=True,
                              rounds=rounds)
    name_naive = _timed(engine, name_ancestry, optimize=False,
                        rounds=rounds)
    name_planned = _timed(engine, name_ancestry, optimize=True,
                          rounds=rounds)
    bounded_naive = _timed(engine, bounded_queries, optimize=False,
                           rounds=rounds)
    bounded_planned = _timed(engine, bounded_queries, optimize=True,
                             rounds=rounds)

    def ratio(naive, planned):
        return naive / planned if planned else float("inf")

    point_speedup = ratio(point_naive, point_planned)
    ancestry_speedup = ratio(ancestry_naive, ancestry_planned)
    return {
        "schema": "repro-bench-pql/1",
        "records_total": len(records),
        "nodes": len(engine.graph),
        "shards": shards,
        "chains": chains,
        "build_s": build_s,
        "warmup_s": warmup_s,
        "point_lookup": {
            "queries": len(point_queries),
            "naive_s": point_naive,
            "planned_s": point_planned,
            "speedup": point_speedup,
        },
        "ancestry": {
            "queries": len(ancestry_queries),
            "rounds": rounds,
            "naive_s": ancestry_naive,
            "planned_s": ancestry_planned,
            "speedup": ancestry_speedup,
        },
        "ancestry_by_name": {
            # Informational: with the root already name-pushed in both
            # arms, this isolates the materialized view against the
            # per-query BFS alone.
            "naive_s": name_naive,
            "planned_s": name_planned,
            "speedup": ratio(name_naive, name_planned),
        },
        "bounded_traverse": {
            # Informational: depth-limited walks ride the CSR arrays.
            "naive_s": bounded_naive,
            "planned_s": bounded_planned,
            "speedup": ratio(bounded_naive, bounded_planned),
        },
        "counters": engine.catalog.counters(),
        # The gated metric: both headline paths must clear the bar.
        "speedup": min(point_speedup, ancestry_speedup),
    }


def test_planner_beats_naive():
    """Pytest entry point (small scale): same loop, same direction."""
    result = run(files=1500, chains=32, lookups=8, closures=4, rounds=2)
    assert result["speedup"] > 1.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--files", type=int, default=42000,
                        help="build groups (each: source, process, "
                             "output; ~24 records per group)")
    parser.add_argument("--fan", type=int, default=8)
    parser.add_argument("--depth-links", type=int, default=4)
    parser.add_argument("--chains", type=int, default=256)
    parser.add_argument("--lookups", type=int, default=24)
    parser.add_argument("--closures", type=int, default=12)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--out", default=None,
                        help="write the result payload to this JSON file")
    parser.add_argument("--min-speedup", type=float, default=5.0)
    parser.add_argument("--min-records", type=int, default=1_000_000)
    args = parser.parse_args(argv)

    result = run(files=args.files, fan=args.fan,
                 depth_links=args.depth_links, chains=args.chains,
                 lookups=args.lookups, closures=args.closures,
                 rounds=args.rounds, shards=args.shards)
    print(f"pql perf: {result['records_total']} records, "
          f"{result['nodes']} nodes across {result['shards']} shards "
          f"(build {result['build_s']:.1f}s, warmup "
          f"{result['warmup_s']:.1f}s)")
    for section in ("point_lookup", "ancestry", "ancestry_by_name",
                    "bounded_traverse"):
        entry = result[section]
        print(f"  {section}: naive {entry['naive_s']:.3f}s, planned "
              f"{entry['planned_s']:.3f}s -> {entry['speedup']:.1f}x")
    print(f"  gated speedup (min of point, ancestry): "
          f"{result['speedup']:.1f}x")
    if args.out and args.out != "-":
        merge_results(args.out, "pql_perf", result)
        print(f"merged into {args.out}")
    if result["records_total"] < args.min_records:
        print(f"FAIL: generated {result['records_total']} records, "
              f"need >= {args.min_records}", file=sys.stderr)
        return 1
    if result["speedup"] < args.min_speedup:
        print(f"FAIL: speedup {result['speedup']:.2f}x below the "
              f"{args.min_speedup}x gate", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
