"""End-to-end provenance benchmark: capture, query and mixed workloads.

    python3 perfbench/run.py --workload capture --seed 1 --seconds 10 --trace 0

Runs repetitions of one workload, each in a fresh interpreter
(``rep.py``), until the timed operations add up to ``--seconds`` and at
least ``MIN_REPS`` repetitions ran.  Every repetition of one seed
issues exactly the same operations, so the counts they report (records
stored, store bytes, log flushes and group commits, the simulated-clock
overhead) must agree exactly; the run fails if they do not, or if any
correctness check or operation failed.

Every time is scaled to a reference host speed by host-speed probes
taken between ops (a fixed pure-Python job, see ``workloads.probe_ns``
and ``Recorder.scaled``).  On a shared host whose speed drifts by up to
half again within seconds, this keeps the figures of one program
steady; the unscaled wall-clock figures are printed too.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced, one traced and one tracemalloc repetition instead and reports
the per-layer metrics.  Either way every metric is printed by name with
its unit, one per line, before the last line: a JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYER_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_REPS = 5
#: The whole run, all repetitions included, stays under this.
WALL_LIMIT_S = 165.0
MIB = 1024 * 1024

#: Which latency classes each workload times, and their units.
CLASSES = {
    "capture": (("write_op", "us", (50, 99)), ("sync", "ms", (50, 90))),
    "query": (("lookup", "us", (50, 99)), ("lineage", "ms", (50, 99)),
              ("traverse", "us", (50, 99))),
    "mixed": (("write_op", "us", (50, 99)), ("sync", "ms", (50, 90)),
              ("lookup", "us", (50, 99)), ("lineage", "ms", (50, 99))),
}
SCALE = {"us": 1e3, "ms": 1e6}


def percentile(ordered: list, q: float):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def geomean(values: list) -> float:
    return math.exp(sum(map(math.log, values)) / len(values))


def run_rep(workload: str, seed: int, mode: str, timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "rep.py"), "--workload", workload,
         "--seed", str(seed), "--mode", mode],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: {mode} repetition of {workload} "
                         f"exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_reps(workload: str, seed: int, seconds: float,
             modes: list[str] | None) -> list[dict]:
    """Plain repetitions until ``seconds`` of timed ops (or ``modes``,
    one repetition each), within the wall-clock limit."""
    started = time.monotonic()
    reps: list[dict] = []
    longest = 0.0
    while True:
        if modes is not None:
            if len(reps) == len(modes):
                break
            mode = modes[len(reps)]
        else:
            timed = sum(rep["wall_s"] for rep in reps)
            if len(reps) >= MIN_REPS and timed >= seconds:
                break
            mode = "plain"
        left = WALL_LIMIT_S - (time.monotonic() - started)
        if reps and left < 1.5 * longest:
            break
        rep_started = time.monotonic()
        reps.append(run_rep(workload, seed, mode, timeout=max(left, 1.0)))
        longest = max(longest, time.monotonic() - rep_started)
    return reps


def op_seconds(rep: dict, kinds=None, key: str = "samples") -> float:
    """Summed op time of ``kinds`` (all by default); ``key`` picks the
    scaled samples or the ``"wall_samples"``."""
    return sum(sum(samples) for kind, samples in rep[key].items()
               if kinds is None or kind in kinds) / 1e9


def pooled(reps: list[dict], kinds) -> list:
    return sorted(ns for rep in reps for kind in kinds
                  for ns in rep["samples"].get(kind, ()))


def check_counts(reps: list[dict]) -> list[str]:
    """Every repetition of one seed must report identical counts."""
    first = reps[0]["counts"]
    return [f"counts differ between repetitions: {first} != {rep['counts']}"
            for rep in reps[1:] if rep["counts"] != first]


def end_to_end(workload: str, reps: list[dict]) -> tuple[dict, dict]:
    """(gated metrics, every end-to-end metric of this workload)."""
    report: dict[str, tuple[float, str]] = {
        "setup_s": (statistics.median(r["setup_s"] for r in reps), "s")}
    # Each class's median and highest named percentile, in ns.
    medians, tails = [], []
    for kind, unit, quantiles in CLASSES[workload]:
        samples = pooled(reps, (kind,))
        for q in quantiles:
            report[f"{kind}_p{q}_{unit}"] = (
                percentile(samples, q) / SCALE[unit], unit)
        medians.append(percentile(samples, quantiles[0]))
        tails.append(percentile(samples, quantiles[-1]))
    if workload != "query":
        inserted = sum(r["counters"]["waldo.records_inserted"] for r in reps)
        ingest_s = sum(op_seconds(r, ("write_op", "sync")) for r in reps)
        report["ingest_records_per_s"] = (ratio(inserted, ingest_s), "1/s")
    report["peak_rss_mib"] = (
        statistics.median(r["rss_mib"] for r in reps), "MiB")
    report["store_mib"] = (reps[0]["counts"]["store_bytes"] / MIB, "MiB")
    if workload == "capture":
        report["sim_overhead_pct"] = (
            reps[0]["counts"]["sim_overhead_pct"], "%")

    # op_p50_us and op_p99_us are geometric means over the workload's
    # op classes: a change to any one class moves them, whatever its
    # share of the ops.  ops_per_s is the median over repetitions of
    # each repetition's own figure: one slow interpreter moves it less.
    gated = {
        "setup_s": report["setup_s"],
        "op_p50_us": (geomean(medians) / 1e3, "us"),
        "op_p99_us": (geomean(tails) / 1e3, "us"),
        "ops_per_s": (statistics.median(
            sum(map(len, r["samples"].values())) / op_seconds(r)
            for r in reps), "1/s"),
        "peak_rss_mib": report["peak_rss_mib"],
        "store_mib": report["store_mib"],
    }
    return gated, report


def per_layer(reps: dict[str, dict]) -> dict:
    plain, traced, heap = reps["plain"], reps["trace"], reps["heap"]
    # Span times are wall clock, so shares use the wall op time.
    traced_s = op_seconds(traced, key="wall_samples")
    report: dict[str, tuple[float, str]] = {}
    for layer in LAYER_NAMES:
        totals = traced["layers"][layer]
        report[f"{layer}.self_pct"] = (
            100.0 * totals["self_s"] / traced_s, "%")
        report[f"{layer}.calls"] = (totals["calls"], "count")

    c = plain["counters"]

    def get(key):
        return c.get(key, 0)

    report.update({
        "core.analyzer.dedup_ratio": (
            ratio(get("analyzer.duplicates_dropped"),
                  get("analyzer.records_in")), "fraction"),
        "core.analyzer.records_in": (get("analyzer.records_in"), "count"),
        "storage.log.flushes": (get("lasagna.log_flushes"), "count"),
        "storage.log.group_commits": (get("lasagna.batch_flushes"),
                                      "count"),
        "storage.log.bytes_per_record": (
            ratio(get("lasagna.log_bytes"), get("lasagna.log_records")),
            "B"),
        "storage.lasagna.stack_pages_copied": (
            get("lasagna.stack_pages_copied"), "count"),
        "kernel.cache.hit_ratio": (
            ratio(get("cache.hits"), get("cache.hits") + get("cache.misses")),
            "fraction"),
        "kernel.cache.evictions": (get("cache.evictions"), "count"),
        "storage.waldo.records_per_drain": (
            ratio(get("waldo.records_inserted"), get("waldo.drains")),
            "records"),
        "pql.engine.plan_cache_hit_ratio": (
            ratio(get("pql.parse_cache_hits"),
                  get("pql.parse_cache_hits") + get("pql.plan_compiles")),
            "fraction"),
        "pql.engine.rows_per_query": (
            ratio(get("pql.rows_returned"), get("pql.queries_executed")),
            "rows"),
        "pql.indexes.index_hit_ratio": (
            ratio(get("catalog.index_hits"),
                  get("catalog.index_hits") + get("catalog.index_misses")),
            "fraction"),
        "pql.indexes.view_hit_ratio": (
            ratio(get("catalog.view_hits"),
                  get("catalog.view_hits") + get("catalog.view_refreshes")),
            "fraction"),
        "pql.indexes.view_invalidations": (
            get("catalog.view_invalidations"), "count"),
        "pql.indexes.csr_rebuilds": (get("catalog.csr_rebuilds"), "count"),
        "pql.indexes.csr_fallbacks": (get("catalog.csr_fallbacks"), "count"),
        "pql.oem.records_applied": (get("oem.records_applied"), "count"),
    })
    for layer in ("storage.database", "pql.oem"):
        report[f"{layer}.heap_bytes_per_record"] = (
            ratio(heap["heap_bytes"][layer], heap["heap_records"][layer]),
            "B")
    report["bench.untraced_pct"] = (
        100.0 * (1.0 - traced["root_s"] / traced_s), "%")
    report["bench.trace_overhead_pct"] = (
        100.0 * (op_seconds(traced) / op_seconds(plain) - 1.0), "%")
    return report


def split_lines(traced: dict) -> list[str]:
    """Where each op class's time went in the traced repetition."""
    lines = []
    for kind, layers in traced["split"].items():
        shares = sorted(layers.items(), key=lambda item: -item[1])
        if kind not in traced["samples"]:
            # Program work no timed op caused, e.g. a process exiting.
            lines.append(f"# split {kind}: " + ", ".join(
                f"{layer} {seconds:.4f} s" for layer, seconds in shares))
            continue
        total = op_seconds(traced, (kind,), key="wall_samples")
        lines.append(f"# split {kind} ({total:.3f} s of ops): " + ", ".join(
            f"{layer} {100.0 * ratio(seconds, total):.1f}%"
            for layer, seconds in shares))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(CLASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    modes = ["plain", "trace", "heap"] if args.trace else None
    reps = run_reps(args.workload, args.seed, args.seconds, modes)
    failures = check_counts(reps)
    if not args.trace and len(reps) < MIN_REPS:
        failures.append(f"only {len(reps)} of {MIN_REPS} repetitions ran "
                        f"within {WALL_LIMIT_S:.0f} s")
    for rep in reps:
        failures.extend(rep["failures"])
    attempted = sum(len(samples) for rep in reps
                    for samples in rep["samples"].values())

    if args.trace:
        by_mode = {rep["mode"]: rep for rep in reps}
        if len(by_mode) < len(modes):
            raise SystemExit("perfbench: the traced run did not finish "
                             "within the wall-clock limit")
        metrics = per_layer(by_mode)
        shown = dict(metrics)
        for layer, totals in by_mode["trace"]["layers"].items():
            shown[f"{layer}.self_s"] = (totals["self_s"], "s")
        notes = split_lines(by_mode["trace"])
    else:
        metrics, shown = end_to_end(args.workload, reps)
        shown["error_rate"] = (ratio(len(failures), attempted), "fraction")
        wall, _ = end_to_end(args.workload, [
            dict(rep, setup_s=rep["wall_setup_s"],
                 samples=rep["wall_samples"]) for rep in reps])
        notes = ["# unscaled wall clock: " + ", ".join(
            f"{name} {value:.6g} {unit}"
            for name, (value, unit) in wall.items())]
    notes.insert(0, "# host-speed scale per repetition: " + ", ".join(
        f"{rep['mode']} {rep['scale']:.3f}" for rep in reps))

    print(f"# workload={args.workload} seed={args.seed} "
          f"repetitions={len(reps)} sizes={json.dumps(reps[0]['sizes'])}")
    for line in notes:
        print(line)
    for failure in failures:
        print(f"# FAILED: {failure}")
    for name, (value, unit) in shown.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
