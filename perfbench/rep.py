"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/rep.py --workload capture --seed 1 --mode plain

``run.py`` starts one of these per repetition, so module-level memos
of the program (such as the log's zero-digest states) start empty every
time.  Modes: ``plain`` (untraced; the end-to-end figures), ``trace``
(spans around each layer's entry points; spans are written to
``perfbench/out/``) and ``heap`` (tracemalloc; live bytes per record).
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

#: Host-speed probes taken on each side of the set-up.
SETUP_PROBES = 3
#: Files whose live allocations count as each layer's heap.
HEAP_FILES = {"storage.database": "repro/storage/database.py",
              "pql.oem": "repro/pql/oem.py"}


def import_program() -> None:
    """Put the checkout's own ``src`` first on the path; refuse to run
    against any other copy of the program."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC}")
    sys.path.insert(0, str(SRC))
    import repro
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported {repro.__file__}, "
                         f"not the checkout's {SRC}")


def heap_bytes(snapshot: tracemalloc.Snapshot) -> dict[str, int]:
    totals = dict.fromkeys(HEAP_FILES, 0)
    for stat in snapshot.statistics("filename"):
        filename = stat.traceback[0].filename.replace("\\", "/")
        for layer, suffix in HEAP_FILES.items():
            if filename.endswith(suffix):
                totals[layer] += stat.size
    return totals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "trace", "heap"),
                        default="plain")
    args = parser.parse_args(argv)

    import_program()
    import tracing
    import workloads

    tracer = None
    if args.mode == "trace":
        tracer = tracing.Tracer()
        tracing.install(tracer)
    elif args.mode == "heap":
        tracemalloc.start()

    workload = workloads.WORKLOADS[args.workload](args.seed)
    # Set-up is short and comes before the first op's probe, so it is
    # scaled by probes of its own, taken just before and just after it.
    probes = [workloads.probe_ns() for _ in range(SETUP_PROBES)]
    started = perf_counter()
    workload.setup()
    setup_s = perf_counter() - started
    probes += [workloads.probe_ns() for _ in range(SETUP_PROBES)]
    setup_scale = workloads.REF_PROBE_NS / statistics.median(probes)

    before = workload.counters()
    rec = workloads.Recorder(tracer)
    if tracer is not None:
        tracer.active = True
    started = perf_counter()
    workload.run(rec)
    wall_s = perf_counter() - started
    if tracer is not None:
        tracer.active = False
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    after = workload.counters()
    counters = {key: value - before.get(key, 0)
                for key, value in after.items()}

    # Times scaled to the reference host speed, and as measured.
    samples, scale = rec.scaled()
    result = {
        "mode": args.mode,
        "scale": scale,
        "setup_s": setup_s * setup_scale,
        "samples": samples,
        "wall_setup_s": setup_s,
        "wall_samples": rec.samples,
        "wall_s": wall_s,
        "rss_mib": rss_mib,
        "counters": counters,
        "sizes": workload.sizes(),
    }
    if args.mode == "heap":
        heap = heap_bytes(tracemalloc.take_snapshot())
        tracemalloc.stop()
        result["heap_bytes"] = heap
    if tracer is not None:
        result["layers"], result["split"] = tracer.layer_totals(rec.kinds)
        result["root_s"] = tracer.root_s()
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-{args.seed}.json",
                     rec.kinds)

    result["failures"] = rec.failures + workload.checks()
    result["counts"] = workload.counts(after)
    if args.mode == "heap":
        result["heap_records"] = {
            "storage.database": result["counts"]["db_records"],
            "pql.oem": after.get("oem.records_applied", 0)}
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
