"""The three workloads: seeded inputs, set-up, the timed loop, checks.

Every workload follows one protocol, driven by ``rep.py``:

* the constructor generates every input from the seed -- op schedule,
  payload bytes, record streams and query texts -- before anything is
  timed;
* :meth:`setup` boots and preloads the system (timed as ``setup_s``);
* :meth:`run` issues the client's operations one at a time (a closed
  loop with one client) through a :class:`Recorder`, which times each;
* :meth:`checks` verifies the outputs outside the timed region and
  returns one message per failed check;
* :meth:`counts` returns the exact figures that must repeat for one
  seed, and :meth:`counters` the program's own counters.
"""

from __future__ import annotations

import gc
import random
import statistics
import traceback
from collections import defaultdict
from operator import itemgetter
from time import perf_counter_ns

from repro.core.pnode import ObjectRef
from repro.core.records import Attr, ObjType, ProvenanceRecord
from repro.obs import Observability
from repro.pql.engine import QueryEngine
from repro.pql.indexes import VIEW_MAX_ENTRIES
from repro.query import helpers
from repro.storage.database import ProvenanceDatabase
from repro.system import System
from repro.workloads import compile as kbuild, mercurial, postmark


#: Timed ops between two host-speed probes.
PROBE_EVERY = 50
#: Entries the probe builds (about 4 ms on a shared 2-core VM).
PROBE_ENTRIES = 8000
#: The probe time that counts as reference host speed: about that VM's
#: typical speed, so scaled times read close to wall time.
#: Changing it rescales every time metric.
REF_PROBE_NS = 4_000_000


def probe_ns() -> int:
    """Time a fixed pure-Python job: the host's speed right now.

    The job builds, walks, sorts and frees a dict of tuple keys and list
    values, the object churn the program's own code does, so a host
    whose memory system is contended slows it as it slows the program
    (a loop over small ints barely notices).  It calls nothing in the
    program, so no change to the program can move it.  The cyclic GC is
    off while it runs and everything it allocates is freed, so it
    neither pays for a collection nor shifts the program's own
    collections.
    """
    enabled = gc.isenabled()
    gc.disable()
    start = perf_counter_ns()
    table = {}
    for i in range(PROBE_ENTRIES):
        table[(i, str(i))] = [i, 2 * i]
    total = 0
    for value in table.values():
        total += value[0]
    sorted(table, key=itemgetter(1))
    del table
    elapsed = perf_counter_ns() - start
    if enabled:
        gc.enable()
    return elapsed


class Recorder:
    """Times each client operation; counts the ones that raise; probes
    the host's speed every ``PROBE_EVERY`` ops, outside the op times."""

    def __init__(self, tracer=None):
        #: Wall-clock ns per op, by op class and in op order.
        self.samples: dict[str, list[int]] = defaultdict(list)
        self.ns: list[int] = []
        self.failures: list[str] = []
        #: Class of each timed op, indexed by op id.
        self.kinds: list[str] = []
        self.probes: list[int] = []
        self.tracer = tracer

    def time(self, kind: str, fn, *args):
        op = len(self.kinds)
        if op % PROBE_EVERY == 0:
            self.probes.append(probe_ns())
        self.kinds.append(kind)
        tracer = self.tracer
        if tracer is not None:
            tracer.op_id = op
        start = perf_counter_ns()
        try:
            return fn(*args)
        except Exception:                   # counted, run continues
            self.failures.append(f"{kind} raised:\n"
                                 + traceback.format_exc(limit=4))
            return None
        finally:
            elapsed = perf_counter_ns() - start
            self.samples[kind].append(elapsed)
            self.ns.append(elapsed)
            if tracer is not None:
                tracer.op_id = -1

    def scaled(self) -> tuple[dict[str, list[float]], float]:
        """Each op's time scaled to the reference host speed by the
        probes around its block of ``PROBE_EVERY`` ops (the median of
        the two before and the two after), and the median scale."""
        probes = self.probes
        factors = [
            REF_PROBE_NS / statistics.median(probes[max(0, k - 1):k + 3])
            for k in range(len(probes))]
        samples: dict[str, list[float]] = defaultdict(list)
        for op, (kind, ns) in enumerate(zip(self.kinds, self.ns)):
            samples[kind].append(ns * factors[op // PROBE_EVERY])
        return samples, statistics.median(factors)


def _token(rng: random.Random) -> str:
    return f"{rng.getrandbits(32):08x}"


def _stats_counters(system: System) -> dict:
    """The program counters the per-layer report uses, flattened."""
    stats = system.stats()
    out = {}
    for layer in ("analyzer", "lasagna", "waldo", "cache", "pql",
                  "distributor"):
        for key, value in stats[layer]["counters"].items():
            out[f"{layer}.{key}"] = value
    return out


def _catalog_counters(engine: QueryEngine) -> dict:
    catalog = engine.catalog
    out = {f"catalog.{key}": value
           for key, value in (catalog.counters() if catalog else {}).items()}
    out["oem.records_applied"] = engine.graph.records_applied
    return out


# -- capture -----------------------------------------------------------------


class Capture:
    """Application operations through ``System.process()`` syscalls.

    The paper's three local workloads, with the repo's own parameters
    (:mod:`repro.workloads.postmark`, ``compile`` and ``mercurial``):

    * ``txn``: one Postmark transaction in the client process -- half
      read-or-append (half each), half create-or-delete (half each).
      Creates write a 4 KiB--1 MiB hole, appends 4--16 KiB.
    * ``compile``: ``System.run`` of a compiler process that reads its
      9 KiB source and 4 of the 24 shared 3 KiB headers and writes a
      14 KiB object.
    * ``patch``: ``System.run`` of ``patch``: write and read the patch
      file (2 KiB hunks), then for each of 3 files of the 192 KiB tree
      read it, write a temp copy one hunk larger and ``rename`` it over
      the original; unlink the patch file.

    Ops are drawn with the weights of the three workloads' full-size op
    counts (1500 transactions, 320 compile units, 120 patches).  The
    file pools are the paper's, scaled by ``SCALE``.  ``System.sync()``
    runs every ``SYNC_EVERY`` ops.  No query engine is attached.

    Appends carry seeded bytes, so the read-back check compares content;
    every other write is a hole, as in the repo's workloads.
    """

    name = "capture"
    OPS = 6000
    #: Shrinks the file pools, as the repo's ``--scale`` does; no source.
    SCALE = 0.1
    #: No source: the workloads issue no sync of their own.
    SYNC_EVERY = 20
    MIX = (("txn", postmark.TRANSACTIONS), ("compile", kbuild.SOURCE_FILES),
           ("patch", mercurial.PATCHES))

    def __init__(self, seed: int):
        rng = random.Random(f"capture/{seed}")
        self.base = base = f"/pass/pm{_token(rng)}"
        #: path -> expected content, as chunks (bytes, or an int hole).
        self.model: dict[str, list] = {}
        self.gone: set[str] = set()
        self.sources = max(4, int(kbuild.SOURCE_FILES * self.SCALE))
        self.tree = max(4, int(mercurial.TREE_FILES * self.SCALE))
        self.preload: list[tuple[str, int]] = (
            [(f"{base}/include/h{h}.h", kbuild.HEADER_BYTES)
             for h in range(kbuild.SHARED_HEADERS)]
            + [(f"{base}/src/u{u}.c", kbuild.SOURCE_BYTES)
               for u in range(self.sources)]
            + [(f"{base}/hg/f{k}", mercurial.FILE_BYTES)
               for k in range(self.tree)])
        serial = 0

        def new_file() -> tuple[str, int]:
            nonlocal serial
            serial += 1
            size = rng.randint(postmark.MIN_BYTES, postmark.MAX_BYTES)
            return f"{base}/pm/s{serial % postmark.SUBDIRS}/f{serial}", size

        pool = []
        for _ in range(max(10, int(postmark.FILES * self.SCALE))):
            path, size = new_file()
            pool.append(path)
            self.preload.append((path, size))
        for path, size in self.preload:
            self.model[path] = [size]

        kinds = [kind for kind, _ in self.MIX]
        weights = [weight for _, weight in self.MIX]
        self.ops: list[tuple] = []
        for n in range(self.OPS):
            kind = rng.choices(kinds, weights)[0]
            if kind == "txn" and rng.random() < 0.5:
                path = pool[rng.randrange(len(pool))]
                if rng.random() < 0.5:
                    op = ("read", path)
                else:
                    data = rng.randbytes(rng.randint(
                        postmark.MIN_BYTES, 4 * postmark.MIN_BYTES))
                    op = ("append", path, data)
                    self.model[path].append(data)
            elif kind == "txn":
                if rng.random() < 0.5 or len(pool) < 2:
                    path, size = new_file()
                    pool.append(path)
                    op = ("create", path, size)
                    self.model[path] = [size]
                else:
                    path = pool.pop(rng.randrange(len(pool)))
                    op = ("unlink", path)
                    del self.model[path]
                    self.gone.add(path)
            elif kind == "compile":
                unit = rng.randrange(self.sources)
                headers = sorted(rng.sample(range(kbuild.SHARED_HEADERS),
                                            kbuild.HEADERS_PER_FILE))
                obj = f"{base}/obj/u{unit}.o"
                op = ("compile", ["cc", f"{base}/src/u{unit}.c", obj]
                      + [f"{base}/include/h{h}.h" for h in headers])
                self.model[obj] = [kbuild.OBJECT_BYTES]
            else:
                victims = rng.sample(range(self.tree),
                                     mercurial.FILES_PER_PATCH)
                patch = f"{base}/hg/.patch{n}"
                op = ("patch", ["patch", patch]
                      + [f"{base}/hg/f{k}" for k in victims])
                self.gone.add(patch)
                for k in victims:
                    self.model[f"{base}/hg/f{k}"] = [
                        mercurial.FILE_BYTES + mercurial.HUNK_BYTES]
            self.ops.append(op)
        self.system: System | None = None

    # -- the op stream (shared by the PASS arm and the ext3 arm) -------------

    def _boot(self, provenance: bool) -> System:
        base = self.base
        system = System.boot(provenance=provenance)
        with system.process(argv=["tar"]) as proc:
            proc.mkdir(base)
            for sub in ("include", "src", "obj", "hg", "pm"):
                proc.mkdir(f"{base}/{sub}")
            for sub in range(postmark.SUBDIRS):
                proc.mkdir(f"{base}/pm/s{sub}")
            for path, size in self.preload:
                fd = proc.open(path, "w")
                proc.write_hole(fd, size)
                proc.close(fd)
        system.register_program(f"{base}/bin/cc", self._compile_unit)
        system.register_program(f"{base}/bin/patch", self._patch)
        system.sync()
        return system

    @staticmethod
    def _compile_unit(sc) -> int:
        _, source, obj, *headers = sc.proc.argv
        for path in (source, *headers):
            fd = sc.open(path, "r")
            sc.read(fd)
            sc.close(fd)
        sc.compute(kbuild.CPU_PER_FILE)
        fd = sc.open(obj, "w")
        sc.write_hole(fd, kbuild.OBJECT_BYTES)
        sc.close(fd)
        return 0

    @staticmethod
    def _patch(sc) -> int:
        _, patch, *victims = sc.proc.argv
        fd = sc.open(patch, "w")
        sc.write_hole(fd, mercurial.HUNK_BYTES * len(victims))
        sc.close(fd)
        fd = sc.open(patch, "r")
        sc.read(fd)
        sc.close(fd)
        for original in victims:
            temp = f"{original}.orig.tmp"
            fd = sc.open(original, "r")
            sc.read(fd)
            sc.close(fd)
            sc.compute(mercurial.CPU_PER_FILE)
            fd = sc.open(temp, "w")
            sc.write_hole(fd, mercurial.FILE_BYTES + mercurial.HUNK_BYTES)
            sc.close(fd)
            sc.rename(temp, original)
        sc.unlink(patch)
        return 0

    def _do(self, system: System, shell, op: tuple) -> None:
        kind = op[0]
        if kind == "create":
            fd = shell.open(op[1], "w")
            shell.write_hole(fd, op[2])
            shell.close(fd)
        elif kind == "append":
            fd = shell.open(op[1], "a")
            shell.write(fd, op[2])
            shell.close(fd)
        elif kind == "read":
            fd = shell.open(op[1], "r")
            shell.read(fd)
            shell.close(fd)
        elif kind == "unlink":
            shell.unlink(op[1])
        else:
            system.run(f"{self.base}/bin/{op[1][0]}", argv=op[1])

    # -- protocol ------------------------------------------------------------

    def setup(self) -> None:
        self.system = self._boot(provenance=True)

    def _stream(self, system: System, call) -> float:
        """Issue the op stream through ``call(kind, fn, *args)``, with a
        sync every ``SYNC_EVERY`` ops; returns the simulated seconds."""
        start = system.elapsed()
        with system.process(argv=["postmark"]) as shell:
            for index, op in enumerate(self.ops, 1):
                call("write_op", self._do, system, shell, op)
                if index % self.SYNC_EVERY == 0:
                    call("sync", system.sync)
        call("sync", system.sync)
        return system.elapsed() - start

    def run(self, rec: Recorder) -> None:
        self.sim_pass = self._stream(self.system, rec.time)

    def counters(self) -> dict:
        return _stats_counters(self.system)

    def checks(self) -> list[str]:
        system = self.system
        failures = []
        stats = self.counters()
        # Every record the analyzer let through, plus Lasagna's one MD5
        # record per data write, reached the database.
        expected = stats["analyzer.records_out"] + stats["lasagna.data_writes"]
        if expected != stats["waldo.records_inserted"]:
            failures.append(
                f"analyzer records_out + data writes = {expected} but "
                f"waldo inserted {stats['waldo.records_inserted']}")
        report = system.fsck()
        if not report.clean:
            failures.append(f"fsck: {report}")
        with system.process(argv=["verify"]) as proc:
            for path, chunks in self.model.items():
                want = b"".join(chunk if isinstance(chunk, bytes)
                                else bytes(chunk) for chunk in chunks)
                fd = proc.open(path, "r")
                got = proc.read(fd)
                proc.close(fd)
                if got != want:
                    failures.append(f"read-back mismatch: {path}")
            for path in self.gone:
                if proc.exists(path):
                    failures.append(f"unlinked file exists: {path}")
        # The same op stream on a provenance=False machine: the ext3 arm
        # of the simulated-clock overhead (a model, paper Table 2).
        sim_ext3 = self._stream(self._boot(provenance=False),
                                lambda kind, fn, *args: fn(*args))
        self.sim_overhead_pct = 100.0 * (self.sim_pass / sim_ext3 - 1.0)
        return failures

    def counts(self, counters: dict) -> dict:
        return {
            "db_records": sum(len(db) for db in self.system.databases()),
            "store_bytes": self.system.sizes()["total"],
            "sim_overhead_pct": self.sim_overhead_pct,
            "log_flushes": counters["lasagna.log_flushes"],
            "group_commits": counters["lasagna.batch_flushes"],
            "records_out": counters["analyzer.records_out"],
        }

    def sizes(self) -> dict:
        return {"ops": len(self.ops), "preloaded_files": len(self.preload),
                "sync_every": self.SYNC_EVERY, "scale": self.SCALE,
                "live_files_at_end": len(self.model)}


# -- query -------------------------------------------------------------------


class Query:
    """Read-only queries over a seeded build-like DAG.

    Group ``i`` is a source file, the ``cc`` process that reads it
    (plus ``FAN`` shared sources from the last ``WINDOW`` groups and
    the previous ``DEPTH`` outputs of its chain) and the output file it
    writes.  The query mix: ``lookup`` (md5 or name equality), ``lineage`` (PQL
    ``input*`` from outputs, ``^input*`` from sources, and
    ``helpers.ancestry_refs`` for output roots) and ``traverse``
    (``input{1,4}``).  Its roots are spread over all the groups, far
    more distinct files than the ancestry view's LRU holds.
    """

    name = "query"
    GROUPS = 10000
    FAN = 8
    WINDOW = 1024
    DEPTH = 4
    CHAINS = 256
    LOOKUPS = 1200
    TRAVERSE = 800
    #: Lineage: PQL input* from outputs, ^input* from sources, and
    #: helpers.ancestry_refs from outputs.
    ANCESTRY = 400
    DESCENDANTS = 200
    HELPERS = 200
    SAMPLE = 4

    def __init__(self, seed: int):
        rng = random.Random(f"query/{seed}")
        tag = _token(rng)
        records: list[ProvenanceRecord] = []
        add = records.append

        def R(pnode, attr, value):
            add(ProvenanceRecord(ObjectRef(pnode, 0), attr, value))

        self.src_names, self.out_names, self.md5s = [], [], []
        for i in range(self.GROUPS):
            src, proc, out = 3 * i + 1, 3 * i + 2, 3 * i + 3
            src_name = f"/src/{tag}/file{i}.c"
            out_name = f"/out/{tag}/file{i}.o"
            out_md5 = f"{rng.getrandbits(64):016x}"
            self.src_names.append(src_name)
            self.out_names.append(out_name)
            self.md5s.append(out_md5)
            R(src, Attr.TYPE, ObjType.FILE)
            R(src, Attr.NAME, src_name)
            R(src, "MD5", f"{rng.getrandbits(64):016x}")
            R(src, "MTIME", float(i))
            R(proc, Attr.TYPE, ObjType.PROCESS)
            R(proc, Attr.NAME, "cc")
            R(proc, Attr.INPUT, ObjectRef(src, 0))
            for _ in range(self.FAN):
                j = i - rng.randrange(min(i + 1, self.WINDOW))
                R(proc, Attr.INPUT, ObjectRef(3 * j + 1, 0))
            for d in range(1, self.DEPTH + 1):
                j = i - d * self.CHAINS
                if j >= 0:
                    R(proc, Attr.INPUT, ObjectRef(3 * j + 3, 0))
            R(out, Attr.TYPE, ObjType.FILE)
            R(out, Attr.NAME, out_name)
            R(out, "MD5", out_md5)
            R(out, "MTIME", float(i) + 0.5)
            R(out, Attr.INPUT, ObjectRef(proc, 0))
        self.records = records

        self.ops: list[tuple] = []
        for _ in range(self.LOOKUPS):
            i = rng.randrange(self.GROUPS)
            self.ops.append(("lookup", self.lookup_md5(self.md5s[i])
                             if rng.random() < 0.5
                             else self.lookup_name(self.out_names[i])))
        # Roots are stratified: one per equal slice of the groups, seeded
        # within it.  Closure sizes grow with a group's index, so every
        # seed then queries the same spread of closure sizes.
        roots: set[int] = set()

        def stratified(n: int) -> list[int]:
            width = self.GROUPS // n
            picked = [k * width + rng.randrange(width) for k in range(n)]
            roots.update(picked)
            return picked

        self.ops += [("traverse", self.traverse(i))
                     for i in stratified(self.TRAVERSE)]
        self.ops += [("lineage", self.ancestry(i))
                     for i in stratified(self.ANCESTRY)]
        self.ops += [("lineage", self.descendants(i))
                     for i in stratified(self.DESCENDANTS)]
        self.ops += [("lineage", ObjectRef(3 * i + 3, 0))
                     for i in stratified(self.HELPERS)]
        rng.shuffle(self.ops)
        self.distinct_roots = len(roots)
        self.sample_roots = rng.sample(range(self.GROUPS), self.SAMPLE)
        self.database: ProvenanceDatabase | None = None
        self.engine: QueryEngine | None = None

    def lookup_md5(self, md5: str) -> str:
        return f'select F from Provenance.file as F where F.md5 = "{md5}"'

    def lookup_name(self, name: str) -> str:
        return f'select F from Provenance.file as F where F.name = "{name}"'

    def ancestry(self, i: int) -> str:
        return ("select A from Provenance.file as F, F.input* as A "
                f'where F.name = "{self.out_names[i]}"')

    def descendants(self, i: int) -> str:
        return ("select D from Provenance.file as F, F.^input* as D "
                f'where F.name = "{self.src_names[i]}"')

    def traverse(self, i: int) -> str:
        return ("select A from Provenance.file as F, F.input{1,4} as A "
                f'where F.name = "{self.out_names[i]}"')

    def setup(self) -> None:
        self.database = ProvenanceDatabase("bench")
        self.database.insert_many(self.records)
        self.engine = QueryEngine.live([self.database], obs=Observability())
        # Lazy index builds, the first closures and the CSR snapshot
        # (built on the second request at an unchanged graph).
        warm = self.GROUPS // 2
        for text in (self.lookup_md5(self.md5s[warm]),
                     self.lookup_name(self.out_names[warm]),
                     self.ancestry(warm), self.descendants(warm),
                     self.traverse(warm), self.traverse(warm)):
            self.engine.execute(text)
        helpers.ancestry_refs([self.database], ObjectRef(3 * warm + 3, 0))

    def run(self, rec: Recorder) -> None:
        execute = self.engine.execute
        databases = [self.database]
        for kind, arg in self.ops:
            if isinstance(arg, str):
                rec.time(kind, execute, arg)
            else:
                rec.time(kind, helpers.ancestry_refs, databases, arg)

    def counters(self) -> dict:
        counters = {f"pql.{key}": value for key, value in
                    self.engine.obs.stats()["pql"]["counters"].items()}
        counters.update(_catalog_counters(self.engine))
        return counters

    def checks(self) -> list[str]:
        engine = self.engine
        failures = []
        for i in self.sample_roots:
            for text in (self.lookup_md5(self.md5s[i]),
                         self.lookup_name(self.out_names[i]),
                         self.ancestry(i), self.descendants(i),
                         self.traverse(i)):
                planned = sorted(map(repr, engine.execute_refs(text)))
                naive = sorted(repr(node.ref) for node in
                               engine.execute(text, optimize=False))
                if planned != naive:
                    failures.append(f"planned != naive: {text}")
            # input* is zero-or-more hops, so it holds the root too.
            root = ObjectRef(3 * i + 3, 0)
            pql = set(engine.execute_refs(self.ancestry(i))) - {root}
            if pql != helpers.ancestry_refs([self.database], root):
                failures.append(f"ancestry_refs != PQL input* for group {i}")
        return failures

    def counts(self, counters: dict) -> dict:
        return {"db_records": len(self.database),
                "store_bytes": self.database.sizes()["total"],
                "nodes": len(self.engine.graph),
                "rows_returned": counters.get("pql.rows_returned", 0)}

    def sizes(self) -> dict:
        return {"records": len(self.records),
                "nodes": len(self.engine.graph),
                "queries": len(self.ops),
                "distinct_lineage_roots": self.distinct_roots,
                "view_max_entries": VIEW_MAX_ENTRIES}


# -- mixed -------------------------------------------------------------------


class Mixed:
    """Writes beside reads, in rounds, on a live engine.

    Each round: ``WRITES`` application runs that read a recent output
    and a seed file and write a new output with a DPAPI disclosure
    (``record_many`` + ``pass_write``), plus one bulk disclosure burst;
    then
    ``System.sync()`` with the live engine attached (log flush, Waldo
    drain, OEM apply, index and view maintenance); then lookups and
    lineage queries over a hot set of the ``HOT`` most recent outputs,
    small enough for the ancestry view's LRU.
    """

    name = "mixed"
    SEEDS = 32
    ROUNDS = 120
    WRITES = 12
    DISCLOSED = 16
    #: Above ``LogParams.group_commit_records`` (512), so every burst
    #: takes the log's group-commit path.
    BURST = 1024
    HOT = 64
    LOOKUPS = 8
    LINEAGE = 8

    def __init__(self, seed: int):
        rng = random.Random(f"mixed/{seed}")
        self.base = f"/pass/mx{_token(rng)}"
        self.seed_files = [(f"{self.base}/in{k}.dat",
                            rng.randbytes(rng.randint(64, 1024)))
                           for k in range(self.SEEDS)]
        hot = [path for path, _ in self.seed_files]
        self.rounds = []
        for r in range(self.ROUNDS):
            writes = []
            for k in range(self.WRITES):
                out = f"{self.base}/r{r}-o{k}-{_token(rng)}.dat"
                reads = [rng.choice(hot[-self.HOT:]),
                         rng.choice(self.seed_files)[0]]
                notes = [f"r{r}.o{k}.n{n}.{_token(rng)}"
                         for n in range(self.DISCLOSED)]
                writes.append((out, reads,
                               rng.randbytes(rng.randint(64, 1024)), notes))
            hot.extend(out for out, _, _, _ in writes)
            burst = [f"r{r}.burst.{n}.{_token(rng)}"
                     for n in range(self.BURST)]
            recent = hot[-self.HOT:]
            lookups = [self.lookup(rng.choice(recent))
                       for _ in range(self.LOOKUPS)]
            lineage = []
            for n in range(self.LINEAGE):
                # Alternately PQL input* and helpers.ancestry_refs.
                name = rng.choice(recent)
                lineage.append((name, self.ancestry(name) if n % 2 == 0
                                else None))
            self.rounds.append((writes, burst, lookups, lineage))
        self.round_failures: list[str] = []
        self.system: System | None = None
        self.engine: QueryEngine | None = None

    @staticmethod
    def lookup(name: str) -> str:
        return f'select F from Provenance.file as F where F.name = "{name}"'

    @staticmethod
    def ancestry(name: str) -> str:
        return ("select A from Provenance.file as F, F.input* as A "
                f'where F.name = "{name}"')

    def setup(self) -> None:
        system = self.system = System.boot()
        with system.process(argv=["stage"]) as proc:
            proc.mkdir(self.base)
            for path, data in self.seed_files:
                fd = proc.open(path, "w")
                proc.write(fd, data)
                proc.close(fd)
        system.sync()
        self.engine = system.query_engine()
        warm = self.seed_files[0][0]
        self.engine.execute(self.lookup(warm))
        self.engine.execute(self.ancestry(warm))
        helpers.ancestry_refs(system.databases(),
                              helpers.newest_ref_by_name(
                                  system.databases(), warm))

    def _produce(self, out: str, reads: list[str], data: bytes,
                 notes: list[str]) -> None:
        with self.system.process(argv=["app", out]) as proc:
            for path in reads:
                fd = proc.open(path, "r")
                proc.read(fd)
                proc.close(fd)
            fd = proc.open(out, "w")
            dpapi = proc.dpapi
            disclosed = dpapi.record_many(fd, Attr.ANNOTATION, notes)
            dpapi.pass_write(fd, data, records=disclosed)
            proc.close(fd)

    def _burst(self, target: str, notes: list[str]) -> None:
        with self.system.process(argv=["checkpoint"]) as proc:
            fd = proc.open(target, "a")
            dpapi = proc.dpapi
            dpapi.pass_write(fd, records=dpapi.record_many(
                fd, Attr.ANNOTATION, notes))
            proc.close(fd)

    def run(self, rec: Recorder) -> None:
        system, execute = self.system, self.engine.execute
        databases = system.databases()
        for writes, burst, lookups, lineage in self.rounds:
            for write in writes:
                rec.time("write_op", self._produce, *write)
            rec.time("write_op", self._burst, writes[0][0], burst)
            rec.time("sync", system.sync)
            # Outside the timed ops: every output of the round is found
            # by name after the sync; resolve the helpers' roots.
            for out, _, _, _ in writes:
                if not system.find_by_name(out):
                    self.round_failures.append(f"not found after sync: {out}")
            for text in lookups:
                rec.time("lookup", execute, text)
            for name, text in lineage:
                if text is not None:
                    rec.time("lineage", execute, text)
                else:
                    ref = helpers.newest_ref_by_name(databases, name)
                    rec.time("lineage", helpers.ancestry_refs, databases, ref)

    def counters(self) -> dict:
        counters = _stats_counters(self.system)
        counters.update(_catalog_counters(self.engine))
        return counters

    def checks(self) -> list[str]:
        failures = list(self.round_failures)
        annotations = sum(1 for db in self.system.databases()
                          for record in db.all_records()
                          if record.attr == Attr.ANNOTATION)
        expected = self.ROUNDS * (self.WRITES * self.DISCLOSED + self.BURST)
        if annotations != expected:
            failures.append(f"{annotations} disclosed annotations stored, "
                            f"{expected} disclosed")
        report = self.system.fsck()
        if not report.clean:
            failures.append(f"fsck: {report}")
        return failures

    def counts(self, counters: dict) -> dict:
        return {
            "db_records": sum(len(db) for db in self.system.databases()),
            "store_bytes": self.system.sizes()["total"],
            "log_flushes": counters["lasagna.log_flushes"],
            "group_commits": counters["lasagna.batch_flushes"],
            "oem_records": self.engine.graph.records_applied,
        }

    def sizes(self) -> dict:
        return {"rounds": self.ROUNDS,
                "write_ops_per_round": self.WRITES + 1,
                "disclosed_per_write": self.DISCLOSED,
                "burst_records": self.BURST, "hot_set": self.HOT,
                "view_max_entries": VIEW_MAX_ENTRIES}


WORKLOADS = {cls.name: cls for cls in (Capture, Query, Mixed)}
