"""The three workloads and the run that measures one of them.

Each run drives the system with one closed-loop client (one operation in
flight).  An untraced run sets up ``Scale.setups`` times (``setup_s`` is
their median), then runs the workload's main operations for ``seconds``.
Fixed probes are interleaved evenly over that window, so every workload
reports every end-to-end metric and every metric samples the whole
window.  Probes that would disturb a read-only workload run on copies of
its database made after set-up: cold opens on one copy, the write probe
on another.  All answers are checked once the clock has stopped.

A traced run sets up once and runs a fixed prefix of the same operation
list traced, each query also untraced on the same state, then the probes
traced one after another, so per-layer counts repeat exactly for a seed.
"""

from __future__ import annotations

import itertools
import random
import shutil
import statistics
import time
import traceback
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from repro.testing.invariants import assert_invariants

from perfbench import inputs
from perfbench.inputs import FULL, Scale
from perfbench.measure import dir_bytes, machine, peak_rss_mb, summary
from perfbench.oracle import Oracle
from perfbench.systems import Sharded, Single
from perfbench.tracing import PER_LAYER, Tracer, counters, per_layer_metrics, traced_query

__all__ = ["WORKLOADS", "END_TO_END", "run"]

# name -> (unit, better, bound): the bound is the share of the parent's
# median by which the metric may worsen before a change is rejected
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "ops_per_s": ("1/s", "higher", 0.25),
    "query_p50_ms": ("ms", "lower", 0.25),
    "exact_p50_ms": ("ms", "lower", 0.25),
    "cold_query_p50_ms": ("ms", "lower", 0.25),
    "insert_p50_ms": ("ms", "lower", 0.25),
    "remove_p50_ms": ("ms", "lower", 0.25),
    "ingest_docs_per_s": ("docs/s", "higher", 0.25),
    "bytes_per_input_byte": ("B/B", "lower", 0.05),
    "peak_rss_mb": ("MB", "lower", 0.1),
}


@dataclass(frozen=True)
class Spec:
    """What distinguishes one workload."""

    datasets: tuple[str, ...]
    probes: tuple[str, ...]  # which of "exact", "writes" it adds to "cold"
    sharded: bool = False
    wal: bool = False


WORKLOADS = {
    "table3": Spec(("dblp", "xmark"), ("writes",)),
    "dynamic": Spec(("dblp",), ("exact",), wal=True),
    "sharded": Spec(("dblp",), ("writes",), sharded=True),
}

_KIND = {"ins": "insert", "rm": "remove", "chunk": "chunk", "cold": "cold"}


def _kind(op: tuple) -> str:
    if op[0] == "q":
        return "exact" if op[3] else "query"
    return _KIND[op[0]]


def _pack(ids) -> Optional[bytes]:
    """Answers are kept as bytes until checking: compact, exact, and
    invisible to the garbage collector the program under test shares."""
    return None if ids is None else array("q", ids).tobytes()


def _dataset(key: str) -> str:
    """``dblp:cold`` -> ``dblp``: system keys name a copy's dataset first."""
    return key.split(":")[0]


def _interleave(*lists: list) -> list:
    """Merge lists so each one's items are spread evenly, order kept."""
    keyed = [
        ((i + 0.5) / len(items), n, i, op)
        for n, items in enumerate(lists)
        for i, op in enumerate(items)
    ]
    return [op for *_, op in sorted(keyed, key=lambda k: k[:3])]


@dataclass
class Pass:
    """Operations that share one live-document model, in execution order."""

    records: list = field(default_factory=list)  # (op, result) or (op, None, "raised")
    snapshot_at: Optional[int] = None  # records made before the durability copy


class Run:
    def __init__(self, name, seed, seconds, scale, workdir, wrap=None) -> None:
        self.name = name
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.scale = scale
        self.workdir = Path(workdir)
        self.wrap = wrap
        self.samples: dict[str, dict[str, list[float]]] = {}
        self.passes: list[Pass] = [Pass()]
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.tracer: Optional[Tracer] = None
        self.systems: dict = {}
        self.xml: dict[str, list[bytes]] = {}
        self.bytes_in = 0

    # -- inputs ----------------------------------------------------------

    def prepare(self) -> None:
        """Query pools, operation lists and the documents writes add.
        Untimed: this is the client's load, not the system's set-up."""
        scale, seed, spec = self.scale, self.seed, self.spec
        rng = random.Random(seed)
        self.pool = {d: inputs.table3(d) for d in spec.datasets}
        cycle = [
            ("q", d, x, v) for d in spec.datasets for x in self.pool[d] for v in (False, True)
        ]
        self.warmup = [op for op in cycle if not op[3]]
        if self.name == "dynamic":
            self.ops = inputs.dynamic_ops(seed, scale)
            self.rounds = None
            self.trace_ops = self.ops[: scale.trace_ops]
        else:
            self.rounds = inputs.rounds(rng, cycle, 64)
            self.trace_ops = [op for r in self.rounds for op in r][: scale.trace_ops]
        queries = [(d, x) for d in spec.datasets for x in self.pool[d]]
        cold = [
            ("cold", f"{d}:cold", x)
            for _ in range(scale.cold_rounds)
            for d, x in queries
        ]
        probes = [cold]
        if "exact" in spec.probes:
            probes.append([
                ("q", d, x, True) for _ in range(scale.exact_rounds) for d, x in queries
            ])
        if "writes" in spec.probes:
            probes.append([
                (op[0], "dblp:write", *op[2:]) for op in inputs.write_probe(seed, scale)
            ])
        self.probes = _interleave(*probes)
        if self.name == "dynamic":
            size = scale.corpus + sum(
                1 if op[0] == "ins" else op[3] for op in self.ops if op[0] in ("ins", "chunk")
            )
        else:
            size = inputs.probe_universe_size(scale)
        self.xml["dblp"] = inputs.to_xml(inputs.universe("dblp", seed, size))

    # -- set-up ----------------------------------------------------------

    def setup(self, tag: str) -> float:
        """Generate the corpora, build, open and warm up; returns seconds."""
        t0 = time.perf_counter()
        self.systems = systems = {}  # tracked at once: a failed set-up is torn down
        self.bytes_in = 0
        for dataset in self.spec.datasets:
            corpus = inputs.to_xml(inputs.universe(dataset, self.seed, self.scale.corpus))
            self.bytes_in += sum(len(x) for x in corpus)
            path = self.workdir / f"{tag}-{dataset}"
            system = Sharded(path) if self.spec.sharded else Single(path, self.spec.wal)
            systems[dataset] = system
            system.build(corpus)
            if self.spec.sharded:
                system.serve()
            else:
                system.open()
        for op in self.warmup:
            systems[op[1]].query(op[2], op[3])
        return time.perf_counter() - t0

    def copy_for_probes(self) -> None:
        """Cold-open and write-probe copies of the freshly set-up data."""
        for dataset in self.spec.datasets:
            self.systems[f"{dataset}:cold"] = self._copy(dataset, "cold")
        if "writes" in self.spec.probes:
            system = self._copy("dblp", "write")
            system.open()
            self.systems["dblp:write"] = system

    def _copy(self, dataset: str, role: str):
        source = self.systems[dataset].path
        path = source.with_name(f"{source.name}-{role}")
        shutil.copytree(source, path)
        return Sharded(path) if self.spec.sharded else Single(path, self.spec.wal)

    def destroy(self) -> None:
        systems, self.systems = self.systems, {}
        for system in systems.values():
            system.destroy()

    # -- operations ------------------------------------------------------

    def execute(self, op: tuple, pass_: Optional[Pass] = None) -> Optional[float]:
        """Run one operation; returns its latency in ms (None on error)."""
        pass_ = pass_ if pass_ is not None else self.passes[-1]
        self.attempted += 1
        system = self.systems[op[1]]
        try:
            if self.tracer is None:
                t0 = time.perf_counter()
                result = self._plain(op, system)
                ms = (time.perf_counter() - t0) * 1000.0
            else:
                result, ms = self._traced(op, system)
        except Exception:  # noqa: BLE001 - counted as a failed operation
            self._fail(f"{op[:4]}: {traceback.format_exc(limit=3)}")
            pass_.records.append((op, None, "raised"))
            return None
        if self.wrap is not None and op[0] in ("q", "cold"):
            result = self.wrap(op, result)
        pass_.records.append((op, _pack(result)))
        return ms

    def execute_with(self, tracer: Optional[Tracer], op: tuple, pass_: Pass) -> Optional[float]:
        """:meth:`execute` with ``tracer`` in place of the run's own."""
        saved, self.tracer = self.tracer, tracer
        try:
            return self.execute(op, pass_)
        finally:
            self.tracer = saved

    def _docs(self, op: tuple) -> list[bytes]:
        count = 1 if op[0] == "ins" else op[3]
        return self.xml[_dataset(op[1])][op[2] : op[2] + count]

    def _plain(self, op: tuple, system):
        if op[0] == "q":
            return system.query(op[2], op[3])
        if op[0] == "rm":
            system.remove(op[2])
            return None
        if op[0] != "cold":
            return system.add(self._docs(op))
        cold = system.open_cold()
        cold.open()
        try:
            return cold.query(op[2], False)
        finally:
            cold.close()

    def _traced(self, op: tuple, system):
        tr = self.tracer
        kind = _kind(op)
        if kind == "cold":
            cold = system.open_cold()
            with tr.op("cold"):
                with tr.span("open"):
                    cold.open()
                try:
                    result = traced_query(tr, "cold", cold.parts, op[2], False)
                    tr.count("cold", **counters(cold.indexes))
                finally:
                    with tr.span("close"):
                        cold.close()
            return result, tr.op_ms["cold"][-1]
        if op[0] == "q" and getattr(system, "executor", None) is not None:
            with tr.op("rpc"):
                t0 = time.perf_counter()
                result, elapsed = system.rpc(op[2], op[3])
                client = (time.perf_counter() - t0) * 1000.0
            slowest = max(elapsed)
            tr.count(
                "rpc",
                worker_ms=slowest,
                overhead_ms=client - slowest,
                skew_ms=slowest - min(elapsed),
            )
            return result, tr.op_ms["rpc"][-1]
        with tr.op(kind, system.indexes):
            if op[0] == "q":
                result = traced_query(tr, kind, system.parts, op[2], op[3])
            elif op[0] == "rm":
                system.remove(op[2], tr)
                result = None
            else:
                result = system.add(self._docs(op), tr)
                if op[0] == "chunk":
                    tr.count("chunk", chunk_docs=op[3])
        return result, tr.op_ms[kind][-1]

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(message)

    def timed(self, op: tuple) -> float:
        """Run and record one operation; returns the seconds it took."""
        t0 = time.perf_counter()
        ms = self.execute(op)
        if ms is not None:
            kind = _kind(op)
            group = op[2] if kind in ("query", "exact", "cold") else kind
            self.samples.setdefault(kind, {}).setdefault(group, []).append(ms)
        return time.perf_counter() - t0

    # -- phases ----------------------------------------------------------

    def measure(self) -> tuple[int, float]:
        """The main operations for ``seconds`` with the probes spread
        evenly over the window; returns (main ops, seconds spent on them)."""
        start = time.perf_counter()
        spacing = self.seconds / len(self.probes)
        probe_s = 0.0
        done = 0
        due = 0

        def probes_due(flush: bool = False) -> float:
            nonlocal due
            spent = 0.0
            while due < len(self.probes) and (
                flush or time.perf_counter() >= start + (due + 0.5) * spacing
            ):
                spent += self.timed(self.probes[due])
                due += 1
            return spent

        if self.rounds is not None:
            batches = itertools.cycle(self.rounds)
        else:
            batches = ([op] for op in self.ops)
        for batch in batches:
            if time.perf_counter() >= start + self.seconds:
                break
            for op in batch:
                self.timed(op)
                done += 1
                probe_s += probes_due()
        probe_s += probes_due(flush=True)
        return done, time.perf_counter() - start - probe_s

    def durability_copy(self) -> Path:
        """Copy the live database directory without closing it."""
        copy = self.workdir / "durable-copy"
        shutil.copytree(self.systems["dblp"].path, copy)
        self.passes[-1].snapshot_at = len(self.passes[-1].records)
        return copy

    def bytes_ratio(self) -> float:
        """On-disk bytes of the main databases over the UTF-8 bytes of
        every document they were given."""
        inserted = sum(
            sum(len(x) for x in self._docs(record[0]))
            for record in self.passes[-1].records
            if record[0][0] in ("ins", "chunk") and ":" not in record[0][1]
        )
        on_disk = sum(
            dir_bytes(system.path) for key, system in self.systems.items() if ":" not in key
        )
        return on_disk / (self.bytes_in + inserted)

    # -- checking --------------------------------------------------------

    def check(self, durable_copy: Optional[Path]) -> None:
        """Replay every pass against the live-document model and compare
        each answer with the oracle; then the durability check."""
        sizes = {d: self.scale.corpus for d in self.spec.datasets}
        for pass_ in self.passes:
            for record in pass_.records:
                op = record[0]
                if op[0] in ("ins", "chunk"):
                    end = op[2] + (1 if op[0] == "ins" else op[3])
                    sizes[_dataset(op[1])] = max(sizes[_dataset(op[1])], end)
        oracles = {d: Oracle(inputs.universe(d, self.seed, n)) for d, n in sizes.items()}
        snapshot_live = None
        for pass_ in self.passes:
            live: dict[str, set] = {}
            for i, record in enumerate(pass_.records):
                if i == pass_.snapshot_at:
                    snapshot_live = set(live.get("dblp", range(self.scale.corpus)))
                op = record[0]
                docs = live.setdefault(op[1], set(range(self.scale.corpus)))
                if len(record) == 2 and not self._check_one(op, record[1], docs, oracles):
                    self._fail(f"wrong answer for {op[:4]}")
            if pass_.snapshot_at == len(pass_.records):
                snapshot_live = set(live.get("dblp", range(self.scale.corpus)))
        if durable_copy is not None:
            self._check_durable(durable_copy, snapshot_live, oracles["dblp"])

    def _check_one(self, op, result, live: set, oracles) -> bool:
        if op[0] == "ins":
            live.add(op[2])
            return result == _pack([op[2]])
        if op[0] == "chunk":
            ids = range(op[2], op[2] + op[3])
            live.update(ids)
            return result == _pack(ids)
        if op[0] == "rm":
            live.discard(op[2])
            return True
        verify = op[3] if op[0] == "q" else False
        return result == _pack(oracles[_dataset(op[1])].expected(op[2], verify, live))

    def _check_durable(self, copy: Path, live: set, oracle: Oracle) -> None:
        """Reopen the copy: acknowledged writes present, exact answers
        right over the live model, structural invariants clean."""
        system = Single(copy, wal=True)
        system.open()
        try:
            checks = [
                ("live ids", lambda: set(system.index.docstore.ids()) == live),
                ("invariants", lambda: assert_invariants(system.index) is not None),
            ] + [
                (f"exact {x}", lambda x=x: system.query(x, True) == oracle.expected(x, True, live))
                for x in self.pool["dblp"]
            ]
            for label, check in checks:
                self.attempted += 1
                try:
                    ok = check()
                except Exception:  # noqa: BLE001 - a failed check is an error
                    ok = False
                    label += ": " + traceback.format_exc(limit=3)
                if not ok:
                    self._fail(f"durability check failed: {label}")
        finally:
            system.close()

    def type_medians(self, kind: str) -> dict[str, float]:
        """Each operation type's median latency (each query is a type)."""
        return {t: statistics.median(v) for t, v in self.samples.get(kind, {}).items()}

    def typical_ms(self, kind: str) -> float:
        """Geometric mean of the per-type medians: it moves with every
        type's latency in proportion, and does not jump between types the
        way a pooled median of mixed latencies does."""
        medians = self.type_medians(kind)
        return statistics.geometric_mean(medians.values()) if medians else 0.0


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: Scale = FULL,
    workdir: Optional[Path] = None,
    wrap: Optional[Callable] = None,
) -> tuple[dict, dict]:
    """Run one workload; returns (result line, detail report)."""
    r = Run(name, seed, seconds, scale, workdir, wrap)
    before = machine()
    detail: dict = {"workload": name, "seed": seed, "trace": trace}
    t0 = time.perf_counter()
    r.prepare()
    detail["prepare_s"] = time.perf_counter() - t0
    try:
        metrics = _run_traced(r, detail) if trace else _run_timed(r, detail)
    finally:
        r.destroy()
    detail["machine"] = before
    detail["loadavg_after"] = list(machine()["loadavg"])
    detail["attempted"] = r.attempted
    detail["failed"] = r.failed
    detail["error_ratio"] = r.failed / r.attempted if r.attempted else 1.0
    detail["failures"] = r.failures
    result = {
        "correct": r.failed == 0,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": metrics,
    }
    return result, detail


def _run_timed(r: Run, detail: dict) -> dict:
    phases = detail["phase_s"] = {}
    mark = time.perf_counter()

    def phase(name: str) -> None:
        nonlocal mark
        now = time.perf_counter()
        phases[name] = now - mark
        mark = now

    setups = []
    for i in range(r.scale.setups):
        if i:
            r.destroy()
        setups.append(r.setup(f"setup{i}"))
    r.copy_for_probes()
    phase("setups")
    done, main_s = r.measure()
    ratio = r.bytes_ratio()
    copy = r.durability_copy() if r.name == "dynamic" else None
    phase("measure")
    rss = peak_rss_mb()
    r.check(copy)
    phase("check")
    chunks = r.samples.get("chunk", {}).get("chunk", [])
    chunk_docs = r.scale.chunk * len(chunks)
    detail["setup_s"] = setups
    detail["main_ops"] = done
    detail["main_seconds"] = main_s
    detail["latency_ms"] = {
        kind: dict(
            summary([ms for v in groups.values() for ms in v]),
            type_p50=r.type_medians(kind),
        )
        for kind, groups in sorted(r.samples.items())
    }
    return _with_units({
        "setup_s": statistics.median(setups),
        "ops_per_s": done / main_s,
        "query_p50_ms": r.typical_ms("query"),
        "exact_p50_ms": r.typical_ms("exact"),
        "cold_query_p50_ms": r.typical_ms("cold"),
        "insert_p50_ms": r.typical_ms("insert"),
        "remove_p50_ms": r.typical_ms("remove"),
        "ingest_docs_per_s": chunk_docs / (sum(chunks) / 1000.0) if chunks else 0.0,
        "bytes_per_input_byte": ratio,
        "peak_rss_mb": rss,
    }, {name: spec[0] for name, spec in END_TO_END.items()})


def _run_traced(r: Run, detail: dict) -> dict:
    r.setup("setup0")
    r.copy_for_probes()
    r.tracer = tr = Tracer()
    if r.spec.sharded:
        for op in r.trace_ops:  # scatter-gather: shard.* from the replies
            r.execute(op)
        r.passes.append(Pass())
        for dataset in r.spec.datasets:
            r.systems[dataset].stop_serving()
            r.systems[dataset].open()
    overhead = _traced_prefix(r)
    pages = sum(
        index.tree.pager.page_count
        for key, system in r.systems.items()
        if ":" not in key
        for index in system.indexes
    )
    copy = r.durability_copy() if r.name == "dynamic" else None
    for op in r.probes:
        r.execute(op)
    r.check(copy)
    trace_dir = r.workdir.parent / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_file = trace_dir / f"{r.name}-seed{r.seed}.jsonl"
    tr.write(trace_file)
    detail["trace_file"] = str(trace_file)
    detail["spans"] = len(tr.spans)
    detail["traced_ops"] = dict(tr.ops)
    return _with_units(
        per_layer_metrics(tr, overhead, pages),
        {name: spec[0] for name, spec in PER_LAYER.items()},
    )


def _traced_prefix(r: Run) -> float:
    """Run the traced prefix.  Each query is then run twice more on the
    same state, untraced and traced (with a throwaway tracer) in
    alternating order: both answers must equal the traced one, and the
    raw-query times give the tracing overhead, the geometric mean over
    XPaths of traced median / untraced median."""
    times: dict[bool, dict[str, list[float]]] = {False: {}, True: {}}
    for i, op in enumerate(r.trace_ops):
        r.execute(op)
        if op[0] != "q":
            continue
        answer = r.passes[-1].records[-1][1:]
        for traced in (False, True) if i % 2 else (True, False):
            again = Pass()
            ms = r.execute_with(Tracer() if traced else None, op, again)
            if again.records[0][1:] != answer:
                r._fail(f"traced answer differs from index.query for {op[:4]}")
            elif ms is not None and _kind(op) == "query":
                times[traced].setdefault(op[2], []).append(ms)
    ratios = [
        statistics.median(ms) / statistics.median(times[False][x])
        for x, ms in times[True].items()
        if x in times[False]
    ]
    return statistics.geometric_mean(ratios) if ratios else 0.0


def _with_units(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
