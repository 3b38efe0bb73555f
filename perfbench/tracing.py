"""Spans and counters for the traced run.

A traced query runs through ``index.query(..., trace=QueryTrace())``,
the same call the untraced run makes, and the program's own span tree
(translation, each frontier level, DocId output, verification) is
copied into the benchmark's span list.  The benchmark adds spans of its
own only around ``parse_xpath``, the ``load_sequence`` calls of
verification, and the public calls a traced write is split into.  A
span has a name, start, end, parent span and operation id.  Spans are
kept in memory and written out as JSON lines when the run ends.  A
span's self time is its duration minus the time its child spans cover.

Counters are the per-stage counts the program's query spans carry, plus
the program's public cumulative counters read before and after each
operation (posting-cache stats, B+Tree descent counters, BufferPool
stats and read count, the ViST ``underflow_count``), summed per
operation kind.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from typing import Optional

from repro.obs.trace import QueryTrace
from repro.query.xpath import parse_xpath

__all__ = [
    "PER_LAYER",
    "Tracer",
    "span",
    "encode_spans",
    "traced_query",
    "counters",
    "per_layer_metrics",
]

_NAME, _START, _END, _PARENT, _OP = range(5)

# name -> (unit, better).  Per query op unless stated; writes are counted
# per document written (an insert, a remove, or one record of a chunk).
PER_LAYER = {
    "query.parse_ms": ("ms", "lower"),
    "query.translate_ms": ("ms", "lower"),
    "query.alternatives": ("count", "lower"),
    "matching.frontier_ms": ("ms", "lower"),
    "matching.range_queries": ("count", "lower"),
    "matching.candidates": ("count", "lower"),
    "matching.search_states": ("count", "lower"),
    "matching.final_nodes": ("count", "lower"),
    "matching.yield": ("ratio", "higher"),
    "docid.output_ms": ("ms", "lower"),
    "docid.final_scopes": ("count", "lower"),
    "docid.ids_per_scope": ("count", "higher"),
    "verify.ms": ("ms", "lower"),
    "verify.docstore_load_ms": ("ms", "lower"),
    "verify.candidates": ("count", "lower"),
    "verify.pass_ratio": ("ratio", "higher"),
    "postings.hit_rate": ("ratio", "higher"),
    "postings.invalidations_per_write": ("count", "lower"),
    "bptree.combined.descent_hit_rate": ("ratio", "higher"),
    "bptree.docid.descent_hit_rate": ("ratio", "higher"),
    "bptree.pages": ("count", "lower"),
    "pager.reads_per_op": ("count", "lower"),
    "open.ms": ("ms", "lower"),
    "buffer_pool.hit_rate": ("ratio", "higher"),
    "buffer_pool.evictions_per_write": ("count", "lower"),
    "buffer_pool.writebacks_per_write": ("count", "lower"),
    "commit.ms": ("ms", "lower"),
    "doc.parse_ms": ("ms", "lower"),
    "sequence.encode_ms": ("ms", "lower"),
    "vist.insert_ms": ("ms", "lower"),
    "vist.remove_ms": ("ms", "lower"),
    "labeling.underflows_per_insert": ("count", "lower"),
    "shard.worker_ms": ("ms", "lower"),
    "shard.rpc_overhead_ms": ("ms", "lower"),
    "shard.skew_ms": ("ms", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


class Tracer:
    """In-memory span recorder plus per-operation-kind counter sums."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self.ops: Counter = Counter()  # operations per kind
        self.counts: dict[str, Counter] = defaultdict(Counter)  # kind -> sums
        self.op_ms: dict[str, list[float]] = defaultdict(list)
        self._cache = None

    @contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, self._op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[_END] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def op(self, kind: str, indexes=()):
        """One operation: a root span plus counter deltas over ``indexes``."""
        self._op += 1
        self.ops[kind] += 1
        before = counters(indexes)
        with self.span(f"op.{kind}") as record:
            yield
        self.counts[kind].update(counters(indexes) - before)
        self.op_ms[kind].append((record[_END] - record[_START]) * 1000.0)

    def count(self, kind: str, **deltas) -> None:
        self.counts[kind].update(deltas)

    def self_ms(self, name: str, kinds) -> float:
        """Total self time (ms) of spans ``name`` inside ``kinds`` operations."""
        return self._sum(name, kinds, 1)

    def total_ms(self, name: str, kinds) -> float:
        """Total duration (ms) of spans ``name`` inside ``kinds`` operations."""
        return self._sum(name, kinds, 0)

    def _sum(self, name: str, kinds, which: int) -> float:
        totals = self._totals()
        return 1000.0 * sum(totals.get((name, kind), (0.0, 0.0))[which] for kind in kinds)

    def _totals(self) -> dict:
        """(span name, op kind) -> (total seconds, self seconds), one pass."""
        if self._cache is not None and self._cache[0] == len(self.spans):
            return self._cache[1]
        child: list[float] = [0.0] * len(self.spans)
        op_kind: dict[int, str] = {}
        for s in self.spans:
            if s[_PARENT] >= 0:
                child[s[_PARENT]] += s[_END] - s[_START]
            else:
                op_kind[s[_OP]] = s[_NAME][3:]
        totals: dict = {}
        for i, s in enumerate(self.spans):
            key = (s[_NAME], op_kind.get(s[_OP]))
            total, own = totals.get(key, (0.0, 0.0))
            duration = s[_END] - s[_START]
            totals[key] = (total + duration, own + duration - child[i])
        self._cache = (len(self.spans), totals)
        return totals

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "op": op,
                }) + "\n")


def span(tr: Optional[Tracer], name: str):
    return tr.span(name) if tr is not None else nullcontext()


class _EncoderSpans:
    """Stands in for an index's encoder during a traced write so the
    ``encode_node`` calls the insert path makes get their own span."""

    def __init__(self, tr: Tracer, encoder) -> None:
        self._tr = tr
        self._encoder = encoder

    def encode_node(self, root):
        with self._tr.span("sequence.encode"):
            return self._encoder.encode_node(root)

    def __getattr__(self, name):
        return getattr(self._encoder, name)


@contextmanager
def encode_spans(tr: Tracer, indexes):
    saved = [index.encoder for index in indexes]
    for index in indexes:
        index.encoder = _EncoderSpans(tr, index.encoder)
    try:
        yield
    finally:
        for index, encoder in zip(indexes, saved):
            index.encoder = encoder


def counters(indexes) -> Counter:
    """The program's own cumulative counters, summed over ``indexes``."""
    out: Counter = Counter()
    for index in indexes:
        postings = index.postings.stats
        out["postings.hits"] += postings.hits
        out["postings.misses"] += postings.misses
        out["postings.invalidations"] += postings.invalidations
        for name, tree in (("combined", index.tree), ("docid", index.docid_tree)):
            out[f"{name}.descent_hits"] += tree.descent_hits
            out[f"{name}.descent_misses"] += tree.descent_misses
        pool = index.tree.pager
        out["pool.reads"] += pool.read_count
        out["pool.hits"] += pool.stats.hits
        out["pool.misses"] += pool.stats.misses
        out["pool.evictions"] += pool.stats.evictions
        out["pool.writebacks"] += pool.stats.writebacks
        out["underflows"] += index.underflow_count
    return out


# program span name -> benchmark span name; "level N" and "match alt N"
# lose their number so that all levels (alternatives) sum under one name
_QUERY_SPANS = {
    "query": "query.evaluate",
    "translate": "query.translate",
    "match alt": "matching.alternative",
    "level": "matching.level",
    "docid-output": "docid.output",
    "verify": "verify",
    "docstore-load": "verify.docstore_load",
}

# (span name, meta key) -> counter name
_QUERY_COUNTS = {
    ("query.translate", "alternatives"): "alternatives",
    ("matching.level", "frontier_in"): "search_states",
    ("matching.level", "range_queries"): "range_queries",
    ("matching.level", "candidates"): "candidates",
    ("docid.output", "final_scopes"): "final_scopes",
    ("docid.output", "doc_ids"): "docids",
    ("verify", "candidates"): "verify_candidates",
    ("verify", "verified"): "verified",
}


def _query_span_name(name: str) -> str:
    base = name.rstrip("0123456789").rstrip()
    return _QUERY_SPANS.get(base, name)


@contextmanager
def _load_spans(qtrace: QueryTrace, index):
    """Gives the ``load_sequence`` calls verification makes their own
    span inside the program's ``verify`` span."""
    load = index.load_sequence

    def timed_load(doc_id):
        with qtrace.span("docstore-load"):
            return load(doc_id)

    index.load_sequence = timed_load
    try:
        yield
    finally:
        del index.load_sequence


def _graft(tr: Tracer, kind: str, spans, parent: int) -> None:
    """Copy a :class:`QueryTrace` span tree into the tracer under
    ``parent`` and add its per-stage counts to ``kind``'s sums.  Both
    clocks are ``time.perf_counter``."""
    for s in spans:
        name = _query_span_name(s.name)
        tr.spans.append([name, s.t0, s.t1, parent, tr._op])
        for key, value in s.meta.items():
            counter = _QUERY_COUNTS.get((name, key))
            if counter is not None:
                tr.counts[kind][counter] += value
        _graft(tr, kind, s.children, len(tr.spans) - 1)


def traced_query(tr: Tracer, kind: str, parts, xpath: str, verify: bool) -> list[int]:
    """One query through ``index.query(..., trace=QueryTrace())`` on each
    part (index and local -> global id map).  The benchmark times only
    ``parse_xpath``; translation, each frontier level, DocId output and
    verification come from the program's own spans and counts."""
    with tr.span("query.parse"):
        root = parse_xpath(xpath)
    out: list[int] = []
    for index, to_global in parts:
        qtrace = QueryTrace()
        with _load_spans(qtrace, index):
            ids = index.query(root, verify=verify, trace=qtrace)
        _graft(tr, kind, qtrace.roots, tr._stack[-1])
        out.extend(ids if to_global is None else (to_global[d] for d in ids))
    return sorted(out)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer_metrics(tr: Tracer, overhead: float, pages: int) -> dict:
    """The per-layer metrics of one traced run (units in BENCHMARK.json)."""
    reads = ("query", "exact")
    writes = ("insert", "remove", "chunk")
    nq = tr.ops["query"] + tr.ops["exact"]
    ne = tr.ops["exact"]
    q = tr.counts["query"] + tr.counts["exact"]
    w: Counter = Counter()
    for k in writes:
        w += tr.counts[k]
    docs_in = tr.ops["insert"] + w["chunk_docs"]
    docs_written = docs_in + tr.ops["remove"]
    commits = tr.ops["insert"] + tr.ops["remove"] + tr.ops["chunk"]
    cold = tr.counts["cold"]
    rpc = tr.counts["rpc"]
    return {
        "query.parse_ms": _ratio(tr.self_ms("query.parse", reads), nq),
        "query.translate_ms": _ratio(tr.self_ms("query.translate", reads), nq),
        "query.alternatives": _ratio(q["alternatives"], nq),
        "matching.frontier_ms": _ratio(tr.total_ms("matching.level", reads), nq),
        "matching.range_queries": _ratio(q["range_queries"], nq),
        "matching.candidates": _ratio(q["candidates"], nq),
        "matching.search_states": _ratio(q["search_states"], nq),
        # the final nodes are the scopes handed to DocId output
        "matching.final_nodes": _ratio(q["final_scopes"], nq),
        "matching.yield": _ratio(q["final_scopes"], q["candidates"]),
        "docid.output_ms": _ratio(tr.self_ms("docid.output", reads), nq),
        "docid.final_scopes": _ratio(q["final_scopes"], nq),
        "docid.ids_per_scope": _ratio(q["docids"], q["final_scopes"]),
        "verify.ms": _ratio(tr.self_ms("verify", ("exact",)), ne),
        "verify.docstore_load_ms": _ratio(tr.self_ms("verify.docstore_load", ("exact",)), ne),
        "verify.candidates": _ratio(tr.counts["exact"]["verify_candidates"], ne),
        "verify.pass_ratio": _ratio(
            tr.counts["exact"]["verified"], tr.counts["exact"]["verify_candidates"]
        ),
        "postings.hit_rate": _ratio(
            q["postings.hits"], q["postings.hits"] + q["postings.misses"]
        ),
        "postings.invalidations_per_write": _ratio(w["postings.invalidations"], docs_written),
        "bptree.combined.descent_hit_rate": _ratio(
            q["combined.descent_hits"],
            q["combined.descent_hits"] + q["combined.descent_misses"],
        ),
        "bptree.docid.descent_hit_rate": _ratio(
            q["docid.descent_hits"], q["docid.descent_hits"] + q["docid.descent_misses"]
        ),
        "bptree.pages": pages,
        "pager.reads_per_op": _ratio(cold["pool.reads"], tr.ops["cold"]),
        "open.ms": _ratio(tr.total_ms("open", ("cold",)), tr.ops["cold"]),
        "buffer_pool.hit_rate": _ratio(w["pool.hits"], w["pool.hits"] + w["pool.misses"]),
        "buffer_pool.evictions_per_write": _ratio(w["pool.evictions"], docs_written),
        "buffer_pool.writebacks_per_write": _ratio(w["pool.writebacks"], docs_written),
        "commit.ms": _ratio(tr.total_ms("commit", writes), commits),
        "doc.parse_ms": _ratio(tr.total_ms("doc.parse", writes), docs_in),
        "sequence.encode_ms": _ratio(tr.total_ms("sequence.encode", writes), docs_in),
        "vist.insert_ms": _ratio(tr.self_ms("vist.insert", writes), docs_in),
        "vist.remove_ms": _ratio(tr.self_ms("vist.remove", ("remove",)), tr.ops["remove"]),
        "labeling.underflows_per_insert": _ratio(w["underflows"], docs_in),
        "shard.worker_ms": _ratio(rpc["worker_ms"], tr.ops["rpc"]),
        "shard.rpc_overhead_ms": _ratio(rpc["overhead_ms"], tr.ops["rpc"]),
        "shard.skew_ms": _ratio(rpc["skew_ms"], tr.ops["rpc"]),
        "trace.overhead_ratio": overhead,
    }
