"""Table 4 — the eight Table 3 queries: ViST vs Index Fabric vs XISS.

Paper result (seconds on their testbed):

    =====  =========  ============  =====
    query  RIST/ViST  Index Fabric  XISS
    =====  =========  ============  =====
    Q1     1.2        0.8           10.1
    Q2     2.3        4.8           54.6
    Q3     1.7        24.8          36.8
    Q4     1.7        23.3          30.2
    Q5     1.6        6.7           19.8
    Q6     3.7        18.0          22.4
    Q7     2.5        37.2          27.6
    Q8     4.1        49.3          48.2
    =====  =========  ============  =====

Expected shape here: the path index ties ViST on the raw path Q1, then
falls behind on values (Q2), collapses on wildcards (Q3, Q4) and stays
behind on branching queries (Q5–Q8); the node index is slowest or close
to slowest throughout because everything is joins.
"""

import pytest

from repro.bench.harness import (
    Report,
    build_index,
    metrics_snapshot,
    sharded_throughput,
)
from repro.bench.workloads import TABLE3_QUERIES
from repro.datasets.dblp import DblpConfig, DblpGenerator
from repro.datasets.xmark import XmarkConfig, XmarkGenerator

N_DBLP = 1500
N_XMARK = 1500
KINDS = ["vist", "path", "xiss", "apex"]

REPORT = Report(
    experiment="table4",
    title=f"query response time (s), {N_DBLP} DBLP + {N_XMARK} XMark records",
    headers=["query", "kind", "vist", "path(IndexFabric)", "xiss", "apex", "matches"],
    paper_note="ViST wins Q2-Q8; path index ties Q1, collapses on Q3/Q4; "
    "apex (length-2 paths) is an extra comparator beyond the paper",
)

_rows: dict[str, dict[str, float]] = {}
_matches: dict[str, int] = {}
_match_stats: dict[str, dict] = {}
_vist_indexes: dict[str, object] = {}
# post-build descent-counter snapshots: the kernels block reports the
# *query-phase* hit rate — build inserts bump the structure version on
# nearly every put, so counting them drowns the signal the gate watches
_descent_base: dict[str, tuple[int, int, int, int]] = {}
_corpus_docs: dict[str, list] = {}  # stashed for the sharded block


@pytest.fixture(scope="module")
def corpora():
    dblp = DblpGenerator(DblpConfig(seed=1))
    # plant rates high enough that every query has matches at this scale
    xmark = XmarkGenerator(
        XmarkConfig(seed=1, target_date_rate=0.1, person1_rate=0.1)
    )
    docs = {
        "dblp": list(dblp.records(N_DBLP)),
        "xmark": list(xmark.records(N_XMARK)),
    }
    schemas = {"dblp": dblp.schema, "xmark": xmark.schema}
    _corpus_docs.update(docs)
    return docs, schemas


@pytest.fixture(scope="module")
def indexes(corpora):
    docs, schemas = corpora
    out = {}
    for dataset in ("dblp", "xmark"):
        for kind in KINDS:
            out[dataset, kind] = build_index(kind, docs[dataset], schemas[dataset])
        vist = out[dataset, "vist"]
        _vist_indexes[dataset] = vist
        _descent_base[dataset] = (
            vist.tree.descent_hits,
            vist.tree.descent_misses,
            vist.docid_tree.descent_hits,
            vist.docid_tree.descent_misses,
        )
    return out


@pytest.mark.parametrize("query", TABLE3_QUERIES, ids=[q.qid for q in TABLE3_QUERIES])
@pytest.mark.parametrize("kind", KINDS)
def test_table4(benchmark, indexes, query, kind):
    index = indexes[query.dataset, kind]
    # warmup_rounds=1: the timed rounds measure steady-state latency (the
    # posting cache and translate cache resident), not first-touch load —
    # without it the 3-round median sits on the half-warm middle round
    result = benchmark.pedantic(
        lambda: index.query(query.xpath), rounds=3, iterations=1, warmup_rounds=1
    )
    _rows.setdefault(query.qid, {})[kind] = benchmark.stats.stats.median
    _matches[query.qid] = len(result)
    if kind == "vist":
        stats = index.match_stats
        _match_stats[query.qid] = {
            "range_queries": stats.range_queries,
            "candidates": stats.candidates,
            "search_states": stats.search_states,
            "final_nodes": stats.final_nodes,
            "batched_states": stats.batched_states,
            "cache_hits": stats.cache_hits,
            "cache_misses": stats.cache_misses,
        }
    if len(_rows[query.qid]) == len(KINDS):
        row = _rows[query.qid]
        REPORT.add(
            query.qid,
            query.kind,
            row["vist"],
            row["path"],
            row["xiss"],
            row["apex"],
            _matches[query.qid],
        )


def bench_json_payload():
    """Machine-readable Table 4 results (written by the conftest teardown)."""
    if not _rows:
        return None
    queries = {
        qid: {
            "seconds": timings,
            "matches": _matches.get(qid),
            "vist_match_stats": _match_stats.get(qid),
        }
        for qid, timings in sorted(_rows.items())
    }
    headline = sum(t["vist"] for t in _rows.values() if "vist" in t)
    # throughput: the dblp Table-3 workload scatter-gathered over 1/2/4
    # per-shard worker processes vs the sequential in-process loop.  Runs
    # after the timed rounds so it cannot perturb headline_seconds;
    # interpret speedup against cpu_count.
    sharded = None
    dblp_queries = [q.xpath for q in TABLE3_QUERIES if q.dataset == "dblp"]
    if "dblp" in _corpus_docs and dblp_queries:
        sharded = sharded_throughput(
            _corpus_docs["dblp"], dblp_queries, workers_list=(1, 2, 4), repeats=3
        )
    # kernels block: query-phase descent-cache effectiveness
    # aggregated over both dataset indexes, counted from the post-build
    # snapshot (the combined-tree rate is the regression-gated one — the
    # single-slot cache thrashed at ~8% there even query-side)
    combined_hits = combined_misses = docid_hits = docid_misses = 0
    for dataset, index in _vist_indexes.items():
        h0, m0, dh0, dm0 = _descent_base.get(dataset, (0, 0, 0, 0))
        combined_hits += index.tree.descent_hits - h0
        combined_misses += index.tree.descent_misses - m0
        docid_hits += index.docid_tree.descent_hits - dh0
        docid_misses += index.docid_tree.descent_misses - dm0
    kernels = {
        "combined_descent_hit_rate": (
            combined_hits / (combined_hits + combined_misses)
            if combined_hits + combined_misses
            else 0.0
        ),
        "docid_descent_hit_rate": (
            docid_hits / (docid_hits + docid_misses)
            if docid_hits + docid_misses
            else 0.0
        ),
    }
    payload = {
        "config": {
            "n_dblp": N_DBLP,
            "n_xmark": N_XMARK,
            "kinds": KINDS,
        },
        "queries": queries,
        "headline_seconds": headline,
        "kernels": kernels,
        "sharded": sharded,
        "cache_stats": {
            dataset: index.cache_stats()
            for dataset, index in sorted(_vist_indexes.items())
        },
        "metrics": {
            dataset: metrics_snapshot(index)
            for dataset, index in sorted(_vist_indexes.items())
        },
    }
    return "table4", payload
