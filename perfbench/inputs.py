"""Seeded inputs: corpora as XML bytes, queries and operation lists.

Everything here is a pure function of the seed and the :class:`Scale`.
The program under test only ever sees the XML bytes and XPath strings
built here; the :class:`~repro.doc.model.XmlNode` trees stay on the
benchmark side, where the answer oracle uses them.

Operations are plain tuples:

* ``("q", dataset, xpath, verify)``: a warm query
* ``("ins", dataset, pos)``: a durable single-record insert of document
  ``pos`` of the dataset's universe (its doc id will be ``pos``)
* ``("rm", dataset, doc_id)``: a durable remove
* ``("chunk", dataset, pos, count)``: a durable bulk chunk of documents
  ``pos .. pos + count - 1``
* ``("cold", dataset, xpath)``: open the index, run one raw query, close
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.bench.workloads import TABLE3_QUERIES
from repro.datasets.dblp import DblpConfig, DblpGenerator
from repro.datasets.xmark import XmarkConfig, XmarkGenerator

__all__ = [
    "Scale",
    "FULL",
    "TINY",
    "universe",
    "to_xml",
    "table3",
    "rounds",
    "dynamic_ops",
    "write_probe",
    "probe_universe_size",
]


@dataclass(frozen=True)
class Scale:
    """Sizes of one run; :data:`FULL` is the benchmark, :data:`TINY` the
    self-test."""

    corpus: int = 3000  # records per dataset at set-up
    setups: int = 3  # set-ups per untraced run; setup_s is their median
    chunk: int = 50  # records per bulk chunk
    probe_inserts: int = 60  # write probe of the read workloads
    probe_removes: int = 50
    probe_chunks: int = 12
    cold_rounds: int = 5  # cold probe: open + one query + close, per query
    exact_rounds: int = 6  # exact probe rounds of the raw-only workloads
    dynamic_ops: int = 6000  # length of the dynamic operation list
    trace_ops: int = 200  # traced prefix of the main operation list


FULL = Scale()
TINY = Scale(
    corpus=120, setups=1, chunk=10, probe_inserts=6, probe_removes=4,
    probe_chunks=2, cold_rounds=1, exact_rounds=1, dynamic_ops=400, trace_ops=24,
)

# rates at which bench_table4 plants the XMark Table-3 targets, so every
# query has matches at a few thousand records
_XMARK_PLANT = {"target_date_rate": 0.1, "person1_rate": 0.1}


def universe(dataset: str, seed: int, count: int) -> list:
    """The first ``count`` documents of a dataset (position = doc id).

    The first ``Scale.corpus`` of them are the set-up corpus; the rest
    are the documents later inserts and bulk chunks add, in order.
    """
    if dataset == "dblp":
        return list(DblpGenerator(DblpConfig(seed=seed)).records(count))
    if dataset == "xmark":
        config = XmarkConfig(seed=seed + 1, **_XMARK_PLANT)
        return list(XmarkGenerator(config).records(count))
    raise ValueError(f"unknown dataset {dataset!r}")


def to_xml(nodes) -> list[bytes]:
    return [node.to_xml().encode("utf-8") for node in nodes]


def table3(dataset: str) -> list[str]:
    return [q.xpath for q in TABLE3_QUERIES if q.dataset == dataset]


def rounds(rng: random.Random, cycle: list, count: int) -> list[list]:
    """``count`` seeded shuffles of ``cycle``: equal counts per round."""
    out = []
    for _ in range(count):
        order = list(cycle)
        rng.shuffle(order)
        out.append(order)
    return out


# One round of the dynamic list, shuffled per round: 26 raw queries, 20
# durable inserts, 19 durable removes and two durable 50-record chunks.
# No source fixes this mix, so it is an assumption, chosen as follows:
# - queries are about 40% of operations, so that the posting cache is
#   exercised between writes;
# - inserts slightly outnumber removes, so that single-record writes
#   alone keep the corpus about level;
# - the two chunks grow it by about 100 records a round, so that the
#   tree outgrows the 512-page pool further as the run goes on.
# The counts were then checked against the figures of an earlier probe
# of this workload (about 79% posting hit rate, a tree of about 3,700
# pages, about 33k evictions and 36k writebacks in 1,500 operations).
# The first 1,500 operations of this list give a 75-76% hit rate,
# 3,730-3,800 pages, 32.7k-33.7k evictions and 37.9k-38.7k writebacks
# (seeds 1-3; perfbench/METRICS.md).
# Every round has the same mix, so no stretch of the list is unusually
# write-heavy.
DYNAMIC_ROUND = ("q",) * 26 + ("ins",) * 20 + ("rm",) * 19 + ("chunk",) * 2


def dynamic_ops(seed: int, scale: Scale) -> list[tuple]:
    """The dynamic read-write list, simulated against a live-id model so
    every remove names a live document and every insert's id is known."""
    rng = random.Random(seed * 7 + 1)
    queries = table3("dblp")
    live = list(range(scale.corpus))
    next_pos = scale.corpus
    asked = 0
    ops: list[tuple] = []
    while len(ops) < scale.dynamic_ops:
        kinds = list(DYNAMIC_ROUND)
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "q":
                ops.append(("q", "dblp", queries[asked % len(queries)], False))
                asked += 1
            elif kind == "ins":
                ops.append(("ins", "dblp", next_pos))
                live.append(next_pos)
                next_pos += 1
            elif kind == "rm":
                ops.append(("rm", "dblp", live.pop(rng.randrange(len(live)))))
            else:
                ops.append(("chunk", "dblp", next_pos, scale.chunk))
                live.extend(range(next_pos, next_pos + scale.chunk))
                next_pos += scale.chunk
    return ops


def write_probe(seed: int, scale: Scale) -> list[tuple]:
    """The fixed DBLP write probe of the read workloads: inserts, removes
    of set-up documents and bulk chunks, interleaved in a seeded order."""
    rng = random.Random(seed * 13 + 2)
    kinds = (
        ["ins"] * scale.probe_inserts
        + ["rm"] * scale.probe_removes
        + ["chunk"] * scale.probe_chunks
    )
    rng.shuffle(kinds)
    victims = rng.sample(range(scale.corpus), scale.probe_removes)
    next_pos = scale.corpus
    ops: list[tuple] = []
    for kind in kinds:
        if kind == "ins":
            ops.append(("ins", "dblp", next_pos))
            next_pos += 1
        elif kind == "rm":
            ops.append(("rm", "dblp", victims.pop()))
        else:
            ops.append(("chunk", "dblp", next_pos, scale.chunk))
            next_pos += scale.chunk
    return ops


def probe_universe_size(scale: Scale) -> int:
    return scale.corpus + scale.probe_inserts + scale.probe_chunks * scale.chunk
