"""The systems under test, opened the way the CLI opens them.

:class:`Single` is one index directory behind :func:`repro.cli.open_index`
(FilePager or WalPager, a 512-page BufferPool, file doc/source stores, a
512-group posting cache).  :class:`Sharded` is a 2-way hash-sharded
directory: :class:`~repro.shard.ShardRouter` for building, writes and the
single-shot ``repro query`` path, :class:`~repro.shard.ShardedExecutor`
for scatter-gather serving.

Every write takes an optional :class:`~perfbench.tracing.Tracer`.  Without
one it is the one-call durable path users run
(``add_batch(..., durability="batch")``, or ``remove`` plus the commit);
with one it makes the same writes as separate public calls, in the order
``VistIndex._commit_batch`` makes them, so each layer gets its own span.
"""

from __future__ import annotations

import shutil
from pathlib import Path
from typing import Optional

from repro.cli import _close_index as close_index
from repro.cli import open_index
from repro.doc.parser import parse_document_bytes
from repro.shard import ShardRouter

from perfbench.tracing import Tracer, encode_spans, span

__all__ = ["Single", "Sharded"]

BUILD_BATCH = 1000  # `repro ingest`'s default --batch-size


def commit(index, tr: Optional[Tracer] = None) -> None:
    """One durable commit: store bytes with fsync first, then the trees."""
    with span(tr, "commit"):
        for store in (index.docstore, index.source_store):
            if store is not None:
                with span(tr, "store.flush"):
                    store.flush(fsync=True)
        with span(tr, "index.flush"):
            index.flush()


def _parse(xml_docs, tr: Optional[Tracer]) -> list:
    docs = []
    for xml in xml_docs:
        with span(tr, "doc.parse"):
            docs.append(parse_document_bytes(xml))
    return docs


class Single:
    """One index directory."""

    def __init__(self, path: Path, wal: bool) -> None:
        self.path = Path(path)
        self.wal = wal
        self.index = None

    def build(self, xml_docs: list[bytes]) -> None:
        index = open_index(self.path, wal=self.wal)
        try:
            index.add_batch(
                (parse_document_bytes(xml) for xml in xml_docs),
                batch_size=BUILD_BATCH,
                durability="batch",
            )
        finally:
            close_index(index)

    def open(self) -> None:
        self.index = open_index(self.path, wal=self.wal)

    def close(self) -> None:
        if self.index is not None:
            index, self.index = self.index, None
            close_index(index)

    def destroy(self) -> None:
        self.close()
        shutil.rmtree(self.path, ignore_errors=True)

    @property
    def indexes(self) -> list:
        return [self.index]

    @property
    def parts(self) -> list:
        """(index, local -> global id map) per part; None is identity."""
        return [(self.index, None)]

    def query(self, xpath: str, verify: bool) -> list[int]:
        return self.index.query(xpath, verify=verify)

    def add(self, xml_docs: list[bytes], tr: Optional[Tracer] = None) -> list[int]:
        docs = _parse(xml_docs, tr)
        if tr is None:
            return self.index.add_batch(docs, batch_size=len(docs), durability="batch")
        with encode_spans(tr, self.indexes), span(tr, "vist.insert"):
            ids = self.index.add_batch(docs, batch_size=len(docs), durability="none")
        commit(self.index, tr)
        return ids

    def remove(self, doc_id: int, tr: Optional[Tracer] = None) -> None:
        with span(tr, "vist.remove"):
            self.index.remove(doc_id)
        commit(self.index, tr)

    def open_cold(self):
        """A second, fresh handle, as one ``repro query`` call opens it."""
        return Single(self.path, self.wal)


class Sharded:
    """A hash-sharded directory: router for writes, executor for serving."""

    def __init__(self, path: Path, nshards: int = 2) -> None:
        self.path = Path(path)
        self.nshards = nshards
        self.router: Optional[ShardRouter] = None
        self.executor = None

    def build(self, xml_docs: list[bytes]) -> None:
        with ShardRouter(self.path, self.nshards) as router:
            router.add_batch(
                (parse_document_bytes(xml) for xml in xml_docs),
                batch_size=BUILD_BATCH,
                durability="batch",
            )

    def serve(self) -> None:
        """Spawn one worker process per shard (``query --workers 2``)."""
        from repro.shard import ShardedExecutor

        self.executor = ShardedExecutor(self.path, workers=self.nshards)

    def stop_serving(self) -> None:
        if self.executor is not None:
            executor, self.executor = self.executor, None
            executor.close()

    def open(self) -> None:
        self.router = ShardRouter(self.path)

    def close(self) -> None:
        if self.router is not None:
            router, self.router = self.router, None
            router.close()

    def destroy(self) -> None:
        try:
            self.stop_serving()
        finally:
            self.close()
        shutil.rmtree(self.path, ignore_errors=True)

    @property
    def indexes(self) -> list:
        return list(self.router.shards)

    @property
    def parts(self) -> list:
        return [
            (shard, self.router.map.globals_of(s))
            for s, shard in enumerate(self.router.shards)
        ]

    def query(self, xpath: str, verify: bool) -> list[int]:
        if self.executor is not None:
            return self.rpc(xpath, verify)[0]
        return self.router.query(xpath, verify=verify)

    def rpc(self, xpath: str, verify: bool) -> tuple[list[int], list[float]]:
        """Scatter-gather one query; returns the merged answer and each
        shard's reply ``elapsed_ms``."""
        outcome = self.executor.submit(xpath, verify=verify).result()
        if outcome.error is not None:
            raise outcome.error
        elapsed = [detail["elapsed_ms"] for detail in outcome.shard_detail.values()]
        return outcome.result, elapsed

    def add(self, xml_docs: list[bytes], tr: Optional[Tracer] = None) -> list[int]:
        docs = _parse(xml_docs, tr)
        if tr is None:
            return self.router.add_batch(docs, batch_size=len(docs), durability="batch")
        with encode_spans(tr, self.indexes), span(tr, "vist.insert"):
            ids = self.router.add_batch(docs, batch_size=len(docs), durability="none")
        for s in sorted({self.router.map.route(g)[0] for g in ids}):
            commit(self.router.shards[s], tr)
        return ids

    def remove(self, doc_id: int, tr: Optional[Tracer] = None) -> None:
        with span(tr, "vist.remove"):
            self.router.remove(doc_id)
        commit(self.router.shards[self.router.map.route(doc_id)[0]], tr)

    def open_cold(self):
        return Sharded(self.path, self.nshards)
