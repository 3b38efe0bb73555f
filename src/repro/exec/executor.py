"""QueryExecutor: N worker threads over one shared open index.

The executor owns nothing but threads — the index is opened (and later
closed) by the caller and shared by every worker.  Isolation comes from
the index itself: :meth:`repro.index.base.XmlIndexBase.query` takes the
index's readers–writer lock, so each query sees a consistent snapshot
even while another thread inserts or removes documents.

Guards are **per query**: each submission gets a fresh
:class:`~repro.index.guard.QueryGuard` from ``guard_factory`` (when one
is configured), so a deadline armed — or a ``cancel()`` delivered — in
one query can never leak into the next (see the guard-reuse fix in
:mod:`repro.index.guard`).
"""

from __future__ import annotations

import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.index.guard import QueryGuard

__all__ = ["QueryExecutor", "QueryOutcome"]

#: Query threads per executor.  Under the GIL more threads add no
#: throughput (4 threads measured 1.01x one thread on the Table-3 dblp
#: workload); two let a reply that stalls on its socket overlap the next
#: query, which is what a shard worker's hedged reads rely on.
DEFAULT_THREADS = 2


@dataclass
class QueryOutcome:
    """What one submitted query produced.

    Exceptions are captured, not raised, so one poisoned query in a batch
    cannot take down the batch: callers inspect :attr:`ok` / :attr:`error`
    per outcome (the multi-threaded oracle hammer asserts on exactly
    this).
    """

    position: int
    query: object
    result: Optional[list[int]] = None
    error: Optional[BaseException] = None
    elapsed_ms: float = 0.0
    guard: Optional[QueryGuard] = field(default=None, repr=False)
    #: sharded scatter-gather only: shards that could not answer when the
    #: executor ran in ``partial`` mode.  ``None`` means the result is
    #: complete; a list (possibly long) means ``result`` is the exact
    #: union of the *answering* shards and nothing more is claimed.
    missing_shards: Optional[list[int]] = None
    #: sharded scatter-gather only: per-shard spans for ``--explain``
    #: ({shard: {"status", "elapsed_ms"|"error"}}).
    shard_detail: Optional[dict] = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return self.error is None

    def unwrap(self) -> list[int]:
        """The result, re-raising the captured exception if there is one."""
        if self.error is not None:
            raise self.error
        assert self.result is not None
        return self.result


class QueryExecutor:
    """Run queries against one shared index from a pool of worker threads.

    ``threads`` defaults to :data:`DEFAULT_THREADS`.  ``verify`` is passed
    through to :meth:`XmlIndexBase.query` (exact mode).  ``guard_factory``
    builds one fresh guard per query; ``None`` runs unguarded.  The executor is a context manager; :meth:`close`
    waits for in-flight queries and joins the workers.
    """

    def __init__(
        self,
        index,
        threads: int = DEFAULT_THREADS,
        *,
        verify: bool = False,
        guard_factory: Optional[Callable[[], QueryGuard]] = None,
    ) -> None:
        if threads < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
        self.index = index
        self.verify = verify
        self.guard_factory = guard_factory
        self._pool = ThreadPoolExecutor(
            max_workers=threads, thread_name_prefix="repro-query"
        )
        self._closed = False

    # -- submission ------------------------------------------------------

    def submit(
        self,
        query,
        position: int = 0,
        *,
        verify: Optional[bool] = None,
        guard_factory: Optional[Callable[[], QueryGuard]] = None,
    ) -> "Future[QueryOutcome]":
        """Schedule one query; the future resolves to a :class:`QueryOutcome`.

        ``verify``/``guard_factory`` default to the executor-wide settings
        when ``None`` — the shard worker uses this to honour per-frame
        exact-mode and guard budgets over one shared pool.
        """
        if self._closed:
            raise RuntimeError("executor is closed")
        return self._pool.submit(
            self._run_one,
            query,
            position,
            self.verify if verify is None else verify,
            self.guard_factory if guard_factory is None else guard_factory,
        )

    def run(self, queries: Sequence) -> list[QueryOutcome]:
        """Run a batch; outcomes come back in submission order."""
        futures = [self.submit(query, i) for i, query in enumerate(queries)]
        return [future.result() for future in futures]

    def _run_one(self, query, position: int, verify: bool, guard_factory) -> QueryOutcome:
        guard = guard_factory() if guard_factory is not None else None
        outcome = QueryOutcome(position=position, query=query, guard=guard)
        t0 = time.perf_counter()
        try:
            outcome.result = self.index.query(query, verify=verify, guard=guard)
        except BaseException as exc:  # captured per-outcome, see QueryOutcome
            outcome.error = exc
        outcome.elapsed_ms = (time.perf_counter() - t0) * 1000.0
        return outcome

    # -- lifecycle -------------------------------------------------------

    def close(self, wait: bool = True, cancel_pending: bool = False) -> None:
        """Join the workers.  ``cancel_pending`` drops queued (not yet
        started) submissions first — the error-path teardown, where
        waiting out a deep queue would hang the shutdown the caller is
        trying to make."""
        if not self._closed:
            self._closed = True
            self._pool.shutdown(wait=wait, cancel_futures=cancel_pending)

    def __enter__(self) -> "QueryExecutor":
        return self

    def __exit__(self, exc_type, *_exc) -> None:
        # on the error path, don't wait for a backlog nobody will read
        self.close(cancel_pending=exc_type is not None)
