"""The concurrent read path: locks, shared caches, and the oracle hammer.

Layers covered, bottom up:

* :class:`repro.exec.locks.RWLock` unit semantics (reentrancy, writer
  exclusion, the upgrade refusal, writer preference);
* the B+Tree descent-slot regression: ``get``/``range`` from reader
  threads racing an inserting writer must never see a torn or stale
  descent (the old bare-tuple ``_descent`` could pair a pre-split leaf
  with a post-split structure);
* shared caches under contention: :class:`BufferPool`,
  :class:`PostingCache`, the metrics registry;
* :class:`repro.exec.executor.QueryExecutor` API contracts (ordering,
  error capture, fresh guard per query);
* the multi-threaded differential-oracle hammer: K worker threads run M
  seeded queries (``verify=True``) against one shared on-disk ViST index
  while a writer thread interleaves inserts and removes of noise
  documents; every verified result must equal the single-threaded
  reference evaluator's answer and the index must pass ``repro check``'s
  invariants afterwards.

The first hammer configuration runs in tier-1; the full sweep is marked
``slow`` and runs in the CI concurrency job.
"""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro.doc.model import XmlNode
from repro.errors import QueryBudgetExceededError
from repro.exec import QueryExecutor, QueryOutcome, RWLock
from repro.index.guard import QueryGuard
from repro.index.postings import PostingCache, PostingGroup
from repro.index.vist import VistIndex
from repro.labeling.scope import Scope
from repro.obs.metrics import MetricsRegistry
from repro.sequence.transform import SequenceEncoder
from repro.storage.bptree import BPlusTree
from repro.storage.cache import BufferPool
from repro.storage.docstore import FileDocStore
from repro.storage.pager import FilePager
from repro.testing.generator import DocQueryGenerator
from repro.testing.invariants import assert_invariants
from repro.testing.reference import reference_results


def _run_threads(targets, timeout=60.0):
    """Start every target, join all, and re-raise the first exception."""
    errors: list[BaseException] = []

    def wrap(fn):
        def runner():
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        return runner

    threads = [threading.Thread(target=wrap(fn)) for fn in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout)
        assert not thread.is_alive(), "thread did not finish (deadlock?)"
    if errors:
        raise errors[0]


# ---------------------------------------------------------------------------
# RWLock semantics


class TestRWLock:
    def test_concurrent_readers_overlap(self):
        lock = RWLock()
        barrier = threading.Barrier(3, timeout=10)

        def reader():
            with lock.read():
                barrier.wait()  # only passes if all 3 hold the lock at once

        _run_threads([reader] * 3)

    def test_writer_is_exclusive(self):
        lock = RWLock()
        active = {"readers": 0, "writers": 0}
        violations: list[str] = []

        def reader():
            for _ in range(200):
                with lock.read():
                    active["readers"] += 1
                    if active["writers"]:
                        violations.append("reader overlapped a writer")
                    active["readers"] -= 1

        def writer():
            for _ in range(100):
                with lock.write():
                    active["writers"] += 1
                    if active["writers"] != 1 or active["readers"]:
                        violations.append("writer was not exclusive")
                    active["writers"] -= 1

        _run_threads([reader, reader, writer, writer])
        assert not violations

    def test_read_reentrancy(self):
        lock = RWLock()
        with lock.read():
            with lock.read():
                pass
        # fully released: a writer can get in from this same thread
        with lock.write():
            pass

    def test_write_reentrancy_and_read_within_write(self):
        lock = RWLock()
        with lock.write():
            with lock.write():
                with lock.read():  # query_nodes -> query under remove etc.
                    pass

    def test_upgrade_raises_instead_of_deadlocking(self):
        lock = RWLock()
        with lock.read():
            with pytest.raises(RuntimeError, match="upgrade"):
                lock.acquire_write()
        with lock.write():  # the failed upgrade left the lock usable
            pass

    def test_release_write_by_non_holder_raises(self):
        lock = RWLock()
        with pytest.raises(RuntimeError):
            lock.release_write()

    def test_release_read_without_acquire_raises(self):
        lock = RWLock()
        with pytest.raises(RuntimeError):
            lock.release_read()

    def test_writer_preference_over_queued_reader(self):
        lock = RWLock()
        order: list[str] = []
        reader_holding = threading.Event()
        release_reader = threading.Event()

        def first_reader():
            with lock.read():
                reader_holding.set()
                assert release_reader.wait(10)

        def writer():
            with lock.write():
                order.append("writer")

        def late_reader():
            with lock.read():
                order.append("reader")

        t1 = threading.Thread(target=first_reader)
        t1.start()
        assert reader_holding.wait(10)
        tw = threading.Thread(target=writer)
        tw.start()
        while not lock._writers_waiting:  # writer is registered as waiting
            time.sleep(0.001)
        tr = threading.Thread(target=late_reader)
        tr.start()
        time.sleep(0.02)  # give the late reader a chance to (wrongly) enter
        assert order == []  # both blocked behind the first reader
        release_reader.set()
        for thread in (t1, tw, tr):
            thread.join(10)
        assert order[0] == "writer"  # the waiting writer beat the reader


# ---------------------------------------------------------------------------
# B+Tree descent-slot regression: readers racing an inserting writer


def test_bptree_descent_race_get_and_range_vs_insert():
    """Two-thread hammer for the descent-reuse race (fixed by _DescentSlot).

    The committed region uses ``a``-prefixed keys; the writer appends
    ``w``-prefixed keys, so every split keeps bumping the structure
    version (invalidating descents mid-read) while the readers' own keys
    stay put.  Committed keys must always be found and range scans over
    the committed region must always be complete — a stale or torn
    descent slot breaks both.
    """
    tree = BPlusTree()
    committed = [f"a{i:06d}".encode() for i in range(1500)]
    for key in committed:
        tree.insert(key, b"v")
    committed_set = set(committed)
    done = threading.Event()

    def writer():
        try:
            for i in range(6000):
                tree.insert(f"w{i:08d}".encode(), b"x")
        finally:
            done.set()

    def point_reader():
        rng = random.Random(7)
        while not done.is_set():
            key = rng.choice(committed)
            assert tree.get(key) == b"v", f"committed key lost: {key!r}"
        for key in committed:  # one full pass after the writer stopped
            assert tree.get(key) == b"v"

    def range_reader():
        while not done.is_set():
            seen = {key for key, _ in tree.range(b"a", b"b")}
            assert seen == committed_set
        assert {key for key, _ in tree.range(b"a", b"b")} == committed_set

    _run_threads([writer, point_reader, range_reader])
    assert len(tree) == 1500 + 6000


# ---------------------------------------------------------------------------
# shared caches under contention


def test_buffer_pool_concurrent_reads(tmp_path):
    base = FilePager(tmp_path / "pool.db")
    pids = []
    for i in range(8):
        pid = base.allocate()
        base.write(pid, bytes([i]) * base.page_size)
        pids.append(pid)
    base.sync()
    base.close()

    pool = BufferPool(FilePager(tmp_path / "pool.db"), capacity=3)
    try:

        def reader():
            rng = random.Random(threading.get_ident())
            for _ in range(400):
                i = rng.randrange(len(pids))
                assert pool.read(pids[i]) == bytes([i]) * pool.page_size

        _run_threads([reader] * 4)
        stats = pool.stats
        assert stats.hits + stats.misses == 4 * 400
        assert 0.0 <= stats.hit_rate <= 1.0
    finally:
        pool.close()


def test_posting_cache_concurrent_lookup_single_install():
    cache = PostingCache(capacity=4)
    load_calls = []
    gate = threading.Barrier(4, timeout=10)
    results: list[PostingGroup] = []

    def loader():
        load_calls.append(1)
        time.sleep(0.005)  # widen the miss window
        return iter([(("x",), Scope(1, 10))])

    def worker():
        gate.wait()
        results.append(cache.lookup("sym", 1, ("x",), loader))

    _run_threads([worker] * 4)
    assert len(results) == 4
    # first install wins: everyone ends up holding the same resident group
    assert len({id(group) for group in results}) == 1
    assert len(cache) == 1
    stats = cache.stats
    assert stats.hits + stats.misses == 4
    assert 0.0 <= stats.hit_rate <= 1.0


def test_metrics_registry_snapshot_under_load():
    registry = MetricsRegistry()
    counter = registry.counter("work.items")

    def incrementer():
        for _ in range(20_000):
            counter.inc()

    def registrar():
        for i in range(200):
            registry.register(f"late.source{i}", lambda i=i: i)

    def snapshotter():
        for _ in range(300):
            snapshot = registry.snapshot()  # must not blow up mid-register
            assert "work" in snapshot

    _run_threads([incrementer, incrementer, registrar, snapshotter, snapshotter])
    assert registry.snapshot()["work"]["items"] == 40_000


# ---------------------------------------------------------------------------
# QueryExecutor API


def _tiny_index() -> VistIndex:
    from repro.doc.parser import parse_document

    index = VistIndex()
    for i in range(4):
        index.add(
            parse_document(
                f"<site><item><location>US</location>"
                f"<name>v{i}</name></item></site>"
            )
        )
    return index


class TestQueryExecutor:
    def test_outcomes_keep_submission_order(self):
        index = _tiny_index()
        queries = ["/site//item", "/site//item[location='US']", "/site"] * 4
        expected = [index.query(q) for q in queries]
        with QueryExecutor(index, threads=3) as executor:
            outcomes = executor.run(queries)
        assert [o.position for o in outcomes] == list(range(len(queries)))
        assert [o.unwrap() for o in outcomes] == expected
        assert all(o.ok and o.elapsed_ms >= 0.0 for o in outcomes)

    def test_one_poisoned_query_does_not_kill_the_batch(self):
        index = _tiny_index()
        guard_budget = iter([None, QueryGuard(max_steps=1), None])
        with QueryExecutor(
            index, threads=2, guard_factory=lambda: next(guard_budget)
        ) as executor:
            outcomes = executor.run(["/site//item"] * 3)
        assert outcomes[0].ok and outcomes[2].ok
        assert not outcomes[1].ok
        assert isinstance(outcomes[1].error, QueryBudgetExceededError)
        with pytest.raises(QueryBudgetExceededError):
            outcomes[1].unwrap()

    def test_fresh_guard_per_submission(self):
        index = _tiny_index()
        built: list[QueryGuard] = []

        def factory() -> QueryGuard:
            guard = QueryGuard(max_steps=10_000)
            built.append(guard)
            return guard

        with QueryExecutor(index, threads=2, guard_factory=factory) as executor:
            outcomes = executor.run(["/site//item"] * 5)
        assert len(built) == 5
        assert len({id(g) for g in built}) == 5
        assert [o.guard for o in outcomes] == built

    def test_submit_after_close_raises(self):
        executor = QueryExecutor(_tiny_index(), threads=1)
        executor.close()
        with pytest.raises(RuntimeError):
            executor.submit("/site")

    def test_invalid_thread_count(self):
        with pytest.raises(ValueError):
            QueryExecutor(_tiny_index(), threads=0)

    def test_outcome_repr_hides_guard(self):
        outcome = QueryOutcome(position=0, query="/q", guard=QueryGuard())
        assert "guard" not in repr(outcome)


# ---------------------------------------------------------------------------
# the multi-threaded differential-oracle hammer


def _noise_doc(i: int) -> XmlNode:
    # labels disjoint from DocQueryGenerator's alphabet ("a".."d"), so no
    # seeded query can match a noise document except through a wildcard —
    # and wildcard hits are filtered out by the seeded-id projection below
    root = XmlNode("z1")
    root.element("z2", text=f"n{i}")
    return root


def _open_hammer_index(tmp_path) -> VistIndex:
    return VistIndex(
        SequenceEncoder(),
        docstore=FileDocStore(tmp_path / "docs.dat"),
        pager=BufferPool(FilePager(tmp_path / "vist.db"), capacity=64),
    )


def _run_hammer(tmp_path, *, seed, docs, threads, submissions, writer_ops):
    """K threads x M verified queries vs the reference, writer interleaved."""
    generator = DocQueryGenerator(seed)
    corpus = generator.corpus(docs, 12)
    queries = [generator.query(corpus) for _ in range(12)]
    hasher = SequenceEncoder().hasher
    expected = {
        pos: reference_results(corpus, query, hasher)
        for pos, query in enumerate(queries)
    }

    index = _open_hammer_index(tmp_path)
    try:
        ids = index.add_all(corpus)
        id_to_pos = {doc_id: pos for pos, doc_id in enumerate(ids)}
        seeded_ids = set(ids)

        noise_live: list[int] = []
        writer_done = threading.Event()
        writer_errors: list[BaseException] = []

        def writer():
            try:
                rng = random.Random(seed + 1)
                for i in range(writer_ops):
                    noise_live.append(index.add(_noise_doc(i)))
                    if len(noise_live) > 2 and rng.random() < 0.4:
                        index.remove(noise_live.pop(0))
                    time.sleep(0.001)  # spread writes across the query window
            except BaseException as exc:  # noqa: BLE001 - asserted below
                writer_errors.append(exc)
            finally:
                writer_done.set()

        def snapshotter():
            while not writer_done.is_set():
                snapshot = index.metrics.snapshot()
                assert "queries" in snapshot
            index.metrics.snapshot()

        workload = [queries[i % len(queries)] for i in range(submissions)]
        writer_thread = threading.Thread(target=writer)
        stats_thread = threading.Thread(target=snapshotter)
        writer_thread.start()
        stats_thread.start()
        with QueryExecutor(index, threads=threads, verify=True) as executor:
            outcomes = executor.run(workload)
        writer_thread.join(60)
        stats_thread.join(60)
        assert not writer_thread.is_alive() and not stats_thread.is_alive()
        assert not writer_errors, f"writer thread failed: {writer_errors[0]!r}"

        for outcome in outcomes:
            assert outcome.ok, (
                f"query #{outcome.position} "
                f"{workload[outcome.position].to_xpath()!r} raised: "
                f"{outcome.error!r}"
            )
            got = sorted(
                id_to_pos[doc_id]
                for doc_id in outcome.result
                if doc_id in seeded_ids
            )
            want = expected[outcome.position % len(queries)]
            assert got == want, (
                f"query #{outcome.position} "
                f"{workload[outcome.position].to_xpath()!r}: "
                f"verified={got} reference={want}"
            )

        # the writer's surviving noise documents are really indexed
        live = sorted(index.query("/z1", verify=True))
        assert live == sorted(noise_live)

        # `repro check` semantics: every structural invariant still holds
        assert_invariants(index)
    finally:
        index.flush()
        index.close()
        index.docstore.close()


def test_oracle_hammer_first_config(tmp_path):
    """Tier-1 hammer: 4 threads, 36 verified queries, interleaved writer."""
    _run_hammer(
        tmp_path, seed=11, docs=10, threads=4, submissions=36, writer_ops=30
    )


@pytest.mark.slow
@pytest.mark.parametrize("seed", [23, 37, 59])
def test_oracle_hammer_full_sweep(tmp_path, seed):
    """CI sweep: more seeds, more submissions, longer writer interleaving."""
    _run_hammer(
        tmp_path,
        seed=seed,
        docs=14,
        threads=4,
        submissions=200,
        writer_ops=120,
    )
