"""Query-path cache coherence: posting groups, posting cache, descent reuse.

The posting cache is a lookaside structure — the B+Trees stay the source
of truth — so every test here is an equivalence test at heart: the cached
index must answer exactly like the uncached one under inserts, removals,
reopen-from-disk, and buffer-pool eviction pressure.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.doc.model import XmlNode
from repro.index.matching import SequenceMatcher
from repro.index.naive import NaiveIndex
from repro.index.postings import PostingCache, PostingGroup
from repro.index.rist import RistIndex
from repro.index.vist import VistIndex
from repro.labeling.scope import Scope
from repro.query.xpath import parse_xpath
from repro.sequence.transform import SequenceEncoder
from repro.storage.cache import BufferPool
from repro.storage.docstore import FileDocStore
from repro.storage.pager import FilePager
from tests.conftest import build_figure3_record, build_purchase_schema, build_record


def make_index(**kwargs) -> VistIndex:
    return VistIndex(SequenceEncoder(schema=build_purchase_schema()), **kwargs)


def span_ns(group: PostingGroup, within: Scope) -> list[int]:
    """Labels of the group's postings in the S-Ancestor range of ``within``."""
    lo, hi = group.select_span(within.n, within.end)
    return group.ns[lo:hi]


def columns(group: PostingGroup) -> tuple:
    return group.ns, group.ends, group.prefixes


class TestPostingGroup:
    def test_sorted_by_n_and_select_bisects(self):
        entries = [((), Scope(n, 0)) for n in [40, 10, 30, 20]]
        group = PostingGroup(entries)
        assert list(group.ns) == [10, 20, 30, 40]
        # S-Ancestor range is (n, n+size]: excludes n itself, includes end
        assert span_ns(group, Scope(10, 20)) == [20, 30]
        assert span_ns(group, Scope(0, 100)) == [10, 20, 30, 40]
        assert span_ns(group, Scope(40, 100)) == []
        assert len(group) == 4

    def test_select_boundary_inclusive_end(self):
        group = PostingGroup([((), Scope(5, 0)), ((), Scope(8, 0))])
        assert span_ns(group, Scope(4, 4)) == [5, 8]
        assert span_ns(group, Scope(5, 3)) == [8]


class TestPostingGroupColumns:
    def test_columns_parallel_and_sorted(self):
        postings = [
            (("a", "b"), Scope(30, 5)),
            (("a",), Scope(10, 2)),
            (("c",), Scope(20, 0)),
        ]
        group = PostingGroup(postings)
        assert group.ns == [10, 20, 30]
        assert group.ends == [12, 20, 35]
        assert group.prefixes == (("a",), ("c",), ("a", "b"))

    def test_select_span_column_slice(self):
        group = PostingGroup([((), Scope(n, 0)) for n in [10, 20, 30, 40]])
        lo, hi = group.select_span(10, 30)
        assert (lo, hi) == (1, 3)
        assert [group.ns[i] for i in range(lo, hi)] == [20, 30]
        assert group.select_span(40, 100) == (4, 4)

    def test_prefixes_interned_across_groups(self):
        a = PostingGroup([(("x", "y"), Scope(1, 0))])
        b = PostingGroup([(("x", "y"), Scope(2, 0))])
        assert a.prefixes[0] is b.prefixes[0]

    def test_big_labels_keep_list_columns(self):
        big = 1 << 200
        group = PostingGroup([((), Scope(big, 3))])
        assert isinstance(group.ns, list)
        assert span_ns(group, Scope(big - 1, 2)) == [big]
        assert group.ends == [big + 3]  # exact ints, no truncation


class TestPostingCache:
    def test_hit_miss_counters(self):
        cache = PostingCache(capacity=4)
        loader = lambda: [((), Scope(1, 0))]
        g1 = cache.lookup("A", 0, (), loader)
        g2 = cache.lookup("A", 0, (), loader)
        assert g1 is g2
        assert cache.stats.misses == 1 and cache.stats.hits == 1
        assert cache.stats.hit_rate == 0.5

    def test_lru_eviction(self):
        cache = PostingCache(capacity=2)
        for sym in "ABC":
            cache.lookup(sym, 0, (), lambda: [])
        cache.lookup("B", 0, (), lambda: [])
        cache.lookup("C", 0, (), lambda: [])
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        # A was evicted: looking it up again is a miss
        misses = cache.stats.misses
        cache.lookup("A", 0, (), lambda: [])
        assert cache.stats.misses == misses + 1

    def test_invalidate_entry_matches_wildcard_groups(self):
        cache = PostingCache(capacity=8)
        # concrete key, a covering wildcard key, and two unrelated keys
        cache.lookup("A", 2, ("P", "S"), lambda: [])
        cache.lookup("A", 2, ("P",), lambda: [])
        cache.lookup("A", 2, ("P", "B"), lambda: [])  # different leading
        cache.lookup("A", 3, ("P", "S"), lambda: [])  # different prefix_len
        cache.invalidate_entry("A", ("P", "S"))
        assert len(cache) == 2
        assert cache.stats.invalidations == 2
        hits = cache.stats.hits
        cache.lookup("A", 2, ("P", "B"), lambda: [])
        cache.lookup("A", 3, ("P", "S"), lambda: [])
        assert cache.stats.hits == hits + 2  # the unrelated keys survived

    def test_invalidate_unknown_symbol_is_noop(self):
        cache = PostingCache(capacity=2)
        cache.invalidate_entry("Z", ("P",))
        assert cache.stats.invalidations == 0

    def test_clear(self):
        cache = PostingCache(capacity=4)
        cache.lookup("A", 0, (), lambda: [])
        cache.clear()
        assert len(cache) == 0
        misses = cache.stats.misses
        cache.lookup("A", 0, (), lambda: [])
        assert cache.stats.misses == misses + 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            PostingCache(capacity=0)


QUERIES = [
    "/P/S/N",
    "/P[S[L='boston']]",
    "/P[S[L='boston']][B[L='newyork']]",
    "/P/S/I/M",
    "//I//M",
    "/P//N",
]


def corpus(k: int) -> list[XmlNode]:
    locs = ["boston", "newyork", "austin", "dallas"]
    makers = ["intel", "amd", "ibm"]
    rng = random.Random(k)
    docs = [build_figure3_record()]
    for i in range(k):
        docs.append(
            build_record(
                rng.choice(locs),
                rng.choice(locs),
                rng.sample(makers, rng.randint(1, 3)),
            )
        )
    return docs


class TestVistCoherence:
    def test_interleaved_insert_query_matches_uncached(self):
        cached = make_index(posting_cache_size=16)
        uncached = make_index(posting_cache_size=0)
        assert cached.postings is not None and uncached.postings is None
        for doc in corpus(12):
            cached.add(doc)
            uncached.add(doc)
            for q in QUERIES:
                assert cached.query(q) == uncached.query(q), q
        assert cached.postings.stats.hits > 0  # the cache actually engaged
        assert cached.postings.stats.invalidations > 0

    def test_remove_invalidates(self):
        cached = make_index(posting_cache_size=16)
        uncached = make_index(posting_cache_size=0)
        ids = []
        for doc in corpus(10):
            ids.append(cached.add(doc))
            uncached.add(doc)
        for q in QUERIES:  # warm the cache before removing
            cached.query(q)
        rng = random.Random(5)
        for doc_id in rng.sample(ids, 5):
            cached.remove(doc_id)
            uncached.remove(doc_id)
            for q in QUERIES:
                assert cached.query(q) == uncached.query(q), q

    def test_reopen_starts_cold_and_correct(self, tmp_path):
        pager = FilePager(tmp_path / "vist.db")
        index = make_index(
            pager=pager, docstore=FileDocStore(tmp_path / "docs.dat")
        )
        docs = corpus(8)
        for doc in docs:
            index.add(doc)
        expected = {q: index.query(q) for q in QUERIES}
        index.flush()
        index.close()
        index.docstore.close()

        reopened = make_index(
            pager=FilePager(tmp_path / "vist.db"),
            docstore=FileDocStore(tmp_path / "docs.dat"),
        )
        assert len(reopened.postings) == 0  # cache never persists
        for q in QUERIES:
            assert reopened.query(q) == expected[q], q
        assert reopened.postings.stats.hits + reopened.postings.stats.misses > 0
        reopened.close()
        reopened.docstore.close()

    def test_descent_cache_survives_buffer_pool_eviction(self, tmp_path):
        # a 4-page pool forces constant eviction under the descent cache;
        # cached pids must re-decode correctly after their pages cycle out
        pool = BufferPool(FilePager(tmp_path / "vist.db"), capacity=4)
        index = make_index(
            pager=pool, docstore=FileDocStore(tmp_path / "docs.dat")
        )
        reference = make_index(posting_cache_size=0)
        for doc in corpus(15):
            index.add(doc)
            reference.add(doc)
        for _ in range(3):
            for q in QUERIES:
                assert index.query(q) == reference.query(q), q
        stats = index.cache_stats()
        assert stats["buffer_pool"]["evictions"] > 0
        assert stats["descent"]["combined"]["hits"] > 0
        index.close()
        index.docstore.close()

    def test_rist_finalize_clears_cache(self):
        index = RistIndex(SequenceEncoder(schema=build_purchase_schema()))
        uncached = make_index(posting_cache_size=0)
        for doc in corpus(10):
            index.add(doc)
            uncached.add(doc)
        for q in QUERIES:
            assert index.query(q) == uncached.query(q), q

    def test_cache_stats_shape(self):
        index = make_index()
        index.add(build_figure3_record())
        index.query("/P/S/N")
        stats = index.cache_stats()
        for field in ("groups", "hits", "misses", "invalidations", "hit_rate"):
            assert field in stats["postings"]
        assert set(stats["descent"]) == {"combined", "docid"}

    def test_match_stats_counters(self):
        index = make_index(posting_cache_size=16)
        for doc in corpus(8):
            index.add(doc)
        index.query("/P[S[L='boston']][B[L='newyork']]")
        first = index.match_stats
        assert first.range_queries > 0
        assert first.cache_hits + first.cache_misses > 0
        index.query("/P[S[L='boston']][B[L='newyork']]")
        assert index.match_stats.cache_hits > 0  # warm second run


@settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_docs=st.integers(min_value=1, max_value=10),
)
def test_cached_equals_uncached_and_naive(seed, n_docs):
    """Property: cached and uncached ViST yield the same final scopes, and
    both raw answer sets equal Algorithm 1 on the in-memory trie."""
    cached = make_index(posting_cache_size=8)
    uncached = make_index(posting_cache_size=0)
    naive = NaiveIndex(SequenceEncoder(schema=build_purchase_schema()))
    rng = random.Random(seed)
    locs = ["boston", "newyork", "austin"]
    makers = ["intel", "amd", "ibm"]
    for _ in range(n_docs):
        doc = build_record(
            rng.choice(locs), rng.choice(locs), rng.sample(makers, rng.randint(1, 2))
        )
        cached.add(doc)
        uncached.add(doc)
        naive.add(doc)
    matchers = [SequenceMatcher(cached), SequenceMatcher(uncached)]
    for q in QUERIES:
        for qseq in cached.translator.translate(parse_xpath(q)):
            a, b = (
                sorted((s.n, s.size) for s in m.final_scopes(qseq)) for m in matchers
            )
            assert a == b, q
            want = naive.match_sequence(qseq)
            assert matchers[0].match(qseq) == matchers[1].match(qseq) == want, q
        want = naive.query(q)
        assert cached.query(q) == uncached.query(q) == want, q


# ---------------------------------------------------------------------------
# invalidate_entry staleness property (model-based)

_LABELS = ("a", "b")
_prefixes = st.lists(st.sampled_from(_LABELS), max_size=3).map(tuple)
_cache_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _prefixes),
        st.tuples(st.just("remove"), _prefixes),
        st.tuples(st.just("lookup"), _prefixes, st.integers(0, 3)),
    ),
    max_size=60,
)


@settings(max_examples=120, deadline=None)
@given(ops=_cache_ops)
def test_invalidate_entry_keeps_wildcard_groups_coherent(ops):
    """Property: after any interleaving of inserts, removals, and lookups,
    every cached group equals a cold recomputation from the model store.

    The subtle case is wildcard groups: a lookup key ``(symbol, plen,
    leading)`` with ``len(leading) < plen`` covers every entry whose
    prefix *starts with* ``leading`` — so adding or removing an entry
    must invalidate each cached key whose leading labels are a (proper)
    prefix of the entry's, not just the exact-key group.
    """
    symbol = "E"
    cache = PostingCache(capacity=64)
    store: dict[tuple, list[Scope]] = {}
    next_n = [0]

    def cold(plen: int, leading: tuple) -> list[tuple[tuple, Scope]]:
        return [
            (prefix, scope)
            for prefix, scopes in store.items()
            if len(prefix) == plen and prefix[: len(leading)] == leading
            for scope in scopes
        ]

    cached_keys: list[tuple[int, tuple]] = []
    for op in ops:
        if op[0] == "add":
            prefix = op[1]
            scope = Scope(next_n[0], 0)
            next_n[0] += 10
            store.setdefault(prefix, []).append(scope)
            cache.invalidate_entry(symbol, prefix)
        elif op[0] == "remove":
            prefix = op[1]
            if store.get(prefix):
                store[prefix].pop()
                cache.invalidate_entry(symbol, prefix)
        else:
            _, prefix, lead_len = op
            leading = prefix[: min(lead_len, len(prefix))]
            plen = len(prefix)
            group = cache.lookup(
                symbol, plen, leading, lambda: cold(plen, leading)
            )
            cached_keys.append((plen, leading))
            want = PostingGroup(cold(plen, leading))
            assert columns(group) == columns(want), (
                f"stale group for plen={plen} leading={leading}"
            )
        # every group still resident must match a cold run right now
        for plen, leading in cached_keys:
            resident = cache._groups.get((symbol, plen, leading))
            if resident is not None:
                want = PostingGroup(cold(plen, leading))
                assert columns(resident) == columns(want), (
                    f"resident group went stale: plen={plen} leading={leading}"
                )
