"""Non-contiguous subsequence matching (paper Algorithm 2).

Matching walks the query sequence left to right.  At each step the
current match position is a virtual-suffix-tree scope; the next query
item is resolved through the D-Ancestor keys (symbol + prefix), the
matching nodes are narrowed to descendants of the current scope via the
S-Ancestor range ``(n, n + size]``, and the walk recurses.  At the end,
every document id in the closed range ``[n, n + size]`` of the final
node is an answer.

Wildcards: a ``*`` or ``//`` in a query prefix makes the D-Ancestor
lookup a *range* scan — same symbol, prefix length fixed (``*``) or swept
over the plausible lengths (``//``), known leading labels as the scan
prefix (Section 3.3, "Handling Wild Cards").  The first match binds the
wildcard; later items reuse the binding ("the matching of ``(L, P*)``
will instantiate the ``*`` in ``(v2, P*L)``").

:class:`SequenceMatcher` is shared by RIST and ViST — they differ only in
how entries were labelled, which the host index hides behind
:meth:`MatchingHost.fetch_postings` / :meth:`MatchingHost.iter_doc_ids`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Protocol

from repro.index.postings import PostingGroup
from repro.labeling.scope import Scope
from repro.obs.metrics import MetricSet
from repro.query.ast import Dslash, PrefixToken, QueryItem, QuerySequence, Star
from repro.sequence.encoding import Prefix

Bindings = tuple[tuple[int, tuple[str, ...]], ...]  # wid -> bound labels, sorted

__all__ = [
    "MatchingHost",
    "SequenceMatcher",
    "MatchStats",
    "match_prefix_pattern",
    "resolve_pattern",
]


@dataclass
class MatchStats(MetricSet):
    """Index-traversal effort of the most recent match.

    ``range_queries`` counts D/S-Ancestor lookups issued (the paper's
    "index traversals" — one per search state and prefix length, whether
    or not the batching layer had to touch the index for it);
    ``candidates`` counts nodes those lookups yielded; ``search_states``
    counts distinct ``(item, scope)`` positions visited; ``final_nodes``
    is the size of the answer frontier.

    The query-path performance layer adds three counters:
    ``batched_states`` — lookups served from a group another state at the
    same frontier level already fetched; ``cache_hits``/``cache_misses``
    — posting-cache traffic of this match (zero when the host has no
    posting cache).
    """

    range_queries: int = 0
    candidates: int = 0
    search_states: int = 0
    final_nodes: int = 0
    batched_states: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    def reset(self) -> None:
        self.range_queries = 0
        self.candidates = 0
        self.search_states = 0
        self.final_nodes = 0
        self.batched_states = 0
        self.cache_hits = 0
        self.cache_misses = 0


def _bind(bindings: Bindings, wid: int, labels: tuple[str, ...]) -> Bindings:
    return tuple(sorted(dict(bindings) | {wid: labels}.items()))


def match_prefix_pattern(
    pattern: tuple[PrefixToken, ...],
    data_prefix: Prefix,
    bindings: Bindings = (),
) -> list[Bindings]:
    """All binding sets under which ``pattern`` matches ``data_prefix``.

    ``str`` tokens must match exactly; a bound :class:`Star`/:class:`Dslash`
    must reproduce its labels; an unbound ``Star`` binds one label and an
    unbound ``Dslash`` binds zero or more.  Multiple unbound ``//`` can
    split the data prefix several ways, so a list is returned.
    """
    bound = dict(bindings)
    results: list[Bindings] = []

    def walk(ti: int, di: int, current: dict[int, tuple[str, ...]]) -> None:
        if ti == len(pattern):
            if di == len(data_prefix):
                results.append(tuple(sorted(current.items())))
            return
        token = pattern[ti]
        if isinstance(token, str):
            if di < len(data_prefix) and data_prefix[di] == token:
                walk(ti + 1, di + 1, current)
            return
        if isinstance(token, Star):
            if token.wid in current:
                labels = current[token.wid]
                if data_prefix[di : di + len(labels)] == labels:
                    walk(ti + 1, di + len(labels), current)
                return
            if di < len(data_prefix):
                nxt = dict(current)
                nxt[token.wid] = (data_prefix[di],)
                walk(ti + 1, di + 1, nxt)
            return
        assert isinstance(token, Dslash)
        if token.wid in current:
            labels = current[token.wid]
            if data_prefix[di : di + len(labels)] == labels:
                walk(ti + 1, di + len(labels), current)
            return
        for take in range(len(data_prefix) - di + 1):
            nxt = dict(current)
            nxt[token.wid] = tuple(data_prefix[di : di + take])
            walk(ti + 1, di + take, nxt)

    walk(0, 0, bound)
    # Dedupe: distinct walks can yield identical binding sets.
    seen: set[Bindings] = set()
    unique = []
    for binding in results:
        if binding not in seen:
            seen.add(binding)
            unique.append(binding)
    return unique


def resolve_pattern(
    pattern: tuple[PrefixToken, ...], bindings: Bindings
) -> tuple[tuple[str, ...], tuple[PrefixToken, ...]]:
    """Split a pattern into its concrete leading labels and the open tail.

    Bound wildcards are substituted first, so the leading part is as long
    as the current bindings allow — it becomes the D-Ancestor scan prefix.
    """
    bound = dict(bindings)
    leading: list[str] = []
    tail: list[PrefixToken] = []
    open_tail = False
    for token in pattern:
        if not open_tail:
            if isinstance(token, str):
                leading.append(token)
                continue
            if token.wid in bound:
                leading.extend(bound[token.wid])
                continue
            open_tail = True
        if isinstance(token, (Star, Dslash)) and token.wid in bound:
            tail.extend(bound[token.wid])
        else:
            tail.append(token)
    return tuple(leading), tuple(tail)


class MatchingHost(Protocol):
    """What an index must expose for :class:`SequenceMatcher` to run."""

    def root_scope(self) -> Scope:
        """Scope of the virtual suffix tree root."""

    def max_prefix_len(self) -> int:
        """Longest item prefix in the index (bounds ``//`` sweeps)."""

    def fetch_postings(
        self, symbol, prefix_len: int, leading: tuple[str, ...]
    ) -> PostingGroup:
        """Every node with the given symbol/prefix-length whose prefix
        starts with ``leading``, as one group sorted by label ``n``."""

    def iter_doc_ids(self, within: Scope) -> Iterator[int]:
        """Document ids attached in the closed range ``[n, n + size]``."""


GroupMemo = dict[tuple, PostingGroup]
State = tuple[int, int, Bindings]  # (n, end, bindings) of one frontier node


class SequenceMatcher:
    """Algorithm 2, parameterised by a :class:`MatchingHost`.

    The walk is a level-by-level columnar frontier.  All live states at
    one query position are expanded together, and states that resolve to
    the same D-Ancestor key ``(symbol, prefix_len, leading)`` share one
    posting fetch per level (O(distinct keys) index traversals instead of
    O(states × scans)).  A state is an ``(n, end, bindings)`` triple and
    expansion reads :class:`PostingGroup`'s ``ns``/``ends``/``prefixes``
    columns in place (``select_span`` plus index arithmetic), so no
    per-posting ``(Prefix, Scope)`` tuple is ever built.  The independent
    reference for its answers is :mod:`repro.testing.reference`.
    """

    def __init__(self, host: MatchingHost) -> None:
        self.host = host
        # Effort of the most recent *completed* match.  Each match runs
        # against its own private MatchStats (threaded through the call
        # chain, never stored on self mid-flight) and publishes it here
        # in one reference assignment at the end — concurrent matches
        # cannot clobber each other's counters, and readers of
        # `match_stats` always see one internally consistent bundle.
        self.stats = MatchStats()

    def match(self, query: QuerySequence, guard=None, trace=None) -> set[int]:
        """All document ids containing the query sequence."""
        finals = self.final_scopes(query, guard, trace)
        if trace is not None:
            pager = getattr(self.host, "_pager", None)
            pages0 = pager.read_count if pager is not None else 0
            span = trace.begin("docid-output", final_scopes=len(finals))
        results: set[int] = set()
        for scope in finals:
            if guard is not None:
                guard.step()
            results.update(self.host.iter_doc_ids(scope))
        if guard is not None:
            guard.check()  # count the reads of the trailing DocId fetches
        if trace is not None:
            trace.end(
                span,
                doc_ids=len(results),
                page_reads=(pager.read_count - pages0) if pager is not None else 0,
            )
        return results

    def final_scopes(self, query: QuerySequence, guard=None, trace=None) -> list[Scope]:
        """Scopes of the nodes matching the query's last item.

        This is the matching phase *without* the DocId output phase —
        the quantity the paper times in Figure 10 ("does not include the
        time spent in data output after each range query on the DocId
        B+Tree").  ``match`` unions the DocId ranges of these scopes.
        """
        stats = MatchStats()  # private to this call; published at the end
        if guard is not None:
            guard.check()
        postings = getattr(self.host, "postings", None)
        # cache-delta attribution is approximate under concurrency (the
        # posting cache is shared, so other in-flight matches' traffic
        # lands in the window too); exact for single-threaded runs
        if postings is not None:
            hits_before, misses_before = postings.stats.hits, postings.stats.misses
        max_len = self.host.max_prefix_len()
        if trace is not None:
            pager = getattr(self.host, "_pager", None)
        root = self.host.root_scope()
        frontier: list[State] = [(root.n, root.end, ())]
        for level, qi in enumerate(query.items):
            if trace is not None:
                span = trace.begin(
                    f"level {level}", item=str(qi), frontier_in=len(frontier)
                )
                rq0, cand0 = stats.range_queries, stats.candidates
                bat0 = stats.batched_states
                pages0 = pager.read_count if pager is not None else 0
                if postings is not None:
                    hits0, misses0 = postings.stats.hits, postings.stats.misses
            groups: GroupMemo = {}
            next_frontier: list[State] = []
            seen: set[tuple[int, Bindings]] = set()
            for n, end, bindings in frontier:
                stats.search_states += 1
                if guard is not None:
                    guard.step()
                self._expand(
                    qi, n, end, bindings, max_len, stats, guard, groups, seen,
                    next_frontier,
                )
            frontier = next_frontier
            if trace is not None:
                meta = {
                    "frontier_out": len(frontier),
                    "range_queries": stats.range_queries - rq0,
                    "candidates": stats.candidates - cand0,
                    "batched": stats.batched_states - bat0,
                }
                if pager is not None:
                    meta["page_reads"] = pager.read_count - pages0
                if postings is not None:
                    meta["cache_hits"] = postings.stats.hits - hits0
                    meta["cache_misses"] = postings.stats.misses - misses0
                trace.end(span, **meta)
            if not frontier:
                break
        finals: list[Scope] = []
        seen_finals: set[int] = set()
        for n, end, _ in frontier:
            if n not in seen_finals:
                seen_finals.add(n)
                finals.append(Scope(n, end - n))
        if postings is not None:
            stats.cache_hits = postings.stats.hits - hits_before
            stats.cache_misses = postings.stats.misses - misses_before
        stats.final_nodes = len(finals)
        self.stats = stats  # one reference assignment: match_stats readers
        return finals  # never see a half-filled bundle

    def _expand(
        self,
        qi: QueryItem,
        n: int,
        end: int,
        bindings: Bindings,
        max_len: int,
        stats: MatchStats,
        guard,
        groups: GroupMemo,
        seen: set[tuple[int, Bindings]],
        out: list[State],
    ) -> None:
        """Append the children of state ``(n, end, bindings)`` matching ``qi``.

        One D/S-Ancestor lookup per candidate prefix length: the group's
        postings with label in ``(n, end]``, filtered by the open tail of
        the prefix pattern.  New ``(child_n, bindings)`` states are
        deduplicated level-wide through ``seen``.
        """
        leading, tail = resolve_pattern(qi.prefix, bindings)
        if not tail:
            # fully concrete prefix: a single D-Ancestor key, scope range
            stats.range_queries += 1
            if guard is not None:
                guard.step()
            group = self._group(qi.symbol, len(leading), leading, groups, stats)
            lo, hi = group.select_span(n, end)
            ns, ends = group.ns, group.ends
            for i in range(lo, hi):
                stats.candidates += 1
                child_n = ns[i]
                state = (child_n, bindings)
                if state not in seen:
                    seen.add(state)
                    out.append((child_n, ends[i], bindings))
            return
        min_extra = sum(1 for t in tail if isinstance(t, (str, Star)))
        if all(not isinstance(t, Dslash) for t in tail):
            lengths = [len(leading) + min_extra]
        else:
            lengths = range(len(leading) + min_extra, max_len + 1)
        nlead = len(leading)
        for plen in lengths:
            stats.range_queries += 1
            if guard is not None:
                guard.step()
            group = self._group(qi.symbol, plen, leading, groups, stats)
            lo, hi = group.select_span(n, end)
            ns, ends, prefixes = group.ns, group.ends, group.prefixes
            for i in range(lo, hi):
                child_n = ns[i]
                child_end = ends[i]
                for new_bindings in match_prefix_pattern(
                    tail, prefixes[i][nlead:], bindings
                ):
                    stats.candidates += 1
                    state = (child_n, new_bindings)
                    if state not in seen:
                        seen.add(state)
                        out.append((child_n, child_end, new_bindings))

    def _group(
        self,
        symbol,
        prefix_len: int,
        leading: tuple[str, ...],
        groups: GroupMemo,
        stats: MatchStats,
    ) -> PostingGroup:
        """Fetch a posting group through the per-level memo."""
        key = (symbol, prefix_len, leading)
        group = groups.get(key)
        if group is None:
            groups[key] = group = self.host.fetch_postings(symbol, prefix_len, leading)
        else:
            stats.batched_states += 1
        return group
