"""Expected answers, computed once per distinct query and never timed.

Exact answers come from the independent reference evaluator over the
generated document trees; raw answers from an in-memory
:class:`~repro.index.naive.NaiveIndex` (paper Algorithm 1), the raw
anchor of the repository's differential oracle.  Both are answers over
the whole document universe; :meth:`Oracle.expected` intersects them
with the documents live when the query ran.
"""

from __future__ import annotations

from typing import Optional

from repro.index.naive import NaiveIndex
from repro.query.xpath import parse_xpath
from repro.sequence.transform import SequenceEncoder
from repro.testing.reference import reference_results

__all__ = ["Oracle"]


class Oracle:
    """Answers over ``documents``, where a document's position is its id."""

    def __init__(self, documents: list) -> None:
        self.documents = documents
        self._hasher = SequenceEncoder().hasher
        self._naive: Optional[NaiveIndex] = None
        self._memo: dict[tuple[str, bool], frozenset] = {}

    def matches(self, xpath: str, verify: bool) -> frozenset:
        key = (xpath, verify)
        found = self._memo.get(key)
        if found is None:
            if verify:
                found = frozenset(
                    reference_results(self.documents, parse_xpath(xpath), self._hasher)
                )
            else:
                if self._naive is None:
                    self._naive = NaiveIndex()
                    self._naive.add_all(self.documents)
                found = frozenset(self._naive.query(xpath))
            self._memo[key] = found
        return found

    def expected(self, xpath: str, verify: bool, live=None) -> list[int]:
        found = self.matches(xpath, verify)
        if live is not None:
            found = found & live
        return sorted(found)
