"""AND/OR candidate retrieval (lines 1-14 of Algorithms 4 and 5).

Given the circle cover and per-``(cell, term)`` postings lists, produce
the candidate list ``P``:

* **AND** — a candidate must contain *all* query keywords: postings are
  intersected per cell (a tweet lives in exactly one cell), then cells
  are concatenated;
* **OR** — at least one keyword suffices: a k-way union per cell.

Each candidate carries the total query-keyword occurrence count
(``|q.W ∩ p.W|`` under the bag model), summed over its matched terms, so
scoring never re-touches the postings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..core.model import Semantics
from ..index.postings import Posting, intersect_many, union_many


@dataclass(frozen=True)
class Candidate:
    """A candidate tweet: id, total keyword occurrences, matched-term
    count, and the geohash cell it was retrieved from."""

    tid: int
    match_count: int     # sum of tf over matched query keywords
    terms_matched: int   # how many distinct query keywords matched
    cell: str = ""       # cover cell the posting came from


def candidates_from_postings(per_cell: Dict[str, Dict[str, Sequence[Posting]]],
                             query_terms: List[str],
                             semantics: Semantics) -> List[Candidate]:
    """Apply the query semantics to fetched postings.

    ``per_cell`` maps cell -> term -> postings (only non-empty lists).
    Candidates are returned in (cell, tid) order — cells are iterated in
    Z-order and postings are tid-sorted — and are unique because each
    tweet is indexed under exactly one cell.
    """
    result: List[Candidate] = []
    term_count = len(query_terms)
    for cell in sorted(per_cell):
        per_term = per_cell[cell]
        if semantics is Semantics.AND:
            if len(per_term) < term_count:
                continue  # some keyword absent from this cell entirely
            lists = [per_term[term] for term in query_terms]
            for tid, tfs in intersect_many(lists):
                result.append(Candidate(tid, sum(tfs), term_count, cell))
        else:
            lists = [per_term[term] for term in query_terms if term in per_term]
            for tid, tfs in union_many(lists):
                matched = sum(1 for tf in tfs if tf > 0)
                result.append(Candidate(tid, sum(tfs), matched, cell))
    return result

