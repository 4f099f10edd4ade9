"""Answer checks against the library's brute-force BM25 oracle.

The oracle evaluates every query per document in plain Python, independently
of the engine's posting algebra.  Its one cost trap is dictionary expansion
(prefix, wildcard, fuzzy, range): the stock oracle re-expands the query against
the whole vocabulary for every document.  :class:`Oracle` expands once per
(query node, field); the expansion does not depend on the document, so this
changes no answer and keeps expansion shapes checkable on the same index the
timed stream ran on.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

import numpy as np
import pyarrow as pa

from lucille_ray.search.oracle import BruteForceOracle

#: the repo's own engine-vs-oracle tests compare scores with this tolerance
SCORE_TOL = 1e-9


class Oracle(BruteForceOracle):
    def __init__(self, table: pa.Table, doc_ids: np.ndarray, deleted: Set[int]):
        """``table``: the turns the engine's statistics count, ``doc_ids``: the
        engine doc id of each of them in (conv_id, turn_idx) order, ``deleted``:
        tombstoned ids that still count in statistics but must never match."""
        super().__init__(table)
        self.doc_ids = np.asarray(doc_ids, dtype=np.int64)
        self.deleted = deleted
        self._expansions: Dict[Tuple[int, str], tuple] = {}  # -> (node, terms)

    def _expand(self, q, field):
        key = (id(q), field)
        if key not in self._expansions:
            self._expansions[key] = (q, super()._expand(q, field))
        return self._expansions[key][1]

    def top_k(self, query, k: int) -> List[Tuple[int, float]]:
        hits = self.search(query, k=k + len(self.deleted))
        out = []
        for pos, score in hits:
            doc = int(self.doc_ids[pos])
            if doc not in self.deleted:
                out.append((doc, score))
        return out[:k]


def compare(got_docs: Sequence[int], got_scores: Sequence[float],
            want: List[Tuple[int, float]]) -> str:
    """Empty string when the engine's top-k equals the oracle's, else why not."""
    got = list(zip((int(d) for d in got_docs), (float(s) for s in got_scores)))
    if len(got) != len(want):
        return f"{len(got)} hits, oracle has {len(want)}"
    for rank, ((gd, gs), (wd, ws)) in enumerate(zip(got, want)):
        if gd != wd:
            return f"rank {rank}: doc {gd}, oracle doc {wd}"
        if abs(gs - ws) > SCORE_TOL:
            return f"rank {rank}: score {gs!r}, oracle {ws!r}"
    return ""
