"""Brute-force BM25 oracle: a deliberately *naive, independent* implementation of
the exact same query semantics as the vectorized engine (eval.py docstring), used
by tests to assert rank-identical top-k (north_rule).

Per-doc Python evaluation over in-memory token lists — no numpy posting algebra, no
shared code paths with the engine beyond the analyzer and the AST. O(docs * query)
and proud of it; only ever run on small fixtures.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Optional, Sequence, Tuple

import pyarrow as pa
import pyarrow.compute as pc

from ..analysis import DEFAULT_FIELD, INDEXED_FIELDS, tokenize
from ..query import nodes as qn
from ..query.parser import parse
from .eval import K1, B, levenshtein_within, wildcard_to_regex


class BruteForceOracle:
    def __init__(self, table: pa.Table, fields: Sequence[str] = INDEXED_FIELDS):
        order = pc.sort_indices(
            table,
            sort_keys=[("conv_id", "ascending"), ("turn_idx", "ascending")],
        )
        table = table.take(order)
        self.fields = tuple(fields)
        self.n = table.num_rows
        self.conv_id = table["conv_id"].to_pylist()
        self.turn_idx = table["turn_idx"].to_pylist()
        # doc_id = rank under stable (conv_id, turn_idx) order
        self.tokens: Dict[str, List[List[str]]] = {
            f: [tokenize(v if v is not None else "") for v in table[f].to_pylist()]
            for f in self.fields
        }
        self.avgdl = {
            f: (sum(len(t) for t in self.tokens[f]) / self.n if self.n else 0.0)
            for f in self.fields
        }
        self._df_cache: Dict[Tuple[str, str], int] = {}
        self._vocab: Dict[str, List[str]] = {}

    # ---- stats ----

    def df(self, field: str, term: str) -> int:
        key = (field, term)
        if key not in self._df_cache:
            self._df_cache[key] = sum(1 for t in self.tokens[field] if term in t)
        return self._df_cache[key]

    def idf(self, field: str, term: str) -> float:
        df = self.df(field, term)
        if df <= 0:
            return 0.0
        return math.log(1.0 + (self.n - df + 0.5) / (df + 0.5))

    def vocab(self, field: str) -> List[str]:
        if field not in self._vocab:
            self._vocab[field] = sorted({t for ts in self.tokens[field] for t in ts})
        return self._vocab[field]

    def _tfnorm(self, tf: int, field: str, doc: int) -> float:
        dl = len(self.tokens[field][doc])
        avgdl = self.avgdl[field] or 1.0
        return tf * (K1 + 1.0) / (tf + K1 * (1.0 - B + B * dl / avgdl))

    # ---- per-doc evaluation: returns score or None (no match) ----

    def _score_term(self, field: str, term: str, doc: int) -> Optional[float]:
        tf = self.tokens[field][doc].count(term)
        if tf == 0:
            return None
        return self.idf(field, term) * self._tfnorm(tf, field, doc)

    def _phrase_freq(self, field: str, terms: List[str], doc: int, gap: int) -> int:
        toks = self.tokens[field][doc]
        positions = [[i for i, t in enumerate(toks) if t == term] for term in terms]
        if any(not p for p in positions):
            return 0
        count = 0
        for start in positions[0]:
            cur = [start]
            for nxt in positions[1:]:
                cur = sorted(
                    {q for p in cur for q in nxt if p < q <= p + gap + 1}
                )
                if not cur:
                    break
            if cur:
                count += 1
        return count

    def _score_phrase(
        self, field: str, text: str, doc: int, gap: int
    ) -> Optional[float]:
        terms = tokenize(text)
        if not terms:
            return None
        if len(terms) == 1:
            return self._score_term(field, terms[0], doc)
        freq = self._phrase_freq(field, terms, doc, gap)
        if freq == 0:
            return None
        idf_sum = sum(self.idf(field, t) for t in terms)
        return idf_sum * self._tfnorm(freq, field, doc)

    def _expand(self, q: qn.Query, field: str) -> List[str]:
        vocab = self.vocab(field)
        if isinstance(q, qn.Prefix):
            p = q.value.lower()
            return [t for t in vocab if t.startswith(p)]
        if isinstance(q, qn.WildCard):
            pat = re.compile(wildcard_to_regex(q.ops).lower())
            return [t for t in vocab if pat.fullmatch(t)]
        if isinstance(q, qn.TermRegex):
            pat = re.compile(q.value)
            return [t for t in vocab if pat.fullmatch(t)]
        if isinstance(q, qn.Fuzzy):
            edits = 2 if q.num is None else q.num
            base = q.value.lower()
            return [t for t in vocab if levenshtein_within(base, t, edits)]
        if isinstance(q, qn.TermRange):
            out = []
            for t in vocab:
                if q.lower is not None and (t < q.lower or (t == q.lower and not q.lower_inc)):
                    continue
                if q.upper is not None and (t > q.upper or (t == q.upper and not q.upper_inc)):
                    continue
                out.append(t)
            return out
        raise TypeError(q)

    def _eval(self, q: qn.Query, field: str, doc: int) -> Optional[float]:
        """Score of doc for q, or None when the doc does not match."""
        if isinstance(q, qn.Term):
            terms = tokenize(q.value)
            if not terms:
                return None
            if len(terms) == 1:
                return self._score_term(field, terms[0], doc)
            return self._score_phrase(field, q.value, doc, 0)
        if isinstance(q, qn.Phrase):
            return self._score_phrase(field, q.value, doc, 0)
        if isinstance(q, qn.Proximity):
            return self._score_phrase(field, q.value, doc, max(0, q.num))
        if isinstance(q, (qn.Prefix, qn.WildCard, qn.TermRegex, qn.Fuzzy, qn.TermRange)):
            scores = [
                s
                for t in self._expand(q, field)
                if (s := self._score_term(field, t, doc)) is not None
            ]
            return sum(scores) if scores else None
        if isinstance(q, qn.Field):
            return self._eval(q.q, q.field, doc)
        if isinstance(q, qn.Group):
            return self._eval(q.q, field, doc)
        if isinstance(q, qn.Boost):
            s = self._eval(q.q, field, doc)
            return None if s is None else s * float(q.weight)
        if isinstance(q, qn.UnaryPlus):
            return self._eval(q.q, field, doc)
        if isinstance(q, (qn.Not, qn.UnaryMinus)):
            return None  # pure negative matches nothing standalone
        if isinstance(q, (qn.And, qn.Or)):
            conj = isinstance(q, qn.And)
            must, should, must_not = [], [], []
            for c in q.qs:
                if isinstance(c, (qn.Not, qn.UnaryMinus)):
                    must_not.append(c.q)
                elif isinstance(c, qn.UnaryPlus) or conj:
                    must.append(c)
                else:
                    should.append(c)
            for m in must_not:
                if self._eval(m, field, doc) is not None:
                    return None
            if not must and not should:
                return None
            total = 0.0
            for m in must:
                s = self._eval(m, field, doc)
                if s is None:
                    return None
                total += s
            matched_should = False
            for c in should:
                s = self._eval(c, field, doc)
                if s is not None:
                    matched_should = True
                    total += s
            if not must and not matched_should:
                return None
            return total
        if isinstance(q, qn.MinimumMatch):
            must_not = [c.q for c in q.qs if isinstance(c, (qn.Not, qn.UnaryMinus))]
            pos = [c for c in q.qs if not isinstance(c, (qn.Not, qn.UnaryMinus))]
            for m in must_not:
                if self._eval(m, field, doc) is not None:
                    return None
            scores = [s for c in pos if (s := self._eval(c, field, doc)) is not None]
            if len(scores) >= max(q.num, 1) and scores:
                return sum(scores)
            return None
        raise TypeError(q)

    # ---- public ----

    def search(self, query, k: int = 10) -> List[Tuple[int, float]]:
        q = parse(query) if isinstance(query, str) else query
        hits = []
        for doc in range(self.n):
            s = self._eval(q, DEFAULT_FIELD, doc)
            if s is not None:
                hits.append((doc, s))
        hits.sort(key=lambda ds: (-ds[1], ds[0]))
        return hits[:k]
