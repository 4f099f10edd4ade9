"""Query evaluation: compile the parsed AST into vectorized posting-list algebra
with exact BM25 scoring over one segment.

Semantics follow Lucene's documented behavior for each node (SURVEY.md §2.A):

* ``And`` -> all children MUST match; score = sum of matching clause scores.
* ``Or`` -> children are SHOULD; match if >= 1 matches; score = sum of matching.
* ``UnaryPlus`` child -> MUST even inside an Or; ``UnaryMinus``/``Not`` -> MUST_NOT
  (excluded, never scored); a query with only MUST_NOT clauses matches nothing.
* ``MinimumMatch`` -> count-based disjunction (>= num clauses).
* ``Boost`` scales the clause score; ``Field`` re-routes the subtree's terms.
* ``Phrase`` -> exact adjacent positions; score = (sum of constituent term idfs) *
  bm25_tf(phrase_freq). ``Proximity`` -> ordered with each consecutive gap <= num
  (documented deviation: Lucene's sloppy phrase allows reordering; this engine and
  all its oracles use the ordered per-gap rule).
* ``Prefix``/``WildCard``/``TermRegex``/``Fuzzy``/``TermRange`` -> expand against
  the term dictionary (bounded by MAX_EXPANSIONS, like Lucene's maxClauseCount)
  and score as a sum of per-term BM25 (boolean rewrite; Lucene's default
  constant-score rewrite is intentionally not used so scores stay comparable
  across oracles).

BM25: k1=1.2, b=0.75, idf = ln(1 + (N - df + 0.5)/(df + 0.5)) with *global*
(cross-segment) N / avgdl / df, so per-segment scoring is rank-identical to a
single-index build. All math in float64, fixed clause order -> deterministic.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..analysis import DEFAULT_FIELD, tokenize
from ..query import nodes as qn

K1 = 1.2
B = 0.75
MAX_EXPANSIONS = 1024

EMPTY = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))


# ---------------------------------------------------------------------------
# Term-request collection (driver-side planning)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpansionSpec:
    """A dictionary-expansion request: resolved against every segment's term dict,
    then unioned globally so idf/df are consistent across segments."""

    field: str
    kind: str  # prefix | wildcard | regex | fuzzy | range
    args: tuple

    def matcher(self):
        if self.kind == "prefix":
            prefix = self.args[0]
            return lambda terms: np.char.startswith(terms.astype(str), prefix)
        if self.kind in ("wildcard", "regex"):
            pat = re.compile(self.args[0])
            return lambda terms: np.fromiter(
                (pat.fullmatch(t) is not None for t in terms), bool, len(terms)
            )
        if self.kind == "fuzzy":
            base, max_edits = self.args
            return lambda terms: np.fromiter(
                (levenshtein_within(base, t, max_edits) for t in terms),
                bool,
                len(terms),
            )
        if self.kind == "range":
            lower, upper, li, ui = self.args

            def match(terms):
                t = terms.astype(str)
                m = np.ones(len(t), dtype=bool)
                if lower is not None:
                    m &= (t >= lower) if li else (t > lower)
                if upper is not None:
                    m &= (t <= upper) if ui else (t < upper)
                return m

            return match
        raise ValueError(self.kind)

    def resolve_against(self, terms: np.ndarray) -> np.ndarray:
        """Matching terms from a SORTED term dictionary, using binary search
        instead of a full-vocabulary scan where the spec shape allows:

        * prefix / range -> O(log V) searchsorted window, no scan at all;
        * wildcard with a literal head (``foo*bar``) -> scan only the ``foo``
          prefix window;
        * fuzzy -> length prefilter (|len-len(base)| <= k) before the DP;
        * regex -> full scan (pattern heads are not reliably literal).
        """
        if terms.size == 0:
            return terms
        _HI = "\U0010ffff"
        if self.kind == "prefix":
            prefix = self.args[0]
            lo = np.searchsorted(terms, prefix, side="left")
            hi = np.searchsorted(terms, prefix + _HI, side="right")
            return terms[lo:hi]
        if self.kind == "range":
            lower, upper, li, ui = self.args
            lo = 0 if lower is None else np.searchsorted(
                terms, lower, side="left" if li else "right"
            )
            hi = terms.size if upper is None else np.searchsorted(
                terms, upper, side="right" if ui else "left"
            )
            return terms[lo:hi]
        if self.kind == "wildcard":
            # literal head of the regex: chars before the first metacharacter
            # (wildcard_to_regex only re.escape's literals, so an escaped char
            # is literal too)
            pat = self.args[0]
            head = []
            i = 0
            while i < len(pat):
                c = pat[i]
                if c == "\\" and i + 1 < len(pat):
                    head.append(pat[i + 1])
                    i += 2
                elif c.isalnum():
                    head.append(c)
                    i += 1
                else:
                    break
            sub = terms
            if head:
                prefix = "".join(head)
                lo = np.searchsorted(terms, prefix, side="left")
                hi = np.searchsorted(terms, prefix + _HI, side="right")
                sub = terms[lo:hi]
            return sub[self.matcher()(sub)]
        if self.kind == "fuzzy":
            base, max_edits = self.args
            lens = np.fromiter((len(t) for t in terms), np.int64, terms.size)
            cand = terms[np.abs(lens - len(base)) <= max_edits]
            return cand[self.matcher()(cand)] if cand.size else cand
        return terms[self.matcher()(terms)]


def levenshtein_within(a: str, b: str, k: int) -> bool:
    """Banded edit distance <= k (early-exit DP)."""
    if abs(len(a) - len(b)) > k:
        return False
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i] + [0] * len(b)
        best = cur[0]
        for j, cb in enumerate(b, 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb))
            best = min(best, cur[j])
        if best > k:
            return False
        prev = cur
    return prev[-1] <= k


def wildcard_to_regex(ops: Sequence[qn.WildCardOp]) -> str:
    parts = []
    for op in ops:
        if op is qn.SingleChar or isinstance(op, qn._SingleChar):
            parts.append(".")
        elif op is qn.ManyChar or isinstance(op, qn._ManyChar):
            parts.append(".*")
        else:
            parts.append(re.escape(op.value))
    return "".join(parts)


@dataclass
class TermRequests:
    exact: Set[Tuple[str, str]] = dc_field(default_factory=set)
    positional: Set[Tuple[str, str]] = dc_field(default_factory=set)
    expansions: Set[ExpansionSpec] = dc_field(default_factory=set)


def collect_term_requests(
    q: qn.Query, field: str = DEFAULT_FIELD, reqs: Optional[TermRequests] = None
) -> TermRequests:
    reqs = reqs if reqs is not None else TermRequests()
    if isinstance(q, qn.Term):
        toks = tokenize(q.value)  # analyzer may split e.g. 'first.last'
        for t in toks:
            reqs.exact.add((field, t))
            if len(toks) > 1:
                # eval routes a split Term through _phrase, which needs positions
                reqs.positional.add((field, t))
    elif isinstance(q, (qn.Phrase, qn.Proximity)):
        for t in tokenize(q.value):
            reqs.exact.add((field, t))
            reqs.positional.add((field, t))
    elif isinstance(q, qn.Prefix):
        reqs.expansions.add(ExpansionSpec(field, "prefix", (q.value.lower(),)))
    elif isinstance(q, qn.WildCard):
        reqs.expansions.add(
            ExpansionSpec(field, "wildcard", (wildcard_to_regex(q.ops).lower(),))
        )
    elif isinstance(q, qn.TermRegex):
        reqs.expansions.add(ExpansionSpec(field, "regex", (q.value,)))
    elif isinstance(q, qn.Fuzzy):
        edits = 2 if q.num is None else q.num
        reqs.expansions.add(ExpansionSpec(field, "fuzzy", (q.value.lower(), edits)))
    elif isinstance(q, qn.TermRange):
        reqs.expansions.add(
            ExpansionSpec(field, "range", (q.lower, q.upper, q.lower_inc, q.upper_inc))
        )
    elif isinstance(q, qn.Field):
        collect_term_requests(q.q, q.field, reqs)
    elif isinstance(q, (qn.Not, qn.Group, qn.UnaryPlus, qn.UnaryMinus)):
        collect_term_requests(q.q, field, reqs)
    elif isinstance(q, qn.Boost):
        collect_term_requests(q.q, field, reqs)
    elif isinstance(q, (qn.Or, qn.And, qn.MinimumMatch)):
        for c in q.qs:
            collect_term_requests(c, field, reqs)
    else:
        raise TypeError(f"unknown query node {q!r}")
    return reqs


# ---------------------------------------------------------------------------
# Global context + per-segment evaluation
# ---------------------------------------------------------------------------


@dataclass
class EvalContext:
    """Cross-segment-global stats; identical on every scorer -> identical scores."""

    n_docs: int
    avgdl: Dict[str, float]
    df: Dict[Tuple[str, str], int]
    expanded: Dict[ExpansionSpec, Tuple[str, ...]]

    def idf(self, field: str, term: str) -> float:
        df = self.df.get((field, term), 0)
        if df <= 0:
            return 0.0
        return math.log(1.0 + (self.n_docs - df + 0.5) / (df + 0.5))


def simple_term_of(
    q: qn.Query, field: str, boost: float = 1.0, _boosted: bool = False
) -> Optional[Tuple[str, str, float]]:
    """(field, term, boost) when q is a plain single-token term (possibly wrapped
    in Group/Field/Boost), else None — the shape eligible for conjunctive
    block-range pruning.

    NESTED Boost wrappers are rejected: eval scores them as sequential
    innermost-first multiplies, while the block-max paths apply the clause
    boost once inside `wand._bm25_exact` — (s*b1)*b2 != s*(b1*b2) in
    IEEE-754, so collapsing them could flip an equal-score tie-break.
    Falling back to the plain evaluator keeps the bit-identity contract
    unconditionally."""
    if isinstance(q, qn.Term):
        toks = tokenize(q.value)
        if len(toks) == 1:
            return (field, toks[0], boost)
        return None
    if isinstance(q, qn.Field):
        return simple_term_of(q.q, q.field, boost, _boosted)
    if isinstance(q, qn.Group):
        return simple_term_of(q.q, field, boost, _boosted)
    if isinstance(q, qn.Boost):
        if _boosted:
            return None
        return simple_term_of(q.q, field, boost * float(q.weight), True)
    return None


#: dictionary-expansion nodes: resolved against the term dictionaries, then
#: scored as a sum-of-BM25 union over ``EvalContext.expanded[spec]``
EXPANSION_NODES = (qn.Prefix, qn.WildCard, qn.TermRegex, qn.Fuzzy, qn.TermRange)


def _unwrap(
    q: qn.Query, field: str, also: tuple = ()
) -> Tuple[qn.Query, str, Tuple[float, ...]]:
    """Strip the Group/Boost/Field wrappers (plus any node types in ``also``)
    around ``q``. Returns (inner node, routed field, Boost weights
    outermost-first); a caller scaling a score by the weights applies them
    innermost-first — eval's nested-Boost multiply order, bit for bit."""
    weights: List[float] = []
    while isinstance(q, (qn.Group, qn.Boost, qn.Field) + also):
        if isinstance(q, qn.Boost):
            weights.append(float(q.weight))
        elif isinstance(q, qn.Field):
            field = q.field
        q = q.q
    return q, field, tuple(weights)


def _conjunctive_prune_plan(q: qn.Query, ctx: "EvalContext") -> Set[Tuple[str, str]]:
    """Exact-term keys to EXCLUDE from eager prefetch because the root-level
    conjunction will fetch them lazily with candidate block pruning."""
    q, field, _weights = _unwrap(q, DEFAULT_FIELD)
    if not isinstance(q, qn.And):
        return set()
    simples = []
    for c in q.qs:
        if isinstance(c, (qn.Not, qn.UnaryMinus, qn.UnaryPlus)):
            continue  # evaluated eagerly; keep their terms prefetched
        s = simple_term_of(c, field)
        if s is None:
            return set()  # mixed shapes: prefetch everything
        simples.append(s)
    if len(simples) < 2:
        return set()
    dfs = [ctx.df.get((f, t), 0) for f, t, _ in simples]
    anchor = int(np.argmin(dfs))
    return {(f, t) for i, (f, t, _b) in enumerate(simples) if i != anchor}


def bm25(idf, tf, dl, avgdl: float):
    """BM25 of term frequency ``tf`` in a doc of length ``dl``: the one
    kernel behind every score and every block bound of the serving path
    (the reference in oracle.py keeps its own). A bound passes ``boost *
    idf`` as ``idf`` and a block's max_tf and min_dl as ``tf`` and ``dl``;
    BM25 rises with tf and falls with dl, and one expression in one
    operation order makes every score, bound and tie the same wherever it
    is computed."""
    return idf * tf * (K1 + 1.0) / (tf + K1 * (1.0 - B + B * dl / avgdl))


def doc_scores(
    reader, ctx: "EvalContext", field: str, docs: np.ndarray, tfs: np.ndarray,
    idf: float,
) -> np.ndarray:
    """:func:`bm25` of each doc's tf at its length in ``reader``'s norms."""
    dl = reader.norms(field)[docs - reader.doc_base].astype(np.float64)
    return bm25(idf, tfs.astype(np.float64), dl, ctx.avgdl.get(field) or 1.0)


def intersect_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection of two sorted unique doc arrays without intersect1d's
    concatenate+sort: the smaller one probes the larger."""
    if a.size > b.size:
        a, b = b, a
    if a.size == 0:
        return a
    idx = np.clip(np.searchsorted(b, a), 0, b.size - 1)
    return a[b[idx] == a]


# positions of different docs are separated onto disjoint ranges of one global
# axis so the whole candidate set is processed in a handful of numpy passes
_DOC_STRIDE = np.int64(1) << np.int64(22)


def _global_positions(post: tuple, cand: np.ndarray) -> np.ndarray:
    """Concatenated positions of one term's (pruned) postings over the
    candidate docs, offset by candidate-index * _DOC_STRIDE (sorted ascending
    by construction)."""
    docs, tfs, pos = post
    offs = np.zeros(docs.size + 1, dtype=np.int64)
    np.cumsum(tfs, out=offs[1:])
    idx = np.searchsorted(docs, cand)
    lens = tfs[idx].astype(np.int64)
    starts = offs[idx]
    out_off = np.zeros(lens.size, dtype=np.int64)
    np.cumsum(lens[:-1], out=out_off[1:])
    total = int(lens.sum())
    gather = np.repeat(starts - out_off, lens) + np.arange(total, dtype=np.int64)
    doc_rep = np.repeat(np.arange(lens.size, dtype=np.int64), lens)
    return doc_rep * _DOC_STRIDE + pos[gather]


def _match_freqs(posts: list, cand: np.ndarray, gap: int) -> np.ndarray:
    """Phrase frequency per candidate doc: backward reachability DP over ALL
    candidate docs at once. ``chain`` holds the global positions of term_i
    that can complete a chain to the last term with every consecutive gap <=
    ``gap``; freq(doc) = count of START positions with a feasible chain
    (greedy-next is NOT existence-optimal under a per-gap bound, so full
    frontiers are kept). The doc stride guarantees chains never cross
    documents (gap + 1 << stride)."""
    glob = [_global_positions(p, cand) for p in posts]
    chain = glob[-1]
    for i in range(len(glob) - 2, -1, -1):
        pos_i = glob[i]
        idx = np.searchsorted(chain, pos_i, side="right")
        ok = idx < chain.size
        ok[ok] &= (chain[idx[ok]] - pos_i[ok] - 1) <= gap
        chain = pos_i[ok]
        if chain.size == 0:
            return np.zeros(cand.size, dtype=np.int64)
    return np.bincount((chain // _DOC_STRIDE).astype(np.int64), minlength=cand.size)


def phrase_scores(
    reader, ctx: "EvalContext", field: str, terms: Sequence[str], gap: int,
    cand: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """The docs of ``cand`` (sorted, unique) that hold the phrase or
    proximity ``terms`` ~ ``gap``, and their BM25 of the phrase frequency
    under the sum of the terms' idfs. Positions are decoded only for the
    blocks that overlap ``cand``."""
    got = reader.postings_many(field, terms, want_positions=True, candidates=cand)
    posts = [got.get(t) for t in terms]
    if any(p is None or p[0].size == 0 or p[2] is None for p in posts):
        return EMPTY
    freqs = _match_freqs(posts, cand, gap)
    hit = freqs > 0
    if not hit.any():
        return EMPTY
    docs = cand[hit]
    idf_sum = sum(ctx.idf(field, t) for t in terms)
    return docs, doc_scores(reader, ctx, field, docs, freqs[hit], idf_sum)


class SegmentEval:
    """Evaluates one AST against one segment with prefetched postings."""

    def __init__(
        self,
        reader,
        ctx: EvalContext,
        reqs: TermRequests,
        query: Optional[qn.Query] = None,
    ):
        self.reader = reader
        self.ctx = ctx
        self._cache: Dict[Tuple[str, str], tuple] = {}
        self._lazy = _conjunctive_prune_plan(query, ctx) if query is not None else set()
        self._prefetch(reqs)

    def _prefetch(self, reqs: TermRequests) -> None:
        """Eagerly fetch DOCS-ONLY postings for every requested term (positions
        included) — phrase/proximity evaluation intersects the doc lists first
        and then fetches positions only for candidate-overlapping blocks
        (decoding full positional streams of hot terms dominated phrase cost)."""
        by_field: Dict[str, Set[str]] = {}
        for f, t in reqs.exact:
            if (f, t) in self._lazy:
                continue  # fetched later with candidate block pruning
            by_field.setdefault(f, set()).add(t)
        for f, t in reqs.positional:
            by_field.setdefault(f, set()).add(t)
        for spec, terms in self.ctx.expanded.items():
            by_field.setdefault(spec.field, set()).update(terms)
        for f, terms in by_field.items():
            got = self.reader.postings_many(f, sorted(terms), want_positions=False)
            for t in terms:
                self._cache[(f, t)] = got.get(t, (EMPTY[0], EMPTY[0], None))

    # ---- scoring primitives ----

    def _term(
        self, field: str, term: str, candidates: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        post = self._cache.get((field, term))
        if post is None:
            got = self.reader.postings_many(
                field, [term], want_positions=False, candidates=candidates
            )
            post = got.get(term, (EMPTY[0], EMPTY[0], None))
            self._cache[(field, term)] = post
        docs, tfs, _ = post
        if docs.size == 0:
            return EMPTY
        return docs, doc_scores(
            self.reader, self.ctx, field, docs, tfs, self.ctx.idf(field, term))

    def _multi_term(
        self, field: str, terms: Sequence[str]
    ) -> Tuple[np.ndarray, np.ndarray]:
        results = [self._term(field, t) for t in terms]
        results = [r for r in results if r[0].size]
        if not results:
            return EMPTY
        docs, scores, _ = _union(results)
        return docs, scores

    # ---- positional ----

    def _phrase(
        self, field: str, text: str, gap: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        terms = tokenize(text)
        if not terms:
            return EMPTY
        if len(terms) == 1:
            return self._term(field, terms[0])
        # 1) docs-only intersection (cheap; positions never decoded for docs
        #    that can't possibly match)
        plain = []
        for t in terms:
            p = self._cache.get((field, t))
            if p is None:
                p = self.reader.postings_many(field, [t]).get(
                    t, (EMPTY[0], EMPTY[0], None)
                )
                self._cache[(field, t)] = p
            plain.append(p)
        if any(p[0].size == 0 for p in plain):
            return EMPTY
        cand = plain[0][0]
        for p in plain[1:]:
            cand = intersect_sorted(cand, p[0])
            if cand.size == 0:
                return EMPTY
        # 2) positions of the candidates' blocks only, then the phrase DP
        return phrase_scores(self.reader, self.ctx, field, terms, gap, cand)

    # ---- boolean algebra ----

    def eval(self, q: qn.Query, field: str = DEFAULT_FIELD):
        """Returns (sorted doc_ids, scores); pure-negative nodes return empty."""
        if isinstance(q, qn.Term):
            terms = tokenize(q.value)
            if not terms:
                return EMPTY
            if len(terms) == 1:
                return self._term(field, terms[0])
            # analyzer split a punctuated term -> behave like a phrase (Lucene-style)
            return self._phrase(field, q.value, 0)
        if isinstance(q, qn.Phrase):
            return self._phrase(field, q.value, 0)
        if isinstance(q, qn.Proximity):
            return self._phrase(field, q.value, max(0, q.num))
        if isinstance(q, EXPANSION_NODES):
            spec = _spec_for(q, field)
            terms = self.ctx.expanded.get(spec, ())
            return self._multi_term(field, terms)
        if isinstance(q, qn.Field):
            return self.eval(q.q, q.field)
        if isinstance(q, qn.Group):
            return self.eval(q.q, field)
        if isinstance(q, qn.Boost):
            docs, scores = self.eval(q.q, field)
            return docs, scores * float(q.weight)
        if isinstance(q, qn.UnaryPlus):
            return self.eval(q.q, field)
        if isinstance(q, (qn.Not, qn.UnaryMinus)):
            return EMPTY  # pure-negative matches nothing on its own
        if isinstance(q, qn.And):
            return self._bool(q.qs, field, conjunctive=True)
        if isinstance(q, qn.Or):
            return self._bool(q.qs, field, conjunctive=False)
        if isinstance(q, qn.MinimumMatch):
            return self._minimum_match(q, field)
        raise TypeError(f"unknown query node {q!r}")

    def _split_clauses(self, qs, field):
        must, should, must_not = [], [], []
        for c in qs:
            if isinstance(c, (qn.Not, qn.UnaryMinus)):
                must_not.append(self.eval(c.q, field))
            elif isinstance(c, qn.UnaryPlus):
                must.append(self.eval(c.q, field))
            else:
                should.append((c, None))
        return must, should, must_not

    def _bool(self, qs, field, conjunctive: bool):
        must, should_nodes, must_not = self._split_clauses(qs, field)
        if conjunctive:
            should = []
            must = must + self._eval_conjunctive(should_nodes, field, must)
            if must and any(m[0].size == 0 for m in must):
                return EMPTY
        else:
            should = [self.eval(c, field) for c, _ in should_nodes]
        if not must and not should:
            return EMPTY  # pure negative
        if must:
            docs = must[0][0]
            for m in must[1:]:
                docs = intersect_sorted(docs, m[0])
                if docs.size == 0:
                    return EMPTY
            scores = np.zeros(docs.size, dtype=np.float64)
            for m_docs, m_scores in must:
                scores += m_scores[_positions_in(m_docs, docs)]
            for s_docs, s_scores in should:
                if s_docs.size == 0:
                    continue
                idx = np.searchsorted(s_docs, docs)
                idx_c = np.clip(idx, 0, s_docs.size - 1)
                hit = s_docs[idx_c] == docs
                scores[hit] += s_scores[idx_c[hit]]
        else:
            live = [s for s in should if s[0].size]
            if not live:
                return EMPTY
            docs, scores, _ = _union(live)
        return self._apply_must_not(docs, scores, must_not)

    def _eval_conjunctive(self, should_nodes, field, prior_must):
        """Evaluate conjunctive children; when all are simple terms, fetch them in
        ascending-df order with candidate block pruning (exact: pruned blocks
        contain no doc that could satisfy the conjunction)."""
        if not should_nodes:
            return []
        simples = [simple_term_of(c, field) for c, _ in should_nodes]
        if any(s is None for s in simples) or len(simples) + len(prior_must) < 2:
            return [self.eval(c, field) for c, _ in should_nodes]
        dfs = [self.ctx.df.get((f, t), 0) for f, t, _ in simples]
        if min(dfs) == 0:
            return [(EMPTY[0], EMPTY[1])]  # a required term is absent anywhere
        order = np.argsort(dfs, kind="stable")
        cand = prior_must[0][0] if prior_must else None
        results: List[Optional[tuple]] = [None] * len(simples)
        for i in order:
            f, t, boost = simples[i]
            docs, scores = self._term(f, t, candidates=cand)
            if boost != 1.0:
                scores = scores * boost
            results[i] = (docs, scores)
            if docs.size == 0:
                return [(EMPTY[0], EMPTY[1])]
            cand = docs if cand is None else intersect_sorted(cand, docs)
            if cand.size == 0:
                return [(EMPTY[0], EMPTY[1])]
        return results

    def _minimum_match(self, q: qn.MinimumMatch, field: str):
        must_not = []
        results = []
        for c in q.qs:
            if isinstance(c, (qn.Not, qn.UnaryMinus)):
                must_not.append(self.eval(c.q, field))
            else:
                results.append(self.eval(c, field))
        live = [r for r in results if r[0].size]
        if not live or q.num > len(results):
            return EMPTY
        docs, scores, counts = _union(live)
        keep = counts >= max(q.num, 1)
        return self._apply_must_not(docs[keep], scores[keep], must_not)

    def _apply_must_not(self, docs, scores, must_not):
        if docs.size == 0 or not must_not:
            return docs, scores
        excl = np.unique(np.concatenate([m[0] for m in must_not])) if must_not else None
        if excl is None or excl.size == 0:
            return docs, scores
        idx = np.searchsorted(excl, docs)
        idx_c = np.clip(idx, 0, excl.size - 1)
        bad = excl[idx_c] == docs
        return docs[~bad], scores[~bad]


def _spec_for(q: qn.Query, field: str) -> ExpansionSpec:
    r = collect_term_requests(q, field)
    assert len(r.expansions) == 1
    return next(iter(r.expansions))


def _positions_in(haystack: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """Indices of ``needles`` in sorted ``haystack`` (all must be present)."""
    return np.searchsorted(haystack, needles)


#: doc-span ceiling for the dense union accumulators in `_union` and
#: wand._merge_top_k (float64 + count per slot: 32M docs = ~320 MB transient).
#: Beyond it — e.g. a billion-doc segment with a skewed union — the sparse
#: unique+add.at path is kept.
DENSE_MERGE_MAX_SPAN = 32 << 20


def _union(results: List[Tuple[np.ndarray, np.ndarray]]):
    live = [r for r in results if r[0].size]
    if not live:
        docs = np.concatenate([r[0] for r in results]) if results else EMPTY[0]
        return docs, np.zeros(0, np.float64), np.zeros(0, np.int64)
    total = sum(r[0].size for r in live)
    lo = min(int(r[0].min()) for r in live)
    hi = max(int(r[0].max()) for r in live)
    span = hi - lo + 1
    if 0 < span <= 2 * total + 4096 and span <= DENSE_MERGE_MAX_SPAN:
        # dense accumulator for hot unions (same gate + exactness argument as
        # wand._merge_top_k: docs unique within a clause result, clauses
        # accumulate in list order, so per-doc float addition order matches
        # the sparse add.at-over-concat path bit for bit)
        s = np.zeros(span, dtype=np.float64)
        c = np.zeros(span, dtype=np.int64)
        for d, sc in live:
            idx = d - lo
            s[idx] += sc
            c[idx] += 1
        qual = np.flatnonzero(c)
        return qual + lo, s[qual], c[qual]
    docs = np.concatenate([r[0] for r in live])
    scores = np.concatenate([r[1] for r in live])
    ud, inv = np.unique(docs, return_inverse=True)
    s = np.zeros(ud.size, dtype=np.float64)
    np.add.at(s, inv, scores)
    c = np.zeros(ud.size, dtype=np.int64)
    np.add.at(c, inv, 1)
    return ud, s, c


def top_k(docs: np.ndarray, scores: np.ndarray, k: int):
    """Top-k by (score desc, doc_id asc) — the deterministic tie-break.

    Exact under ties: keep *every* doc whose score >= the k-th score, then lexsort
    that candidate set (so equal-score docs compete on doc_id, never on partition
    order).
    """
    if docs.size == 0:
        return docs, scores
    if docs.size > k:
        # ascending partition read from the tail == k-th largest, without the
        # two negation copies -np.partition(-scores, ...) allocates (those
        # were ~50 ms per hot-OR query at 10M)
        kth = np.partition(scores, docs.size - k)[docs.size - k]
        mask = scores >= kth
        cand_docs, cand_scores = docs[mask], scores[mask]
    else:
        cand_docs, cand_scores = docs, scores
    order = np.lexsort((cand_docs, -cand_scores))[:k]
    return cand_docs[order], cand_scores[order]
