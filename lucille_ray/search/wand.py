"""Block-max WAND top-k for disjunctive queries (north_star: "block-max WAND
top-k BM25 scoring").

Vectorized block-at-a-time variant of Broder et al.'s WAND / Ding & Suel's
block-max WAND, adapted to this engine's exact-score contract: score-skipping
must NEVER change the returned top-k ranks or scores, only avoid work.

Per segment, for a query that is a pure disjunction of single-token terms
(possibly boosted / field-routed — the OR-heavy shape where term-at-a-time
evaluation decodes and scores every posting of every term):

1. fetch raw posting BLOCKS (metadata ``first_doc/last_doc/max_tf`` + undecoded
   varint payloads) for every term;
2. bootstrap a threshold θ: fully decode terms in decreasing block-max-impact
   order (rarest/highest-impact first — cheap) until the decoded union has ≥ k
   docs; θ = k-th best partial score (a LOWER bound on the final k-th score,
   since adding more terms only raises scores);
3. per-block BM25 upper bound σ(block) = boost · idf · (k1+1)·max_tf /
   (max_tf + k1·(1−b+b·min_dl/avgdl)) with the block's stored ``min_dl``, a
   lower bound on the lengths of its docs (BM25 decreases with dl, so a
   smaller dl only loosens the bound);
4. one event sweep over all blocks' doc ranges yields the piecewise-constant
   upper bound Σσ per doc interval; intervals with bound < θ−ε are pruned —
   every block fully inside pruned intervals is never decoded;
5. decode the surviving blocks, score exactly, merge with the bootstrap terms'
   exact scores, take top-k.

Exactness: a doc d in the final top-k has score(d) ≥ k-th final ≥ θ, and its
interval bound ≥ score(d) (each term's block bound dominates its contribution),
so d's interval — and therefore every block containing d — survives, giving d
its complete, exact score. Pruned docs have bound < θ ≤ k-th final and cannot
enter the top-k; partially-scored stragglers (docs of decoded bootstrap terms
in pruned intervals) carry scores ≤ bound < θ and rank strictly below the true
top-k. ε guards float-associativity noise between the bound sum and the score
sum. ``tests/test_wand.py`` asserts rank+score identity vs the plain evaluator
over the full QUERY_SET shapes and randomized corpora.

The module also holds :func:`block_max_pass`, the one θ loop of the
single-anchor executors (:func:`single_term_top_k`, bmconj.py, bmphrase.py):
blocks in upper-bound order against a running k-th-best threshold. No
executor keeps its answer: the per-segment answer cache is
``SegmentScorer.score``'s ``result`` pool, so a scorer built with
``result_cache=False`` runs an executor on every call.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from ..analysis import DEFAULT_FIELD, tokenize
from ..index.segment import overlap_mask
from ..query import nodes as qn
from .eval import (
    DENSE_MERGE_MAX_SPAN,
    EMPTY,
    EXPANSION_NODES,
    EvalContext,
    _spec_for,
    _unwrap,
    bm25,
    doc_scores,
    simple_term_of,
    top_k,
)

#: absolute slack subtracted from θ before interval pruning (scores are O(1-100);
#: float noise between bound-sum and score-sum is ~1e-12)
THETA_EPS = 1e-6

#: decoded terms with at most this many postings enter the candidate sweep as
#: exact per-doc point events; larger ones fall back to block-range bounds so
#: the sweep stays O(#blocks) even when the bootstrap had to decode a hot term
POINT_EVENT_CAP = 8192

#: diagnostics: outcome of the most recent _suffix_merge in this process
#: ({"early": bool, "n": parts}) — written for tests/profiling only
SUFFIX_MERGE_LAST: Optional[dict] = None


def _expansion_terms(q: qn.Query, field: str, ctx: Optional[EvalContext]):
    """The resolved terms of a dictionary-expansion node (tuple order — the
    order eval's boolean rewrite sums them in), or None for any other node."""
    if ctx is None or not isinstance(q, EXPANSION_NODES):
        return None
    return ctx.expanded.get(_spec_for(q, field), ())


def wand_parts(
    q: qn.Query, ctx: Optional[EvalContext] = None
) -> Optional[Tuple[dict, Tuple[float, ...]]]:
    """Match the disjunction shapes :func:`wand_top_k` serves, under any
    (Group/Boost/Field)* wrapper:

    * an Or or a MinimumMatch whose children are all simple single-token
      terms — m is 1 for Or, ``q.num`` for MinimumMatch (Query.scala:270-277's
      ``(a b c)@2``). Duplicate terms fall back (eval sums / counts duplicate
      clauses separately);
    * a dictionary expansion (Prefix / WildCard / TermRegex / Fuzzy /
      TermRange) that resolved to 2 or more terms: eval's boolean rewrite
      scores it as a sum-of-BM25 union over ``ctx.expanded[spec]`` IN TUPLE
      ORDER with per-term boost 1 — exactly the m=1 contract, whose merge
      accumulates in the same parts order (ties break identically).

    Returns ({"parts": (field, term, boost) list, "m": m}, root Boost weights
    outermost-first) or None. Non-positive boosts flip the bound direction
    and fall back."""
    q, field, weights = _unwrap(q, DEFAULT_FIELD)
    if math.prod(weights) <= 0:
        return None
    expanded = _expansion_terms(q, field, ctx)
    if expanded is not None:
        if len(expanded) < 2:
            return None  # empty/singleton expansions: see term_parts
        return {"parts": [(field, t, 1.0) for t in expanded], "m": 1}, weights
    if isinstance(q, qn.Or):
        clauses, m = q.qs, 1
    elif isinstance(q, qn.MinimumMatch):
        # eval treats num <= 0 as 1 and num > len(qs) as unsatisfiable; the
        # latter is handled in wand_top_k so the EMPTY short-circuit matches
        clauses, m = q.qs, max(int(q.num), 1)
    else:
        return None
    if len(clauses) < 2:
        return None
    parts: List[Tuple[str, str, float]] = []
    seen = set()
    for c in clauses:
        s = simple_term_of(c, field)
        if s is None or s[2] <= 0 or s[:2] in seen:
            return None
        seen.add(s[:2])
        parts.append(s)
    return {"parts": parts, "m": m}, weights


def term_parts(
    q: qn.Query, ctx: EvalContext
) -> Optional[Tuple[dict, Tuple[float, ...]]]:
    """Match the single-term shapes :func:`single_term_top_k` serves, under
    any (Group/Boost/Field)* wrapper: a bare single-token Term, or a
    dictionary expansion that resolved to exactly ONE index term. The plain
    evaluator fully decodes AND fully BM25-scores that term per query (a hot
    term at 10M is a 2.5M-row `doc_scores` per segment, ~180 ms warm); on a
    synthetic vocabulary the one-term expansion is the COMMON case (``dat*``,
    ``d?ta``, ``data~1`` all collapse to ``data``), and eval scores it as
    BM25(term) with boost 1 — the same contract.

    Returns ({"field", "term"}, root Boost weights outermost-first) or None.
    Pruning ranks by UNBOOSTED scores, which matches the final order only
    under a positive total scale — non-positive products fall back."""
    q, field, weights = _unwrap(q, DEFAULT_FIELD)
    expanded = _expansion_terms(q, field, ctx)
    if expanded is not None:
        terms = expanded
    elif isinstance(q, qn.Term):
        terms = tokenize(q.value)
    else:
        return None
    if len(terms) != 1 or math.prod(weights) <= 0:
        return None
    if ctx.idf(field, terms[0]) <= 0.0:
        return None  # mirror wand_top_k's guard; plain eval handles it
    return {"field": field, "term": terms[0]}, weights


#: first round, in blocks, of single_term_top_k's block-max pass
TERM_CHUNK0 = 16


def _bm25_bound(idf, max_tf, min_dl, avgdl: float, boost: float = 1.0):
    """Per-block BM25 upper bound: eval's :func:`bm25` at (max_tf, min_dl)
    under ``boost * idf``, so it is >= the score of every doc in a block
    whose stored max_tf and min_dl these are (``1.0 * idf == idf``, so the
    unboosted bound is bit-identical to the bare kernel)."""
    return bm25(boost * idf, max_tf, min_dl, avgdl)


def block_max_pass(
    ub: np.ndarray, k: int, process, chunk0: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact top-k over one segment's blocks taken in upper-bound order
    against a running k-th-best threshold θ: the one θ loop of the term,
    conjunction and phrase executors.

    ``ub[b]`` bounds the score of every match in block ``b`` (−inf: block b
    holds no match); ``process(keep)`` scores every match in the blocks a
    boolean mask selects, as (docs, scores). Each match must live in exactly
    one block. A FLAT bound (fewer than half the blocks sit below the
    maximum) cannot prune, so one round takes every block. Otherwise rounds
    of ``chunk0``, doubling, take blocks in bound order until k matches pool;
    θ is their k-th best score (a lower bound on the final k-th), and ONE
    more round takes every remaining block whose bound reaches θ − ε. A
    skipped match scores at most its block's bound < θ − ε, strictly below
    the final k-th, so it cannot enter the top-k even by tie-break. One
    survivor round instead of a θ-refining loop: rounds are bound-ordered,
    not doc-contiguous, so every extra round re-decodes the other terms'
    overlapping blocks."""
    live = np.flatnonzero(ub > -np.inf)
    if not live.size:
        return EMPTY
    order = live[np.argsort(-ub[live], kind="stable")]
    pool_docs: List[np.ndarray] = []
    pool_scores: List[np.ndarray] = []

    def run(blocks: np.ndarray) -> int:
        keep = np.zeros(ub.size, dtype=bool)
        keep[blocks] = True
        docs, scores = process(keep)
        if docs.size:
            pool_docs.append(docs)
            pool_scores.append(scores)
        return docs.size

    bounds = ub[order]
    if np.mean(bounds < bounds[0] - THETA_EPS) < 0.5:
        run(order)
    else:
        pos, chunk, pooled = 0, chunk0, 0
        while pos < order.size and pooled < k:
            pooled += run(order[pos: pos + chunk])
            pos += chunk
            chunk *= 2
        rest = order[pos:]
        if rest.size:
            theta = float(-np.partition(-np.concatenate(pool_scores), k - 1)[k - 1])
            surv = rest[ub[rest] >= theta - THETA_EPS]
            if surv.size:
                run(surv)
    if not pool_docs:
        return EMPTY
    return top_k(np.concatenate(pool_docs), np.concatenate(pool_scores), k)


def single_term_top_k(
    reader, ctx: EvalContext, field: str, term: str, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact top-k of one term over one segment by a :func:`block_max_pass`
    over its blocks, each bounded by `_bm25_bound`; scores are unboosted
    (the caller applies Boost weights innermost-first like eval). When the
    term's full decoded postings and scores are already cached (an earlier
    plain eval of it), the top-k comes from them with zero decodes."""
    rb = reader.raw_blocks_many(field, [term]).get(term)
    if rb is None or not len(rb):
        return EMPTY
    post = reader.cache.get("post", (field, term, False))
    base = reader.cache.get("score", (field, term))
    if post is not None and base is not None:
        return top_k(post[0], base, k)
    ub = _bm25_bound(ctx.idf(field, term), rb.max_tf, rb.min_dl, ctx.avgdl.get(field) or 1.0)

    def process(keep: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        docs, tfs, _ = reader.decode(rb, keep)
        return docs, _bm25_exact(reader, ctx, field, term, 1.0, docs, tfs)

    return block_max_pass(ub, k, process, TERM_CHUNK0)


def _bm25_exact(reader, ctx: EvalContext, field: str, term: str, boost: float,
                docs: np.ndarray, tfs: np.ndarray, *, full: bool = False) -> np.ndarray:
    """eval's :func:`doc_scores` followed by eval's Boost scaling — the
    plain evaluator's scores bit for bit, so ties break identically.

    ``full=True`` marks docs/tfs as the term's COMPLETE posting list; the
    unboosted scores are then memoized in the ``score`` pool (idf/avgdl are
    global, per-index constants, so cached base scores are exact across
    queries)."""
    base = reader.cache.get("score", (field, term)) if full else None
    if base is None:
        base = doc_scores(reader, ctx, field, docs, tfs, ctx.idf(field, term))
        if full:
            reader.cache.put("score", (field, term), base)
    if boost != 1.0:
        return base * boost
    return base


def wand_top_k(
    reader, ctx: EvalContext, parts: List[Tuple[str, str, float]], k: int,
    m: int = 1,
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact top-k of a disjunction (m=1) or m-of-n MinimumMatch (m>1) of
    simple terms over one segment, decoding only blocks whose doc interval can
    beat the bootstrap threshold AND is covered by >= m term ranges.

    The m>1 path needs no θ: it decodes the n-(m-1) smallest posting lists as
    an exact candidate superset and prunes the large terms' blocks against the
    candidate doc positions (see :func:`_minmatch_top_k`)."""
    if m > len(parts):
        return EMPTY  # mirrors SegmentEval._minimum_match's num > len(qs) case
    by_field: dict = {}
    for field, term, boost in parts:
        by_field.setdefault(field, []).append(term)
    raw = {
        (f, t): blocks
        for f, ts in by_field.items()
        for t, blocks in reader.raw_blocks_many(f, ts).items()
    }

    terms_meta = []  # (field, term, boost, rb, firsts, lasts, ub_blocks)
    for field, term, boost in parts:
        idf = ctx.idf(field, term)
        if idf <= 0.0:
            continue
        rb = raw.get((field, term))
        if rb is None or not len(rb):
            continue
        ub = _bm25_bound(idf, rb.max_tf, rb.min_dl, ctx.avgdl.get(field) or 1.0, boost)
        terms_meta.append((field, term, boost, rb, rb.firsts, rb.lasts, ub))
    if len(terms_meta) < m:
        return EMPTY  # terms absent from the index can never supply m matches

    if m > 1:
        return _minmatch_top_k(reader, ctx, terms_meta, k, m)

    # per-part max-score upper bounds, free from the block metadata — lets
    # the wide suffix-bound merge skip re-scanning every score array
    part_ubs = {i: float(t[6].max()) for i, t in enumerate(terms_meta)}

    # ---- bootstrap θ: decode highest-impact terms until >= k docs seen,
    # then keep decoding CHEAP terms. A sparse term's 128-posting block can
    # straddle most of the segment, so leaving it undecoded poisons the
    # interval sweep with a segment-wide upper bound while its decode costs
    # microseconds — the wide-dictionary-expansion failure shape (many rare
    # terms + one hot term: nothing ever pruned). Cheap = at most
    # POINT_EVENT_CAP postings AND at most a quarter of the largest term
    # (so a merely-warm term in a hot-vs-warm OR is still pruned, not paid).
    impact_order = sorted(
        range(len(terms_meta)), key=lambda i: -float(terms_meta[i][6].max())
    )
    sizes = [int(t[3].ns.sum()) for t in terms_meta]
    cheap_cap = min(POINT_EVENT_CAP, max(sizes) // 4)
    decoded: dict = {}  # index -> (docs, scores)
    seen_docs = 0
    theta = -np.inf
    for i in impact_order:
        if seen_docs >= k and sizes[i] > cheap_cap:
            continue
        field, term, boost, *_ = terms_meta[i]
        docs, tfs, _ = reader.postings(field, term)
        scores = _bm25_exact(reader, ctx, field, term, boost, docs, tfs, full=True)
        decoded[i] = (docs, scores)
        seen_docs += docs.size
    if seen_docs >= k:
        # θ = exact k-th best partial sum over ALL decoded terms (a lower
        # bound on the final k-th score — adding terms only raises scores)
        if len(decoded) == 1:
            # single decoded term: its docs are already unique — no union needed
            sums = next(iter(decoded.values()))[1]
        else:
            pdocs = np.concatenate([decoded[j][0] for j in decoded])
            pscores = np.concatenate([decoded[j][1] for j in decoded])
            ud, inv = np.unique(pdocs, return_inverse=True)
            sums = np.zeros(ud.size, dtype=np.float64)
            np.add.at(sums, inv, pscores)
        if sums.size >= k:
            theta = float(-np.partition(-sums, k - 1)[k - 1])

    undecoded = [i for i in range(len(terms_meta)) if i not in decoded]
    results = dict(decoded)
    if not undecoded or not np.isfinite(theta):
        # nothing to prune against (or with): decode everything
        for i in undecoded:
            field, term, boost, *_ = terms_meta[i]
            docs, tfs, _ = reader.postings(field, term)
            results[i] = (
                docs,
                _bm25_exact(reader, ctx, field, term, boost, docs, tfs, full=True),
            )
        return _merge_top_k(results, k, ubs=part_ubs)

    # ---- event sweep: piecewise-constant upper bound over doc ranges ----
    # Bootstrap-decoded terms contribute their EXACT per-doc scores as point
    # intervals [d, d+1) instead of block-range upper bounds: a rare term's
    # 128-posting block can span most of a segment (especially after piece
    # compaction merges its fragments), and a block-range bound would then
    # lift every other term's blocks above θ — while its true contribution
    # is zero between its docs. Exactness is unchanged (the bound at any doc
    # still dominates the true score); hot decoded terms past the cap fall
    # back to block ranges to keep the sweep O(#blocks), not O(df).
    xs_parts: list = []
    delta_parts: list = []
    for i, t in enumerate(terms_meta):
        hit = decoded.get(i)
        if hit is not None and hit[0].size <= POINT_EVENT_CAP:
            d, s = hit
            xs_parts += [d, d + 1]
            delta_parts += [s, -s]
        else:
            xs_parts += [t[4], t[5] + 1]
            delta_parts += [t[6], -t[6]]
    xs = np.concatenate(xs_parts)
    deltas = np.concatenate(delta_parts)
    order = np.argsort(xs, kind="stable")
    xs_s = xs[order]
    # collapse events sharing a doc coordinate: duplicates would otherwise
    # emit zero-width [x, x) intervals that are EMPTY but still pass the
    # block-overlap test in _decode_candidates, inflating survivals
    uniq_idx = np.flatnonzero(
        np.concatenate([[True], xs_s[1:] != xs_s[:-1]])
    )
    xs_s = xs_s[uniq_idx]
    bound = np.cumsum(np.add.reduceat(deltas[order], uniq_idx))
    keep = bound >= theta - THETA_EPS
    # candidate intervals [xs_s[i], xs_s[i+1]) where keep[i]; merge adjacent
    if not keep.any():
        return _merge_top_k(results, k, ubs=part_ubs)
    cand_lo, cand_hi = _interval_bounds(xs_s, keep)

    for i in undecoded:
        got = _decode_candidates(reader, ctx, terms_meta[i], cand_lo, cand_hi)
        if got is not None:
            results[i] = got
    # restrict every term's contribution to docs inside surviving intervals
    # BEFORE the union merge: a doc outside every interval has bound < θ−ε,
    # strictly below the final k-th score, so dropping it cannot change the
    # top-k — and the O(Σdf) unique+add.at merge was the warm-path floor for
    # wide expansions (decode is cached; the union wasn't). Restriction is an
    # optimization, not a correctness step (unrestricted docs merge to sums
    # below θ and lose in top_k), so when the surviving intervals COVER most
    # of the doc range (flat hot x hot bounds: fragmented but near-total) the
    # per-term searchsorted costs more than the rows it would drop — skip.
    covered = float((cand_hi - cand_lo).sum())
    span = float(cand_hi[-1] - cand_lo[0]) if cand_hi.size else 0.0
    if span <= 0 or covered < 0.6 * span:
        results = {
            i: _restrict_to_intervals(r, cand_lo, cand_hi)
            for i, r in results.items()
        }
    return _merge_top_k(results, k, ubs=part_ubs)


def _restrict_to_intervals(
    r: Tuple[np.ndarray, np.ndarray], cand_lo: np.ndarray, cand_hi: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Keep only (doc, score) pairs whose doc lies in some [lo, hi) interval.
    A kept doc keeps EVERY term's contribution (restriction is by doc, not by
    term), so candidate sums — and therefore ranks, scores, and ties — are
    unchanged."""
    docs, scores = r
    if docs.size == 0:
        return r
    if (
        cand_lo.size == 1
        and cand_lo[0] <= docs[0]
        and docs[-1] < cand_hi[0]
    ):
        # one interval covering the whole list (the flat hot x hot case:
        # nothing prunable) — skip the 2x searchsorted over millions of docs
        return r
    ok = overlap_mask(docs, docs, cand_lo, cand_hi)
    if ok.all():
        return r
    return docs[ok], scores[ok]


def _interval_bounds(xs_s: np.ndarray, keep: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Merge adjacent kept events into candidate [lo, hi) doc intervals."""
    starts = np.flatnonzero(keep & ~np.concatenate([[False], keep[:-1]]))
    ends = np.flatnonzero(keep & ~np.concatenate([keep[1:], [False]]))
    cand_lo = xs_s[starts]
    cand_hi = np.where(ends + 1 < xs_s.size, xs_s[ends + 1], np.iinfo(np.int64).max)
    return cand_lo, cand_hi


def _decode_candidates(
    reader, ctx: EvalContext, tm: tuple, cand_lo: np.ndarray, cand_hi: np.ndarray
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Decode one term's blocks that overlap the candidate intervals (None when
    none do), preferring the reader's full-postings cache."""
    field, term, boost, rb, firsts, lasts, _ub = tm
    hit = reader.cache.get("post", (field, term, False))
    if hit is not None:
        # already decoded by an earlier query: scoring the full cached list
        # is cheaper than selective decode, and stays exact (docs outside
        # candidate intervals score below θ / match fewer than m terms)
        docs, tfs = hit[0], hit[1]
        full = True
    else:
        ok = overlap_mask(firsts, lasts, cand_lo, cand_hi)
        if not ok.any():
            return None
        full = ok.mean() > 0.5
        if full:
            # most blocks survive: decode fully and CACHE so repeat queries
            # in this pinned scorer become cache hits (the skip saves little)
            docs, tfs, _ = reader.postings(field, term)
        else:
            docs, tfs, _ = reader.decode(rb, ok)
    return (
        docs,
        _bm25_exact(reader, ctx, field, term, boost, docs, tfs, full=full),
    )


def _minmatch_top_k(
    reader, ctx: EvalContext, terms_meta: list, k: int, m: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact m-of-n top-k via small-set candidate generation: decode the
    n-(m-1) smallest posting lists fully — a doc matching none of them can
    match at most m-1 terms, so their doc union is a SUPERSET of every
    qualifying doc — then decode each remaining (large) term only for blocks
    whose doc range contains a candidate. A qualifying doc is a candidate, so
    every block holding one survives and its count and score stay complete;
    non-candidates observe at most m-1 matches and the count>=m merge filter
    drops them. ``(rare hot)@2`` therefore decodes the hot term only around
    the rare term's actual doc positions, not its block ranges."""
    n = len(terms_meta)
    sizes = [int(t[3].ns.sum()) for t in terms_meta]  # posting count from metadata
    by_size = sorted(range(n), key=lambda i: sizes[i])
    small, large = by_size[: n - (m - 1)], by_size[n - (m - 1):]
    results: dict = {}
    cand_parts = []
    for i in small:
        field, term, boost, *_ = terms_meta[i]
        docs, tfs, _ = reader.postings(field, term)
        results[i] = (
            docs,
            _bm25_exact(reader, ctx, field, term, boost, docs, tfs, full=True),
        )
        cand_parts.append(docs)
    cand = (
        np.unique(np.concatenate(cand_parts))
        if len(cand_parts) > 1
        else cand_parts[0]
    )
    if cand.size == 0:
        return EMPTY
    for i in large:
        # point intervals [c, c+1) reuse the interval-overlap selective decode
        got = _decode_candidates(reader, ctx, terms_meta[i], cand, cand + 1)
        if got is not None:
            results[i] = got
    return _merge_top_k(results, k, m)


#: suffix-bound merge engages only for unions at least this wide (2-3 clause
#: ORs rarely cross the bound early enough to beat the classic dense merge's
#: single pass; the block-max interval sweep already serves them)
SUFFIX_MERGE_MIN_PARTS = 4

def _suffix_merge(
    live: List[tuple], k: int, lo: int, span: int,
    part_ubs: Optional[List[float]] = None,
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Suffix-bound dense union top-k for WIDE unions (VERDICT r04 #6 — wide
    dictionary expansions were paying a full dense scatter over Σdf postings
    even warm).

    Phase 1 (SELECTION, float order irrelevant): scatter parts in descending
    per-part max-score order (``part_ubs`` — block-max upper bounds when the
    caller has them for free, else exact per-part score maxima), maintaining
    R = Σ max over the unscattered suffix; θ starts at the best single-part
    k-th score (a free lower bound on the final k-th: per-doc final sums
    dominate any one part) and is refreshed LAZILY from the k-th best partial
    sum (also a valid lower bound — scores only grow) whenever a crossing
    fails its cheapness test. Once R < θ−ε, every unscattered doc is out:
    final(d) ≤ partial(d) + R < θ−ε ≤ final k-th, strictly below, so it can
    neither enter the top-k nor tie the k-th. Because descending max-score
    order puts rare high-idf terms FIRST, the parts the cut skips are exactly
    the hot low-impact terms that dominate the scatter cost.

    Phase 2 (EXACT): candidates = docs with partial + R ≥ θ−ε; their scores
    are rebuilt from scratch IN QUERY-CLAUSE ORDER via one searchsorted
    lookup per part — the identical float accumulation sequence to the
    classic dense merge, so ranks, scores and ties are bit-identical. ε
    absorbs float-order noise between selection sums and the recompute.

    Never bails: when no early cut pays, every part is scattered and the
    terminal rem=0 cut (candidates ≈ the top-k + ties) still finishes through
    the recompute — bounded overhead of one np.partition over the classic
    merge instead of a wasted double scatter."""
    if span <= k:
        return None
    if part_ubs is not None:
        maxs = np.asarray(part_ubs, dtype=np.float64)
    else:
        maxs = np.array([float(r[1].max()) for r in live])
    if (maxs < 0).any():
        return None  # a negative part breaks the lower-bound argument
    order = np.argsort(-maxs, kind="stable")
    # suffix[c] = Σ maxs of parts still unscattered once parts 0..c are done
    suffix = np.concatenate([np.cumsum(maxs[order][::-1])[::-1][1:], [0.0]])
    theta = -np.inf
    for i in order[:2]:
        s = live[i][1]
        if s.size >= k:
            theta = max(theta, float(-np.partition(-s, k - 1)[k - 1]))
    if not np.isfinite(theta):
        return None
    sums = np.zeros(span, dtype=np.float64)
    n = len(live)
    sizes = np.array([r[0].size for r in live])[order]
    remaining_rows = int(sizes.sum())
    rem = float(suffix[-1])  # 0.0 — the all-scattered terminal state
    full_refresh_ok = True
    cut_early = False
    # Lazy θ: the single-part seed is weak when docs match many parts, so the
    # first crossing comes LATE (suffix must fall below the seed) — and that
    # is the efficient place to cut: by then rem is small, so one full exact
    # θ refresh (np.partition over the span) yields a tight candidate line
    # (θ−rem) and a candidate set near the true top-k. Swept alternatives
    # (periodic subsampled refreshes forcing earlier crossings) cut sooner
    # but with 30x the candidates — the bigger recompute loses more than the
    # saved scatter (measured at 10M: 106 ms vs 155-175 ms per segment).
    for c in range(n):
        d, s = live[order[c]]
        sums[d - lo] += s
        remaining_rows -= sizes[c]
        if c + 1 >= n:
            break
        # Crossing alone is NOT the cut: accept only when the clause-order
        # recompute is cheaper than the scatter it replaces (a searchsorted
        # candidate lookup costs ~12x a scatter row, measured).
        if suffix[c] < theta - THETA_EPS:
            count = int(np.count_nonzero(sums >= theta - suffix[c] - THETA_EPS))
            if count * (12 * n) > remaining_rows and full_refresh_ok:
                theta = max(
                    theta, float(np.partition(sums, span - k)[span - k])
                )
                full_refresh_ok = False
                count = int(
                    np.count_nonzero(sums >= theta - suffix[c] - THETA_EPS)
                )
            if count * (12 * n) <= remaining_rows:
                rem = float(suffix[c])
                cut_early = True
                break
    if not cut_early:
        # every part scattered: finish through the candidate path anyway
        # (rem = 0 ⇒ candidates ≈ the top-k + ties) — the clause-order
        # recompute below restores the classic merge's exact float order
        # without re-scattering everything
        theta = max(theta, float(np.partition(sums, span - k)[span - k]))
    # test/diagnostics hook: how the last suffix merge in this process ended
    global SUFFIX_MERGE_LAST
    SUFFIX_MERGE_LAST = {"early": cut_early, "n": n}
    cand = np.flatnonzero(sums >= theta - rem - THETA_EPS)
    if cand.size == 0:
        return EMPTY
    cdocs = cand + lo
    out = np.zeros(cand.size, dtype=np.float64)
    for d, s in live:
        pos = np.searchsorted(d, cdocs)
        okm = pos < d.size
        okm[okm] &= d[pos[okm]] == cdocs[okm]
        out[okm] += s[pos[okm]]
    return top_k(cdocs, out, k)


def _merge_top_k(
    results: dict, k: int, m: int = 1, ubs: Optional[dict] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Union-sum per-term contributions IN QUERY-CLAUSE ORDER (same float
    accumulation order as SegmentEval._union, so equal-score ties break
    identically), drop docs matching fewer than m terms, and take the exact
    top-k. ``ubs`` optionally maps a result key to that part's max-score
    upper bound (block-max, free at the wand_top_k call site) so the wide
    suffix-bound merge skips its own per-part max pass.

    Precondition of the suffix-bound merge: every part score is >= 0, so a
    partial sum is a lower bound on the final sum. It holds for every caller:
    parts are BM25 term scores (idf > 0, tf >= 1) times a clause boost that
    wand_parts only admits when positive. A part's scores share its boost's
    sign, so ``_suffix_merge`` checks it per part (max < 0 -> None) and the
    classic merge below, which is exact for any sign, answers instead."""
    live_keys = [i for i in sorted(results) if results[i][0].size]
    live = [results[i] for i in live_keys]
    if len(live) < m or not live:
        return EMPTY
    total = sum(r[0].size for r in live)
    lo = min(int(r[0][0]) for r in live)  # posting lists are sorted
    hi = max(int(r[0][-1]) for r in live)
    span = hi - lo + 1
    if (
        m == 1
        and len(live) >= SUFFIX_MERGE_MIN_PARTS
        and span <= 2 * total + 4096
        and span <= DENSE_MERGE_MAX_SPAN
    ):
        part_ubs = (
            [ubs[i] for i in live_keys]
            if ubs is not None and all(i in ubs for i in live_keys)
            else None
        )
        got = _suffix_merge(live, k, lo, span, part_ubs)
        if got is not None:
            return got
    if span <= 2 * total + 4096 and span <= DENSE_MERGE_MAX_SPAN:
        # dense accumulator: hot unions (Σdf ~ doc span) were paying the
        # O(n log n) sort inside np.unique plus scattered add.at over
        # millions of rows (~0.7 s of a 10M hot-OR's ~0.9 s warm cost).
        # Per-part fancy += is exact-equivalent: docs are unique WITHIN a
        # part (posting lists), and parts accumulate in the same sorted
        # clause order as the concat add.at, so every doc sees the identical
        # float addition sequence (ties unchanged). Sparse unions and
        # billion-doc spans keep the sparse path (span gate).
        sums = np.zeros(span, dtype=np.float64)
        counts = np.zeros(span, dtype=np.int16) if m > 1 else None
        for d, s in live:
            idx = d - lo
            sums[idx] += s
            if counts is not None:
                counts[idx] += 1
        # m == 1: matched docs are exactly sums != 0 — every part score is a
        # positive BM25 term (wand_parts rejects boost <= 0; idf > 0), so a
        # sum of them can never be 0.0
        if counts is None:
            nnz = int(np.count_nonzero(sums))
            if nnz == 0:
                return EMPTY
            kth = np.partition(sums, span - k)[span - k] if nnz > k else 0.0
            if kth > 0:
                # k-th largest over the WHOLE span array is positive, so the
                # zero slots (non-matches) can never enter the candidate
                # mask — this avoids materializing all O(nnz) matched docs
                # before top_k
                cand = np.flatnonzero(sums >= kth)
            else:
                cand = np.flatnonzero(sums)
            return top_k(cand + lo, sums[cand], k)
        qual = np.flatnonzero(counts >= m)
        return top_k(qual + lo, sums[qual], k)
    docs = np.concatenate([r[0] for r in live])
    scores = np.concatenate([r[1] for r in live])
    ud, inv = np.unique(docs, return_inverse=True)
    sums = np.zeros(ud.size, dtype=np.float64)
    np.add.at(sums, inv, scores)
    if m > 1:
        counts = np.zeros(ud.size, dtype=np.int64)
        np.add.at(counts, inv, 1)
        qual = counts >= m
        ud, sums = ud[qual], sums[qual]
    return top_k(ud, sums, k)
