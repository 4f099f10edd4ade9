"""Block-max conjunction top-k: score-skipping for pure-AND queries.

The plain conjunctive evaluator (eval.py `_eval_conjunctive`) already prunes
non-anchor terms to blocks overlapping the anchor's doc positions, but it must
fully decode the RAREST term — for a hot-AND-hot conjunction over a 10M-turn
segment that is two multi-million-posting decodes per query (measured 227-377 ms
at the 10M index; BASELINE.md "10M-turn serving latency").

This module skips most of that decode for top-k queries, with the same exact
contract as wand.py: skipping must NEVER change the returned ranks or scores.

Per segment, for a query that is a conjunction of clauses, each a single-token
term or an OR of them (possibly boosted / field-routed; a clause matches a doc
when any of its members does):

1. fetch raw posting BLOCKS for every member; a clause with no member in the
   segment makes the conjunction empty;
2. anchor = the single-term clause with the fewest postings. For every anchor
   block b compute a conjunction upper bound ``conj_ub(b) = σ_anchor(b) +
   Σ_j maxσ_j over [first_b, last_b]`` where σ is wand.py's per-block BM25
   bound and the inner max is an interval query on a piecewise-constant step
   function built from clause j's members' block ranges (a sparse-table RMQ
   over the event-sweep values, built once per (field, term) and kept in the
   reader's cache — boost factors out because σ scales linearly in it). Anchor
   blocks where some clause has NO overlapping block are infeasible (no doc in
   them can match every clause) and are dropped;
3. anchor blocks go through wand.py's ``block_max_pass`` with conj_ub as
   the bound (−inf for an infeasible block). Processing a set of anchor
   blocks decodes them, selectively decodes every other clause's members
   around those candidate docs (wand's `_decode_candidates` point-interval
   machinery), intersects, and scores the surviving docs exactly —
   per-clause BM25 accumulated in query-clause order, bit-identical to
   SegmentEval._bool;
4. the pass takes bound-ordered rounds of anchor blocks until k matches
   pool, sets θ to their k-th best score, and takes one more round of every
   remaining block with conj_ub ≥ θ − ε. Every skipped matching doc lives in
   exactly one skipped anchor block, so its true score is ≤ that block's
   conj_ub < θ − ε ≤ the final k-th score: it cannot enter the top-k even by
   tie-break. ε guards the same float-associativity noise between bound-sum
   and score-sum that wand.py's θ−ε does (the step-function cumsum may
   cancel, but only by ~1e-13 against scores O(1-100)).

Worst case (terms that never co-occur, so θ never forms) takes every
feasible anchor block in O(log #blocks) doubling rounds, and a flat bound
takes them all in one round; best case (hot terms whose high-tf co-occurrences concentrate in a few
blocks) decodes a few hundred postings instead of millions.
``tests/test_bmconj.py`` asserts rank+score identity vs the plain evaluator
over fixed shapes and randomized corpora, plus a decode-counting proof that
skipping actually skips.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from ..analysis import DEFAULT_FIELD
from ..query import nodes as qn
from .eval import EMPTY, EvalContext, _unwrap, simple_term_of
from .wand import _bm25_bound, _bm25_exact, _decode_candidates, block_max_pass

#: first round, in anchor blocks, of conj_top_k_compound's block-max pass
CONJ_CHUNK0 = 4


class _StepMax:
    """Interval-max queries over a term's piecewise-constant block-bound
    function: value at doc x = Σ σ(block) over blocks whose [first, last]
    covers x (overlapping piece-merged blocks sum — looser than max, still an
    upper bound on the term's contribution at x). Backed by a sparse-table RMQ
    so each anchor block's [first, last] max is O(1)."""

    __slots__ = ("xs", "levels")

    def __init__(self, firsts: np.ndarray, lasts: np.ndarray, ub: np.ndarray):
        xs = np.concatenate([firsts, lasts + 1])
        deltas = np.concatenate([ub, -ub])
        order = np.argsort(xs, kind="stable")
        self.xs = xs[order]
        vals = np.cumsum(deltas[order])
        levels = [vals]
        width = 1
        while width < vals.size:
            prev = levels[-1]
            levels.append(np.maximum(prev[:-width], prev[width:]))
            width <<= 1
        self.levels = levels

    @property
    def nbytes(self) -> int:
        return self.xs.nbytes + sum(lvl.nbytes for lvl in self.levels)

    def interval_max(self, qlo: np.ndarray, qhi: np.ndarray) -> np.ndarray:
        """Max function value over doc range [qlo, qhi] (inclusive), per query.
        Zero-width event slots only ever ADD candidate values (max can't drop),
        so duplicate event positions stay admissible."""
        # slot containing x: the last event position <= x
        i0 = np.searchsorted(self.xs, qlo, side="right") - 1
        i1 = np.searchsorted(self.xs, qhi, side="right") - 1
        out = np.zeros(qlo.size, dtype=np.float64)
        live = i1 >= 0  # i1 < 0: range ends before the first block — value 0
        if not live.any():
            return out
        lo = np.clip(i0[live], 0, None)  # before the first event the value is 0
        hi = i1[live]
        length = hi - lo + 1
        # exact floor(log2) for int64 lengths (frexp: n = m * 2^e, 0.5 <= m < 1)
        j = (np.frexp(length.astype(np.float64))[1] - 1).astype(np.int64)
        res = np.empty(lo.size, dtype=np.float64)
        for jj in np.unique(j):
            sel = j == jj
            lvl = self.levels[jj]
            w = 1 << int(jj)
            res[sel] = np.maximum(lvl[lo[sel]], lvl[hi[sel] - w + 1])
        out[live] = res
        return out


def _stepfn(reader, ctx: EvalContext, field: str, term: str, rb) -> _StepMax:
    """Per-(field, term) step-function RMQ over UNBOOSTED block bounds, cached
    in the ``conj_stepfn`` pool (idf/avgdl are per-index constants, same
    convention as wand.py's ``score`` pool; boost is applied by the caller)."""
    sf = reader.cache.get("conj_stepfn", (field, term))
    if sf is None:
        ub = _bm25_bound(ctx.idf(field, term), rb.max_tf, rb.min_dl, ctx.avgdl.get(field) or 1.0)
        sf = reader.cache.put("conj_stepfn", (field, term), _StepMax(rb.firsts, rb.lasts, ub))
    return sf


def conj_parts_compound(
    q: qn.Query, ctx: Optional[EvalContext] = None
) -> Optional[Tuple[dict, Tuple[float, ...]]]:
    """Match the conjunction shapes :func:`conj_top_k_compound` serves: an
    And, under any (Group/Boost/Field)* wrapper, whose positive clauses are
    simple single-token terms or DISJUNCTIONS of them — ``data AND query``,
    ``(deploy OR data)^2 AND query`` — and whose other clauses are negated
    simple terms (``Not`` / ``UnaryMinus``: exclusion contributes no score,
    so the positive bounds stay valid and the match set only shrinks). An
    all-simple conjunction is the case where every clause holds one term.
    The plain evaluator fully decodes the rarest term (and every member of
    every OR clause) for these — 227-377 ms for hot AND hot, 453 ms for the
    OR example, warm at 10M.

    Returns ({"clauses", "negs"}, root Boost weights outermost-first) or
    None. Each clause is ``(members, cweights)`` — members a tuple of
    (field, term, boost) in query order (member boosts fold once, post-
    multiplied by _bm25_exact), cweights the clause-level Boost weights
    outermost-first (eval multiplies them AFTER the member union,
    innermost-first); negs are deduplicated (field, term) pairs (exclusion
    is idempotent). ``ctx`` is unused (the routing-table signature). None
    when any shape rule fails, matching eval's float order unconditionally:
    duplicate positive terms anywhere fall back (eval sums duplicates),
    nested boosts fall back (simple_term_of's rule), UnaryPlus falls back
    (eval accumulates UnaryPlus musts ahead of the other clauses), and the
    shape needs >= 2 positive clauses (zero positives matches nothing —
    eval's convention; ONE has no intersection to prune and measured
    0.5-0.9x of the plain evaluator at 10M) with >= 1 single-term clause to
    anchor the block sweep on."""
    q, field, weights = _unwrap(q, DEFAULT_FIELD)
    if not isinstance(q, qn.And) or len(q.qs) < 2 or math.prod(weights) <= 0:
        return None
    clauses: List[tuple] = []
    negs: List[Tuple[str, str]] = []
    seen: set = set()
    for c in q.qs:
        if isinstance(c, (qn.Not, qn.UnaryMinus)):
            s = simple_term_of(c.q, field)
            if s is None:
                return None
            if s[:2] not in negs:  # boost can't change a negative's match set
                negs.append(s[:2])
            continue
        if isinstance(c, qn.UnaryPlus):
            return None
        # unwrap clause-level Group/Boost/Field down to an Or or a leaf
        node, cf, cw = _unwrap(c, field)
        if isinstance(node, qn.Or):
            members = tuple(simple_term_of(ch, cf) for ch in node.qs)
            if None in members:
                return None
            clause = (members, cw)
        else:
            # single-term clause: one Boost folds into the member
            s = simple_term_of(c, field)
            if s is None:
                return None
            clause = ((s,), ())
        for f, t, b in clause[0]:
            if (f, t) in seen or b <= 0:
                return None
            seen.add((f, t))
        if any(w <= 0 for w in clause[1]):
            return None
        clauses.append(clause)
    if len(clauses) < 2:
        return None
    if not any(len(m) == 1 and not w for m, w in clauses):
        return None  # no plain single-term clause to anchor the block sweep on
    return {"clauses": tuple(clauses), "negs": tuple(negs)}, weights


def conj_top_k_compound(
    reader, ctx: EvalContext, clauses: tuple, k: int,
    negs: Tuple[Tuple[str, str], ...] = (),
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Exact top-k of a conjunction over one segment, decoding only anchor
    blocks whose conjunction upper bound can still beat the running k-th
    best score (and other clauses only around those candidates). A clause
    matches a doc when ANY live member does; its score is the member BM25
    sum accumulated in member order, then scaled by its cweights
    innermost-first — the same float sequence as eval's union + Boost.
    ``negs`` excludes candidates present in a negative term's postings
    BEFORE scoring — per-doc score values are element-wise, so removal order
    vs eval's _apply_must_not (which filters after scoring) cannot change
    them. Returns None when this segment leaves no single-member clause to
    anchor on (the caller falls back to the plain evaluator for this
    reader)."""
    by_field: dict = {}
    for members, _cw in clauses:
        for f, t, _b in members:
            by_field.setdefault(f, []).append(t)
    raw = {
        (f, t): blocks
        for f, ts in by_field.items()
        for t, blocks in reader.raw_blocks_many(f, ts).items()
    }
    # live members per clause: present in this segment with positive idf
    live: List[tuple] = []  # (member metas tuple, cweights)
    sizes: List[int] = []
    for members, cw in clauses:
        metas = []
        size = 0
        for f, t, b in members:
            if ctx.idf(f, t) <= 0.0:
                continue  # global df 0: matches nothing anywhere (eval EMPTY)
            rb = raw.get((f, t))
            if rb is None or not len(rb):
                continue  # absent from this segment
            ub = _bm25_bound(ctx.idf(f, t), rb.max_tf, rb.min_dl, ctx.avgdl.get(f) or 1.0, b)
            metas.append((f, t, b, rb, rb.firsts, rb.lasts, ub))
            size += int(rb.ns.sum())
        if not metas:
            return EMPTY  # a required clause matches nothing in this segment
        live.append((tuple(metas), cw))
        sizes.append(size)

    anchors = [
        i for i, (m, cw) in enumerate(live) if len(m) == 1 and not cw
    ]
    if not anchors:
        return None  # no plain single-term clause left; plain eval instead
    anchor = min(anchors, key=lambda i: sizes[i])
    (a_meta,), _a_cw = live[anchor]
    a_field, a_term, a_boost, a_rb, a_firsts, a_lasts, a_ub = a_meta
    others = [i for i in range(len(live)) if i != anchor]

    conj_ub = a_ub.astype(np.float64, copy=True)
    feasible = np.ones(conj_ub.size, dtype=bool)
    for j in others:
        metas_j, cw_j = live[j]
        mx = np.zeros(a_firsts.size, dtype=np.float64)
        for f_m, t_m, b_m, rb_m, *_ in metas_j:
            mx += b_m * _stepfn(reader, ctx, f_m, t_m, rb_m).interval_max(
                a_firsts, a_lasts
            )
        feasible &= mx > 0.0  # no member covers the block: clause can't match
        cwprod = 1.0
        for w in cw_j:
            cwprod *= w
        conj_ub += cwprod * mx
    conj_ub[~feasible] = -np.inf
    others_by_size = sorted(others, key=lambda j: sizes[j])

    def process(keep: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Exact matches and scores of the anchor blocks ``keep`` selects."""
        docs_a, tfs_a, _ = reader.decode(a_rb, keep)
        cand = docs_a
        got: dict = {}  # (clause idx, member idx) -> (docs, scores)
        for j in others_by_size:
            metas_j, _cw_j = live[j]
            present = np.zeros(cand.size, dtype=bool)
            for mi, tm in enumerate(metas_j):
                gj = _decode_candidates(reader, ctx, tm, cand, cand + 1)
                if gj is None or gj[0].size == 0:
                    continue
                got[(j, mi)] = gj
                dj = gj[0]
                at = np.clip(np.searchsorted(dj, cand), 0, dj.size - 1)
                present |= dj[at] == cand
            cand = cand[present]
            if cand.size == 0:
                return EMPTY
        for f_n, t_n in negs:
            p = reader.postings_many(
                f_n, [t_n], want_positions=False, candidates=cand
            ).get(t_n)
            if p is None or p[0].size == 0:
                continue
            nd = p[0]
            idxn = np.clip(np.searchsorted(nd, cand), 0, nd.size - 1)
            cand = cand[nd[idxn] != cand]
            if cand.size == 0:
                return EMPTY
        # exact scores in clause order; within a clause, member order; then
        # cweights innermost-first — eval's union + Boost + must-sum sequence
        scores = np.zeros(cand.size, dtype=np.float64)
        for j, (metas_j, cw_j) in enumerate(live):
            if j == anchor:
                at = np.searchsorted(docs_a, cand)
                vec = _bm25_exact(
                    reader, ctx, a_field, a_term, a_boost, cand, tfs_a[at],
                    full=False,
                )
            else:
                vec = np.zeros(cand.size, dtype=np.float64)
                for mi in range(len(metas_j)):
                    gj = got.get((j, mi))
                    if gj is None:
                        continue
                    dj, sj = gj
                    at = np.clip(np.searchsorted(dj, cand), 0, dj.size - 1)
                    hit = dj[at] == cand
                    vec[hit] += sj[at[hit]]
            for w in reversed(cw_j):
                vec = vec * w
            scores += vec
        return cand, scores

    return block_max_pass(conj_ub, k, process, CONJ_CHUNK0)
