"""Block-max phrase/proximity top-k: score-skipping for positional queries.

The plain positional evaluator (eval.py ``SegmentEval._phrase``) must decode
the FULL doc list of every constituent term before it can intersect — for a
hot-AND-hot phrase over a 10M-turn segment that is two multi-million-posting
decodes plus a positional decode over a huge intersection (measured 1.5 s for
``"data query"~2`` at the 10M index; BASELINE.md). The same shape bmconj.py
removed for pure conjunctions applies here, with one twist: the score is BM25
of the PHRASE frequency (matched-chain count), not a sum of per-term scores.

Exactness argument, per segment, for ``"t1 t2 ... tn"~gap`` (or a Phrase /
analyzer-split Term, gap=0):

* the phrase frequency the evaluator scores is the count of FIRST-slot
  positions with a feasible chain (`_phrase`'s backward-reachability DP) —
  distinct matches start at distinct occurrences of terms[0], but later slots
  may be SHARED between chains ("a a a b" matches "a b" three times through
  one b), so the only per-doc tf bound is tf(terms[0]). Per anchor block
  ``freq_ub`` is therefore the block's stored max_tf when the anchor IS
  terms[0], else an interval bound of terms[0]'s max_tf over the anchor
  block's [first_doc, last_doc] (bmconj's step-function RMQ, built on raw
  max_tf; overlapping piece-merged blocks sum, looser but still a bound).
  Every other term contributes feasibility only: an anchor block where some
  constituent has NO overlapping block cannot contain a match;
* BM25 is increasing in tf and decreasing in dl, so
  ``σ_ub(b) = idf_sum · tfnorm(freq_ub, min_dl_b)`` bounds every doc in b
  (min_dl is the anchor block's stored minimum doc length);
* the anchor blocks go through wand.py's ``block_max_pass`` with σ_ub as
  the bound (−inf for an infeasible block). Its ``process`` decodes the
  anchor docs, fetches the other terms' DOC lists pruned to the shrinking
  candidate set, intersects the sorted arrays, and ends in eval's
  ``phrase_scores``, as ``_phrase`` does: positions only for the
  survivors, the one backward-reachability DP, the one BM25 kernel;
* bound-SKEWED segments bootstrap θ from the top-σ_ub blocks, then take ONE
  round over the remaining blocks with σ_ub ≥ θ − ε — every skipped match
  lives in exactly one skipped anchor block and its true score is bounded by
  that block's σ_ub < θ ≤ the final k-th score. bound-FLAT segments (θ can
  never beat the shared max bound) take one anchor-pruned round over all
  feasible blocks, which still beats the plain evaluator whenever the anchor
  is rarer than its companions.

``idf_sum <= 0`` (degenerate: no constituent has a positive global df, or
every term is in more than ~half the corpus under a raw-idf variant) flips
the bound direction, so ``phrase_top_k`` declines the segment and the plain
evaluator answers it. tests/test_bmphrase.py proves
rank+score identity vs SegmentEval over fixed and randomized corpora plus a
decode-skip proof.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..analysis import DEFAULT_FIELD, tokenize
from ..query import nodes as qn
from .bmconj import _StepMax
from .eval import EMPTY, EvalContext, _unwrap, intersect_sorted, phrase_scores
from .wand import _bm25_bound, block_max_pass

#: first round, in anchor blocks, of phrase_top_k's block-max pass
PHRASE_CHUNK0 = 4


def phrase_parts(
    q: qn.Query, ctx: Optional[EvalContext] = None
) -> Optional[Tuple[dict, Tuple[float, ...]]]:
    """Match the positional shapes eligible for block-max skipping:
    (Group/Boost/Field/UnaryPlus)* wrapping ONE Phrase / Proximity / multi-token
    Term. Returns ({"field", "terms", "gap"}, boost weights outermost-first)
    or None; ``ctx`` is unused (the routing-table signature). Weights are
    applied innermost-first by the caller — the same multiply order as
    eval's nested Boost handling."""
    q, field, weights = _unwrap(q, DEFAULT_FIELD, also=(qn.UnaryPlus,))
    if isinstance(q, qn.Proximity):
        gap = max(0, q.num)
    elif isinstance(q, (qn.Phrase, qn.Term)):
        gap = 0  # a Term the analyzer splits is an implicit phrase
    else:
        return None
    terms = tokenize(q.value)
    if len(terms) < 2:
        return None  # single-token: the plain term path is already optimal
    return {"field": field, "terms": terms, "gap": gap}, weights


def _tf_stepfn(reader, field: str, term: str, rb) -> _StepMax:
    """Per-(field, term) interval bound over raw block max_tf (no idf/norms:
    phrase bounds need the tf itself), cached in the ``phr_stepfn`` pool."""
    sf = reader.cache.get("phr_stepfn", (field, term))
    if sf is None:
        sf = _StepMax(rb.firsts, rb.lasts, rb.max_tf.astype(np.float64))
        reader.cache.put("phr_stepfn", (field, term), sf)
    return sf


def phrase_top_k(
    reader, ctx: EvalContext, field: str, terms: List[str], gap: int, k: int
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Exact top-k of a phrase/proximity query over one segment, decoding only
    anchor blocks whose phrase upper bound can still beat the running k-th
    best (and other terms only around those candidates). None (decline) when
    the idf sum is not positive."""
    uniq = list(dict.fromkeys(terms))
    raw = reader.raw_blocks_many(field, uniq)
    for t in uniq:
        rb = raw.get(t)
        if rb is None or not len(rb):
            return EMPTY  # a constituent term absent from the segment
    idf_sum = sum(ctx.idf(field, t) for t in terms)
    if idf_sum <= 0.0:
        return None  # the bound direction flips: decline to SegmentEval

    sizes = {t: int(raw[t].ns.sum()) for t in uniq}
    anchor = min(uniq, key=lambda t: sizes[t])
    a_rb = raw[anchor]
    a_firsts, a_lasts = a_rb.firsts, a_rb.lasts

    # freq upper bound per anchor block: tf bound of the FIRST slot term only
    # (matches start at distinct terms[0] occurrences; later slots can be
    # shared between chains). Other terms gate feasibility, not magnitude.
    first = terms[0]
    if anchor == first:
        freq_ub = a_rb.max_tf.astype(np.float64)
    else:
        freq_ub = _tf_stepfn(reader, field, first, raw[first]).interval_max(
            a_firsts, a_lasts
        )
    feasible = freq_ub > 0.0
    for t in uniq:
        if t == anchor or t == first:
            continue
        mx = _tf_stepfn(reader, field, t, raw[t]).interval_max(a_firsts, a_lasts)
        feasible &= mx > 0.0  # no coverage anywhere in the anchor block
    sigma = _bm25_bound(idf_sum, freq_ub, a_rb.min_dl, ctx.avgdl.get(field) or 1.0)
    sigma[~feasible] = -np.inf
    others_by_size = sorted((t for t in uniq if t != anchor), key=lambda t: sizes[t])

    def process(keep: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Matches and scores of the anchor blocks ``keep`` selects.
        Docs-only intersection FIRST (pruned to the shrinking candidate set),
        positions only for the survivors — the plain evaluator's step
        structure, so the no-pruning worst case costs ~one plain pass, not a
        positional decode over the whole anchor range."""
        cand = reader.decode(a_rb, keep)[0]
        if cand.size == 0:
            return EMPTY
        for t in others_by_size:
            p = reader.postings_many(
                field, [t], want_positions=False, candidates=cand
            ).get(t)
            if p is None or p[0].size == 0:
                return EMPTY
            cand = intersect_sorted(cand, p[0])
            if cand.size == 0:
                return EMPTY
        return phrase_scores(reader, ctx, field, terms, gap, cand)

    return block_max_pass(sigma, k, process, PHRASE_CHUNK0)
