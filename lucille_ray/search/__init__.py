"""BM25 top-k search over built indexes. The names below load their module
on first use (PEP 562), so a scorer actor never loads ``batch`` (Ray Data
scoring) or ``oracle`` (the brute-force test oracle)."""

from .. import _lazy

_EXPORTS = {
    "QueryScorerStage": ".batch", "score_query_dataset": ".batch",
    "SearchEngine": ".engine", "SegmentScorer": ".engine",
    "EvalContext": ".eval", "K1": ".eval", "B": ".eval", "MAX_EXPANSIONS": ".eval",
    "SegmentEval": ".eval", "collect_term_requests": ".eval", "top_k": ".eval",
    "BruteForceOracle": ".oracle",
}

__all__ = list(_EXPORTS)
__getattr__ = _lazy(globals(), _EXPORTS)
