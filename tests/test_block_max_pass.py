"""The block-max pass shared by the term, conjunction and phrase executors
(wand.block_max_pass): θ-pruning, counted in decoded anchor blocks; answer
reuse through ``SegmentScorer.score``'s ``result`` pool only, so a scorer
with ``result_cache=False`` re-runs the executor on every call; and a tie at
θ between blocks that different rounds process."""

import os

import numpy as np
import pyarrow as pa
import pytest

from lucille_ray.index.build import build_index
from lucille_ray.index.codec import BLOCK_SIZE
from lucille_ray.index.segment import ReaderCache
import lucille_ray.search.engine as engine_mod
from lucille_ray.search.engine import SearchEngine
from lucille_ray.search.eval import SegmentEval, collect_term_requests, top_k
from lucille_ray.search.oracle import BruteForceOracle

#: one query per executor, each served by a block-max pass anchored on alpha
EXECUTOR_QUERIES = {
    "single_term_top_k": "alpha",
    "conj_top_k_compound": "alpha AND beta",
    "phrase_top_k": '"alpha beta"',
}
ALPHA_BLOCKS = 40
TIE_BLOCKS = 20  # blocks 0-19 each hold one top-scoring doc, all tied
SHORT_BLOCKS = range(4, 20)  # a 2-token doc lifts these blocks' bounds
K = 4


def _text(i: int) -> str:
    if i >= ALPHA_BLOCKS * BLOCK_SIZE:
        return f"gamma delta w{i % 7} pad"
    b, off = divmod(i, BLOCK_SIZE)
    if off == 64 and b < TIE_BLOCKS:
        return "alpha beta alpha beta alpha beta"
    if off == 100 and b in SHORT_BLOCKS:
        return "alpha beta"
    return f"alpha beta w{i % 7} pad pad pad"


@pytest.fixture(scope="module")
def tied(ray_session, tmp_path_factory):
    """alpha and beta fill the first ALPHA_BLOCKS blocks of docs, one posting
    per doc, every doc 6 tokens long but a few short ones. Blocks 0-19 each
    hold one identical top doc (tf 3), so all 20 tie. Blocks 4-19 also hold
    a 2-token doc, so their bound (min_dl 2) is the highest: the first round
    takes them (16 blocks for the term, the first 4 of them for the
    conjunction and phrase), and θ becomes the tied score. Blocks 0-3 come
    only in the survivor round, and their bound (tf 3, min_dl 6) equals θ,
    up to float noise in the conjunction's summed bound. The top 4 by doc
    id are blocks 0-3's tied docs; the 5th, block 4's, ties the 4th from the
    first round. Blocks 20-39 hold only tf-1 docs and are skipped."""
    root = str(tmp_path_factory.mktemp("block_max_pass"))
    texts = [_text(i) for i in range(2 * ALPHA_BLOCKS * BLOCK_SIZE)]
    return _build(os.path.join(root, "index"), texts)


def _build(index_dir: str, texts):
    """A one-segment index of ``texts``, one turn each; returns (dir, table)."""
    import ray

    n = len(texts)
    tab = pa.table({
        "conv_id": pa.array([f"c{i // 5:05d}" for i in range(n)], pa.string()),
        "turn_idx": pa.array([i % 5 for i in range(n)], pa.int32()),
        "role": pa.array(["user"] * n, pa.string()),
        "text": pa.array(texts, pa.string()),
        "tool": pa.array([""] * n, pa.string()),
        "ts": pa.array([1_700_000_000_000_000 + i for i in range(n)], pa.timestamp("us")),
    })
    build_index(ray.data.from_arrow(tab), index_dir, num_segments=1, batch_size=n)
    return index_dir, tab


def _route(q, ctx):
    """The executor whose TOP_K_ROUTES row takes ``q``, and its (args,
    weights)."""
    for matcher, executor in engine_mod.TOP_K_ROUTES:
        got = matcher(q, ctx)
        if got is not None:
            return executor, got
    raise AssertionError(f"{q!r}: no route")


def _setup(index_dir: str, name: str):
    engine = SearchEngine(index_dir, parallel=False, result_cache=False)
    (r,) = engine._scorers()[0].readers
    # the layout the fixture's round argument rests on: alpha's blocks are
    # BLOCK_SIZE consecutive docs each, starting at doc 0
    rb = r.raw_blocks_many("text", ["alpha"])["alpha"]
    assert rb.firsts.tolist() == list(range(0, ALPHA_BLOCKS * BLOCK_SIZE, BLOCK_SIZE))
    q, _reqs, ctx = engine.plan(EXECUTOR_QUERIES[name])
    executor, (args, weights) = _route(q, ctx)
    assert executor.__name__ == name and weights == ()
    return engine, r, q, ctx, lambda k: executor(r, ctx, k=k, **args)


def _cold_alpha(r):
    """Empty ``r``'s cache and return alpha's raw blocks, which the next
    executor call reads from the ``raw`` pool."""
    r.cache = ReaderCache()
    return r.raw_blocks_many("text", ["alpha"])["alpha"]


def _doc_blocks(block_decodes, rb) -> int:
    """Blocks of ``rb`` decoded for docs (positional decodes not counted)."""
    return sum(n for got, n, pos in block_decodes if got is rb and not pos)


def _plain(r, ctx, q, k):
    return top_k(*SegmentEval(r, ctx, collect_term_requests(q), query=q).eval(q), k)


@pytest.mark.parametrize("name", list(EXECUTOR_QUERIES))
def test_pruned_pass_cached_for_k_or_fewer(tied, name, block_decodes):
    """A θ-pruned pass decodes alpha's tied blocks 0-19 and skips 20-39. Its
    answer is reused only through the scorer's ``result`` pool: repeats at
    k and at a smaller k decode nothing and equal the plain evaluator bit
    for bit; a repeat at 2k recomputes and still matches."""
    engine, r, q, ctx, run = _setup(tied[0], name)
    expected = {k: _plain(r, ctx, q, k) for k in (K, K // 2, 2 * K)}
    alpha = _cold_alpha(r)
    block_decodes.clear()
    run(K)
    assert _doc_blocks(block_decodes, alpha) == TIE_BLOCKS, "the pass must be θ-pruned"

    scorer = engine_mod.SegmentScorer(engine.seg_dirs, result_cache=True)
    reqs = collect_term_requests(q)
    scorer.score(q, reqs, ctx, K)
    for k in (K, K // 2):
        block_decodes.clear()
        d, s = scorer.score(q, reqs, ctx, k)
        assert block_decodes == [], f"repeat at k={k} must not decode"
        assert d.tolist() == expected[k][0].tolist()
        np.testing.assert_array_equal(s, expected[k][1])
    d, s = scorer.score(q, reqs, ctx, 2 * K)
    assert block_decodes, "a larger k than the cached top-k recomputes"
    assert d.tolist() == expected[2 * K][0].tolist()
    np.testing.assert_array_equal(s, expected[2 * K][1])


@pytest.mark.parametrize("name", list(EXECUTOR_QUERIES))
def test_tie_at_theta_across_rounds(tied, name, block_decodes):
    """The k-th and (k+1)-th best docs tie, the k-th from the survivor round
    and the (k+1)-th from the first round: the survivor round must take
    blocks whose bound reaches θ − ε (theirs equals θ), and the tie
    breaks on the lower doc id, as in the plain evaluator and the oracle."""
    index_dir, tab = tied
    engine, r, q, ctx, run = _setup(index_dir, name)
    ed, es = _plain(r, ctx, q, K + 1)
    tie_docs = [b * BLOCK_SIZE + 64 for b in range(K + 1)]
    assert ed.tolist() == tie_docs and es[K - 1] == es[K], "fixture premise"

    alpha = _cold_alpha(r)
    block_decodes.clear()
    d, s = run(K)
    assert _doc_blocks(block_decodes, alpha) == TIE_BLOCKS, "the pass must be θ-pruned"
    assert d.tolist() == tie_docs[:K]
    np.testing.assert_array_equal(s, es[:K])

    got = engine.search(EXECUTOR_QUERIES[name], k=K, with_meta=False)
    exp = BruteForceOracle(tab).search(EXECUTOR_QUERIES[name], k=K)
    assert got["doc_id"].to_pylist() == [doc for doc, _ in exp] == tie_docs[:K]
    assert all(abs(g - e) < 1e-9 for g, (_, e) in zip(got["score"].to_pylist(), exp))


#: one query per TOP_K_ROUTES row over the ``rare_hot`` index; each does
#: block work no decode cache keeps (the wand query decodes one of hot's
#: blocks selectively, around rare's docs)
ROUTE_QUERIES = {
    "wand_top_k": "rare OR hot",
    "conj_top_k_compound": "rare AND hot",
    "phrase_top_k": '"rare hot"',
    "single_term_top_k": "rare",
}
HOT_BLOCKS = 32


@pytest.fixture(scope="module")
def rare_hot(ray_session, tmp_path_factory):
    """hot is in every doc of HOT_BLOCKS blocks, rare in the first 20 docs
    only, right before hot; every doc is 3 tokens long."""
    root = str(tmp_path_factory.mktemp("rare_hot"))
    texts = ["rare hot pad" if i < 20 else "hot pad pad"
             for i in range(HOT_BLOCKS * BLOCK_SIZE)]
    return _build(os.path.join(root, "index"), texts)[0]


@pytest.mark.parametrize("result_cache", [False, True], ids=["off", "on"])
@pytest.mark.parametrize("name", list(ROUTE_QUERIES))
def test_result_cache_off_rescores(rare_hot, name, result_cache, block_decodes):
    """A repeat through ``SegmentScorer.score`` runs its executor again when
    the result cache is off (it decodes again: no executor keeps an answer),
    and decodes nothing at the same or a smaller k when it is on. Either
    way the repeat's answer is the first one's, cut to k."""
    engine = SearchEngine(rare_hot, parallel=False, result_cache=result_cache)
    q, reqs, ctx = engine.plan(ROUTE_QUERIES[name])
    assert _route(q, ctx)[0].__name__ == name
    scorer = engine._scorers()[0]
    docs, scores = scorer.score(q, reqs, ctx, K)
    assert docs.size == K
    for k in (K, K // 2):
        block_decodes.clear()
        d, s = scorer.score(q, reqs, ctx, k)
        assert bool(block_decodes) is not result_cache, (k, block_decodes)
        assert d.tolist() == docs[:k].tolist()
        np.testing.assert_array_equal(s, scores[:k])
