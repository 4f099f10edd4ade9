"""The block-max pass shared by the term, conjunction and phrase executors
(wand.block_max_pass): its answer cache for θ-pruned passes, and a tie at θ
between blocks that different rounds process."""

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
#: the ``match`` key each executor's pass caches its answer under
MATCH_KEYS = {
    "single_term_top_k": lambda a: ("term", a["field"], a["term"]),
    "conj_top_k_compound": lambda a: ("conj", a["clauses"], a["negs"]),
    "phrase_top_k": lambda a: ("phrase", a["field"], tuple(a["terms"]), a["gap"]),
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
    import ray

    root = str(tmp_path_factory.mktemp("block_max_pass"))
    index_dir = os.path.join(root, "index")
    n = 2 * ALPHA_BLOCKS * BLOCK_SIZE
    tab = pa.table({
        "conv_id": pa.array([f"c{i // 5:05d}" for i in range(n)], pa.string()),
        "turn_idx": pa.array([i % 5 for i in range(n)], pa.int32()),
        "role": pa.array(["user"] * n, pa.string()),
        "text": pa.array([_text(i) for i in range(n)], pa.string()),
        "tool": pa.array([""] * n, pa.string()),
        "ts": pa.array([1_700_000_000_000_000 + i for i in range(n)], pa.timestamp("us")),
    })
    build_index(ray.data.from_arrow(tab), index_dir, num_segments=1, batch_size=n)
    return index_dir, tab


def _setup(index_dir: str, name: str):
    engine = SearchEngine(index_dir, parallel=False, result_cache=False)
    (r,) = engine._scorers()[0].readers
    # the layout the fixture's round argument rests on: alpha's blocks are
    # BLOCK_SIZE consecutive docs each, starting at doc 0
    rb = r.raw_blocks_many("text", ["alpha"])["alpha"]
    assert rb.firsts.tolist() == list(range(0, ALPHA_BLOCKS * BLOCK_SIZE, BLOCK_SIZE))
    q, _reqs, ctx = engine.plan(EXECUTOR_QUERIES[name])
    for matcher, executor in engine_mod.TOP_K_ROUTES:
        got = matcher(q, ctx)
        if got is not None:
            assert executor.__name__ == name
            args, weights = got
            assert weights == ()
            entry = lambda: r.cache.get("match", MATCH_KEYS[name](args))  # noqa: E731
            return engine, r, q, ctx, lambda k: executor(r, ctx, k=k, **args), entry
    raise AssertionError(f"{name}: no route")


def _plain(r, ctx, q, k):
    return top_k(*SegmentEval(r, ctx, collect_term_requests(q), query=q).eval(q), k)


@pytest.mark.parametrize("name", list(EXECUTOR_QUERIES))
def test_pruned_pass_cached_for_k_or_fewer(tied, name, monkeypatch):
    """A θ-pruned (incomplete) pass caches its top-k: repeats at k and at a
    smaller k decode nothing and equal the plain evaluator bit for bit; a
    repeat at 2k recomputes and still matches."""
    from lucille_ray.index import codec

    _engine, r, q, ctx, run, entry = _setup(tied[0], name)
    expected = {k: _plain(r, ctx, q, k) for k in (K, K // 2, 2 * K)}
    r.cache = ReaderCache()
    run(K)
    assert entry()[0] == K, "the pass must be θ-pruned: its entry holds its top-k"

    decoded = {"n": 0}
    real = codec.decode_varints

    def counting(buf):
        out = real(buf)
        decoded["n"] += out.size
        return out

    monkeypatch.setattr("lucille_ray.index.codec.decode_varints", counting)
    for k in (K, K // 2):
        d, s = run(k)
        assert decoded["n"] == 0, f"repeat at k={k} must not decode"
        assert d.tolist() == expected[k][0].tolist()
        np.testing.assert_array_equal(s, expected[k][1])
    d, s = run(2 * K)
    assert decoded["n"] > 0, "a larger k than the cached top-k recomputes"
    assert d.tolist() == expected[2 * K][0].tolist()
    np.testing.assert_array_equal(s, expected[2 * K][1])


@pytest.mark.parametrize("name", list(EXECUTOR_QUERIES))
def test_tie_at_theta_across_rounds(tied, name):
    """The k-th and (k+1)-th best docs tie, the k-th from the survivor round
    and the (k+1)-th from the first round: the survivor round must take
    blocks whose bound reaches θ − ε (theirs equals θ), and the tie
    breaks on the lower doc id, as in the plain evaluator and the oracle."""
    index_dir, tab = tied
    engine, r, q, ctx, run, entry = _setup(index_dir, name)
    ed, es = _plain(r, ctx, q, K + 1)
    tie_docs = [b * BLOCK_SIZE + 64 for b in range(K + 1)]
    assert ed.tolist() == tie_docs and es[K - 1] == es[K], "fixture premise"

    r.cache = ReaderCache()
    d, s = run(K)
    assert entry()[0] == K, "the pass must be θ-pruned"
    assert d.tolist() == tie_docs[:K]
    np.testing.assert_array_equal(s, es[:K])

    got = engine.search(EXECUTOR_QUERIES[name], k=K, with_meta=False)
    exp = BruteForceOracle(tab).search(EXECUTOR_QUERIES[name], k=K)
    assert got["doc_id"].to_pylist() == [doc for doc, _ in exp] == tie_docs[:K]
    assert all(abs(g - e) < 1e-9 for g, (_, e) in zip(got["score"].to_pylist(), exp))
