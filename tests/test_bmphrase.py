"""Block-max phrase/proximity: rank+score identity with the plain positional
evaluator, and proof that θ-pruning actually skips anchor-block decodes."""

import os

import numpy as np
import pyarrow as pa
import pytest

from lucille_ray import transcripts as T
from lucille_ray.index.build import build_index
from lucille_ray.index.segment import ReaderCache
from lucille_ray.query.parser import parse
import lucille_ray.search.engine as engine_mod
from lucille_ray.search.bmphrase import phrase_parts, phrase_top_k
from lucille_ray.search.engine import SearchEngine
from lucille_ray.search.eval import EvalContext, SegmentEval, collect_term_requests, top_k

PHRASE_QUERIES = [
    '"data query"',
    '"data query"~2',
    '"query data"~3',
    '"the data query"~3',
    "data.query",  # analyzer-split Term -> implicit phrase
    '"data query"^2.5',
    'text:"data query"~1',
    '("data query")^0.5',
    '"data zzznope"',  # absent constituent: empty
    '"xylophone42 data"~4',  # rare + hot
]


@pytest.fixture(scope="module")
def built(ray_session, tmp_path_factory):
    root = str(tmp_path_factory.mktemp("bmphrase"))
    data_dir = os.path.join(root, "data")
    index_dir = os.path.join(root, "index")
    T.generate(5000, data_dir, num_files=2)
    build_index(T.read_transcripts(data_dir), index_dir, num_segments=2, batch_size=1000)
    return index_dir


def test_phrase_parts_shapes():
    assert phrase_parts(parse('"a b"')) is not None
    assert phrase_parts(parse('"a b"~3')) is not None
    assert phrase_parts(parse("a.b")) is not None
    args, w = phrase_parts(parse('(role:"a b"^2)^3'))
    assert args == {"field": "role", "terms": ["a", "b"], "gap": 0}
    assert w == (3.0, 2.0)
    assert phrase_parts(parse('"single"')) is None
    assert phrase_parts(parse("plain")) is None
    assert phrase_parts(parse("a AND b")) is None
    assert phrase_parts(parse('"a b" OR c')) is None


@pytest.mark.parametrize("qs", PHRASE_QUERIES, ids=repr)
@pytest.mark.parametrize("k", [1, 5, 40])
def test_phrase_identical_to_eval(built, qs, k):
    """phrase top-k == plain SegmentEval top-k, ranks AND scores, per segment."""
    engine = SearchEngine(built, parallel=False)
    q, reqs, ctx = engine.plan(qs)
    ps = phrase_parts(q)
    assert ps is not None, f"{qs!r} should be phrase-eligible"
    args, weights = ps
    scorer = engine._scorers()[0]
    for r in scorer.readers:
        if r.doc_count == 0:
            continue
        cd, cs = phrase_top_k(r, ctx, k=k, **args)
        for w in reversed(weights):
            cs = cs * w
        fresh = SegmentEval(r, ctx, collect_term_requests(q), query=q)
        ed, es = top_k(*fresh.eval(q), k)
        assert cd.tolist() == ed.tolist(), f"{qs!r} k={k}: rank mismatch"
        np.testing.assert_array_equal(cs, es)


@pytest.mark.parametrize("df_of", [lambda n: 4 * n, lambda n: 0],
                         ids=["negative-idf", "zero-idf"])
def test_nonpositive_idf_sum_declines_to_plain_evaluator(built, monkeypatch, df_of):
    """Global dfs that leave the phrase's idf sum <= 0 flip the block bounds:
    phrase_top_k declines every segment and the scorer's answer is the plain
    evaluator's (the ``TOP_K_ROUTES = ()`` answer)."""
    engine = SearchEngine(built, parallel=False, result_cache=False)
    q, reqs, ctx = engine.plan('"data query"~2')
    bad = EvalContext(n_docs=ctx.n_docs, avgdl=ctx.avgdl,
                      df={key: df_of(ctx.n_docs) for key in ctx.df},
                      expanded=ctx.expanded)
    args, _weights = phrase_parts(q)
    assert sum(bad.idf(args["field"], t) for t in args["terms"]) <= 0.0
    scorer = engine._scorers()[0]
    live = [r for r in scorer.readers if r.doc_count]
    assert live and all(phrase_top_k(r, bad, k=10, **args) is None for r in live)
    got = scorer.score(q, reqs, bad, 10)
    monkeypatch.setattr(engine_mod, "TOP_K_ROUTES", ())
    ref = scorer.score(q, reqs, bad, 10)
    assert got[0].size and got[0].tolist() == ref[0].tolist()
    np.testing.assert_array_equal(got[1], ref[1])


def test_phrase_engine_end_to_end_matches_oracle(built, ray_session):
    import pyarrow.parquet as pq

    from lucille_ray.search.oracle import BruteForceOracle

    data_dir = os.path.join(os.path.dirname(built), "data")
    oracle = BruteForceOracle(pq.read_table(data_dir))
    engine = SearchEngine(built, parallel=False)
    for qs in PHRASE_QUERIES:
        got = engine.search(qs, k=10, with_meta=False)
        exp = oracle.search(qs, k=10)
        gp = list(zip(got["doc_id"].to_pylist(), got["score"].to_pylist()))
        assert len(gp) == len(exp), qs
        for (gd, gscore), (ed, escore) in zip(gp, exp):
            assert gd == ed, f"{qs!r}: rank differs"
            assert abs(gscore - escore) < 1e-9, qs


def test_phrase_randomized_soak(built, ray_session, monkeypatch):
    """Random adjacent word pairs/triples lifted from real docs (guaranteed
    matches), random gaps and k, through the FULL engine with the block-max
    path toggled per call — ranks and scores must match bit-exactly."""
    import random
    import re

    import pyarrow.parquet as pq

    texts = pq.read_table(
        os.path.join(os.path.dirname(built), "data"), columns=["text"]
    )["text"].to_pylist()
    rng = random.Random(20260818)
    # result_cache=False so the toggled-off arm really evaluates (ADVICE r04)
    engine = SearchEngine(built, parallel=False, result_cache=False)
    routes = engine_mod.TOP_K_ROUTES
    for _ in range(120):
        words = texts[rng.randrange(len(texts))].split()
        if len(words) < 3:
            continue
        i = rng.randrange(len(words) - 2)
        n = rng.choice([2, 2, 3])
        picked = [re.sub(r"[^a-z0-9]", "", w.lower()) for w in words[i : i + n]]
        if any(not w for w in picked):
            continue
        body = " ".join(picked)
        gap = rng.choice([0, 1, 2, 4])
        qs = f'"{body}"' if gap == 0 else f'"{body}"~{gap}'
        if rng.random() < 0.3:
            # boost can't suffix a proximity in the grammar -> group-wrap it
            qs = f"({qs})^{rng.choice([0.5, 2.0])}"
        k = rng.randint(1, 30)
        monkeypatch.setattr(engine_mod, "TOP_K_ROUTES", routes)
        a = engine.search(qs, k=k, with_meta=False)
        monkeypatch.setattr(engine_mod, "TOP_K_ROUTES", ())
        b = engine.search(qs, k=k, with_meta=False)
        assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist(), (qs, k)
        assert a["score"].to_pylist() == b["score"].to_pylist(), (qs, k)


@pytest.fixture(scope="module")
def spiked(ray_session, tmp_path_factory):
    """Two hot terms adjacent in EVERY doc once, except 30 spike docs in one
    narrow docid region where the phrase occurs 8 times — the spike block(s)
    carry the top phrase bounds, so θ clears every freq=1 block's bound after
    the first chunk and the rest of the anchor is never decoded."""
    import ray

    root = str(tmp_path_factory.mktemp("bmphrase_spike"))
    index_dir = os.path.join(root, "index")
    n = 6000
    spikes = set(range(1000, 1030))
    texts = []
    for i in range(n):
        filler = f"u{i % 977} v{i % 331}"
        if i in spikes:
            texts.append(("alpha beta " * 8) + filler)
        else:
            texts.append(f"alpha beta {filler}")
    tab = pa.table(
        {
            "conv_id": pa.array([f"c{i // 5:05d}" for i in range(n)], pa.string()),
            "turn_idx": pa.array([i % 5 for i in range(n)], pa.int32()),
            "role": pa.array(["user"] * n, pa.string()),
            "text": pa.array(texts, pa.string()),
            "tool": pa.array([""] * n, pa.string()),
            "ts": pa.array([1_700_000_000_000_000 + i for i in range(n)], pa.timestamp("us")),
        }
    )
    build_index(ray.data.from_arrow(tab), index_dir, num_segments=1, batch_size=1000)
    return index_dir


def test_phrase_actually_skips_decodes(spiked, monkeypatch):
    """hot phrase with small k: θ from the spike blocks must prune the rest —
    the constituent terms are never fully decoded."""
    from lucille_ray.index import codec

    engine = SearchEngine(spiked, parallel=False)
    scorer = engine._scorers()[0]
    r = max(scorer.readers, key=lambda rr: rr.doc_count)
    q, reqs, ctx = engine.plan('"alpha beta"')
    args, _w = phrase_parts(q)
    field, terms, gap = args["field"], args["terms"], args["gap"]

    # postings values decoded: docs, tfs and positions of the blocks read
    # (the packed row headers a read unpacks are block metadata, not counted)
    decoded_vals = {"n": 0}
    real = codec.RawBlocks.decode_blocks

    def counting(self, sel, want_positions=False):
        out = real(self, sel, want_positions)
        decoded_vals["n"] += sum(a.size for a in out if a is not None)
        return out

    for f in ("text", "role", "tool"):
        r.norms(f)
    monkeypatch.setattr(codec.RawBlocks, "decode_blocks", counting)
    r.cache = ReaderCache()
    cd, cs = phrase_top_k(r, ctx, field, terms, gap, k=10)
    phrase_decoded = decoded_vals["n"]
    ev = SegmentEval(r, ctx, collect_term_requests(q), query=q)
    ed, es = top_k(*ev.eval(q), 10)
    assert cd.tolist() == ed.tolist()
    np.testing.assert_array_equal(cs, es)
    df = ctx.df.get(("text", "alpha"), 0)
    assert df == r.doc_count
    # plain eval decodes >= 4*df values before positions (both full doc lists);
    # θ-pruning must touch far less even counting its positional decodes
    assert phrase_decoded < df, (
        f"decoded {phrase_decoded} values; plain eval decodes >= {4 * df}"
    )


def test_phrase_after_delete_routes_and_matches(
    spiked, ray_session, tmp_path_factory, monkeypatch
):
    """A segment with tombstones takes the block-max phrase executor like any
    other; its answer holds no deleted doc and equals the plain evaluator's,
    ranks and scores."""
    import shutil

    from lucille_ray.index import delete_conversations
    from lucille_ray.search import bmphrase

    idx = os.path.join(str(tmp_path_factory.mktemp("bmphrase_del")), "index")
    shutil.copytree(spiked, idx)
    engine0 = SearchEngine(idx, parallel=False)
    before = engine0.search('"alpha beta"', k=10, with_meta=True)
    victims = list(dict.fromkeys(before["conv_id"].to_pylist()))[:3]
    assert delete_conversations(idx, victims) > 0

    calls = []

    def counted(*a, **kw):
        calls.append(1)
        return bmphrase.phrase_top_k(*a, **kw)

    monkeypatch.setattr(engine_mod, "TOP_K_ROUTES", tuple(
        (m, counted if ex is bmphrase.phrase_top_k else ex)
        for m, ex in engine_mod.TOP_K_ROUTES))
    engine = SearchEngine(idx, parallel=False, result_cache=False)
    assert all(r.deleted is not None for r in engine._scorers()[0].readers)
    got = engine.search('"alpha beta"', k=10, with_meta=True)
    assert calls == [1]
    assert got.num_rows > 0
    assert not set(got["conv_id"].to_pylist()) & set(victims)
    monkeypatch.setattr(engine_mod, "TOP_K_ROUTES", ())
    assert engine.search('"alpha beta"', k=10, with_meta=True).equals(got)


@pytest.fixture(scope="module")
def flat(ray_session, tmp_path_factory):
    """Uniform hot x hot corpus: the phrase occurs once in EVERY doc with
    identical doc lengths, so every anchor block's bound is the shared max —
    the flat-bound path (nothing prunable) is forced."""
    import ray

    root = str(tmp_path_factory.mktemp("bmphrase_flat"))
    index_dir = os.path.join(root, "index")
    n = 4000
    texts = [f"data query w{i % 7} filler pad" for i in range(n)]
    tab = pa.table(
        {
            "conv_id": pa.array([f"c{i // 5:05d}" for i in range(n)], pa.string()),
            "turn_idx": pa.array([i % 5 for i in range(n)], pa.int32()),
            "role": pa.array(["user"] * n, pa.string()),
            "text": pa.array(texts, pa.string()),
            "tool": pa.array([""] * n, pa.string()),
            "ts": pa.array(
                [1_700_000_000_000_000 + i for i in range(n)], pa.timestamp("us")
            ),
        }
    )
    build_index(ray.data.from_arrow(tab), index_dir, num_segments=1, batch_size=1000)
    return index_dir


def _complete_then_cached(engine, qs, block_decodes):
    """Run ``qs``'s phrase executor cold on the one non-empty segment: it
    must decode every block of every term for docs (a complete pass) and
    equal the plain evaluator. Then through the scorer, whose ``result``
    pool alone keeps the answer: warm repeats at k=10 and k=3 decode
    nothing and stay bit-identical."""
    scorer = engine._scorers()[0]
    (r,) = [rr for rr in scorer.readers if rr.doc_count]
    q, reqs, ctx = engine.plan(qs)
    args, _w = phrase_parts(q)
    r.cache = ReaderCache()
    raw = r.raw_blocks_many(args["field"], list(dict.fromkeys(args["terms"])))
    block_decodes.clear()
    d1, s1 = phrase_top_k(r, ctx, k=10, **args)
    for term, rb in raw.items():
        decoded = sum(n for got, n, pos in block_decodes if got is rb and not pos)
        assert decoded == rb.count, (term, "a complete pass decodes every block")

    ev = SegmentEval(r, ctx, collect_term_requests(q), query=q)
    expected = {k: top_k(*ev.eval(q), k) for k in (10, 3)}
    assert d1.tolist() == expected[10][0].tolist()
    np.testing.assert_array_equal(s1, expected[10][1])
    scorer.score(q, reqs, ctx, 10)
    for k in (10, 3):
        block_decodes.clear()
        d, s = scorer.score(q, reqs, ctx, k)
        assert block_decodes == [], f"warm repeat at k={k} must not decode"
        assert d.tolist() == expected[k][0].tolist()
        np.testing.assert_array_equal(s, expected[k][1])


def test_flat_match_cache_warm_repeat(flat, block_decodes):
    """Flat-bound (hot x hot) phrase: the first evaluation is a complete
    pass, and a repeat query answered from the ``result`` pool decodes
    nothing and is bit-identical at the same or a smaller k (VERDICT r03
    #3)."""
    _complete_then_cached(SearchEngine(flat, parallel=False), '"data query"~2', block_decodes)


def test_flat_match_cache_byte_cap(flat, monkeypatch):
    """The answer pool (``result``) evicts the oldest entries past the
    reader cache's byte budget instead of growing, and keeps the new
    entry."""
    import lucille_ray.index.segment as seg_mod

    engine = SearchEngine(flat, parallel=False)
    scorer = engine._scorers()[0]
    r = max(scorer.readers, key=lambda rr: rr.doc_count)

    r.cache = ReaderCache()
    big = np.zeros(1024, np.int64)
    for i in range(3):
        r.cache.put("result", f"t{i}", (10, big, big.astype(np.float64)))
    assert r.cache.stats()["result"]["entries"] == 3  # far under the cap: all kept
    monkeypatch.setattr(seg_mod, "READER_CACHE_BYTES", 3 * 2 * big.nbytes)
    r.cache.put("result", "tx", (10, big, big.astype(np.float64)))
    assert r.cache.stats()["result"]["entries"] < 4
    assert r.cache.get("result", "t0") is None  # oldest evicted
    assert r.cache.get("result", "tx") is not None


@pytest.fixture(scope="module")
def jittered(ray_session, tmp_path_factory):
    """The 10M hot x hot shape: every anchor block's dl_min comes from a SHORT
    doc that contains both words but NOT the phrase, while actual matches live
    only in LONG docs — so per-block sigma varies past THETA_EPS (`prunable`
    reads ~1.0, forcing the theta branch) yet no actual score clears any
    block's bound (theta prunes nothing -> the pass is complete)."""
    import ray

    root = str(tmp_path_factory.mktemp("bmphrase_jitter"))
    index_dir = os.path.join(root, "index")
    n = 4000
    texts = []
    for i in range(n):
        if i % 2 == 0:
            texts.append("data query " + " ".join(f"w{j}" for j in range(20 + i % 7)))
        else:
            # both words, wrong order: feasible for the block, never a match;
            # pad length varies on a COARSER-than-block stripe so per-block
            # dl_min (and sigma) actually differ across anchor blocks
            texts.append(
                "query data " + " ".join(f"p{j}" for j in range((i // 256) % 8))
            )
    tab = pa.table(
        {
            "conv_id": pa.array([f"c{i // 5:05d}" for i in range(n)], pa.string()),
            "turn_idx": pa.array([i % 5 for i in range(n)], pa.int32()),
            "role": pa.array(["user"] * n, pa.string()),
            "text": pa.array(texts, pa.string()),
            "tool": pa.array([""] * n, pa.string()),
            "ts": pa.array(
                [1_700_000_000_000_000 + i for i in range(n)], pa.timestamp("us")
            ),
        }
    )
    build_index(ray.data.from_arrow(tab), index_dir, num_segments=1, batch_size=1000)
    return index_dir


def test_theta_branch_complete_pass_is_cached(jittered, block_decodes):
    """When the theta branch ends up processing EVERY feasible block (survivor
    cut prunes nothing — the measured 10M hot-phrase behavior), the pass is
    complete and its answer is reused exactly like the flat path's: warm
    repeats decode nothing and stay bit-identical at the same or a smaller
    k."""
    engine = SearchEngine(jittered, parallel=False)
    r = max(engine._scorers()[0].readers, key=lambda rr: rr.doc_count)
    q, _reqs, _ctx = engine.plan('"data query"')
    args, _w = phrase_parts(q)

    # precondition: this corpus really exercises the theta (prunable) branch
    uniq = list(dict.fromkeys(args["terms"]))
    raw = r.raw_blocks_many(args["field"], uniq)
    anchor = min(uniq, key=lambda t: int(raw[t].ns.sum()))
    assert np.unique(raw[anchor].min_dl).size > 1, "fixture must jitter per-block min_dl"

    _complete_then_cached(engine, '"data query"', block_decodes)
