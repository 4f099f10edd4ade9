"""Cache-lifecycle identity soak (VERDICT r04 #3).

Round 4 added four per-reader caches (the exact top-k result cache in
engine.py, the driver-side term-stats/df cache, and the bmconj/bmphrase
complete-pass match caches) plus the single-term top-k memo. Readers are
per-segment and rebuilt whenever an engine opens a commit point, which should
make cache invalidation STRUCTURAL across the whole index lifecycle — this
test proves it instead of assuming it: build -> warm queries (populate every
cache family) -> append_index -> delete_conversations -> compact_index, and
at every commit point a caches-ON engine (first pass populates, second pass
serves from cache) must stay bit-identical to a fresh engine with every
block-max path AND the result cache pinned off (the plain evaluator — the
strongest independent reference).

Also guards the on-disk side channels: the norms .npy files and the
per-segment doc maps (convmap.parquet) are keyed by segment dir, and
compaction rewrites segment dirs — a stale file surviving a rewrite would show
up here as a score or metadata mismatch at the post-compact step.

The per-reader caches themselves are one byte-budgeted ReaderCache
(index/segment.py): a unit test pins its LRU and byte accounting, and a soak
under a budget a few hot-term decodes wide checks that eviction under pressure
never changes an answer.
"""

import os

import numpy as np
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from lucille_ray import transcripts as T
from lucille_ray.index import compact_index, delete_conversations
from lucille_ray.index.build import append_index, build_index
import lucille_ray.index.segment as seg_mod
from lucille_ray.index.segment import ReaderCache
import lucille_ray.search.engine as engine_mod
from lucille_ray.search.engine import SearchEngine
from lucille_ray.search.oracle import BruteForceOracle

# one query per cache-feeding path: single-term memo, bmconj (+negation),
# WAND, m-of-n, phrase/proximity match cache, expansion WAND, fuzzy, field
LIFECYCLE_QUERIES = [
    "data",
    "data AND query",
    "data AND NOT query",
    "deploy OR jump",
    "(data query join)@2",
    '"lazy evaluation"',
    '"data query"~2',
    "deploy*",
    "cat~1",
    "role:assistant AND deploy",
    "(data AND query)^1.5 OR jump^0.5",
]


def _answers(engine, k=20):
    out = {}
    for qs in LIFECYCLE_QUERIES:
        t = engine.search(qs, k=k, with_meta=True)
        out[qs] = (
            t["doc_id"].to_pylist(),
            t["score"].to_pylist(),
            t["conv_id"].to_pylist(),
            t["turn_idx"].to_pylist(),
        )
    return out


def _assert_step_identity(index_dir, step, monkeypatch):
    """caches-ON engine, warm (pass 2 of 2) vs plain-evaluator caches-OFF
    engine — ranks, scores, and metadata must match bit-for-bit."""
    cached = SearchEngine(index_dir, parallel=False, result_cache=True)
    cold = _answers(cached)  # populates result/match/term caches
    warm = _answers(cached)  # served from the caches
    assert warm == cold, f"{step}: cache population changed answers"

    # an empty routing table pins every shape to the plain evaluator
    monkeypatch.setattr(engine_mod, "TOP_K_ROUTES", ())
    plain = SearchEngine(index_dir, parallel=False, result_cache=False)
    ref = _answers(plain)
    monkeypatch.undo()
    for qs in LIFECYCLE_QUERIES:
        assert warm[qs][0] == ref[qs][0], f"{step}: {qs!r} ranks diverged"
        assert warm[qs][1] == ref[qs][1], f"{step}: {qs!r} scores diverged"
        assert warm[qs][2:] == ref[qs][2:], f"{step}: {qs!r} metadata diverged"
    return warm


@pytest.fixture(scope="module")
def lifecycle_corpus(ray_session, tmp_path_factory):
    root = str(tmp_path_factory.mktemp("lr_cache_lc"))
    data_dir = os.path.join(root, "data")
    T.generate(1200, data_dir, num_files=3)
    table = pq.read_table(data_dir)
    convs = sorted(set(table["conv_id"].to_pylist()))
    cut = convs[int(len(convs) * 0.7)]
    mask = pc.less(table["conv_id"], cut)
    base_p = os.path.join(root, "base.parquet")
    app_p = os.path.join(root, "app.parquet")
    pq.write_table(table.filter(mask), base_p)
    pq.write_table(table.filter(pc.invert(mask)), app_p)
    return root, base_p, app_p


def test_cache_identity_through_full_lifecycle(
    lifecycle_corpus, ray_session, monkeypatch, tmp_path
):
    import ray.data

    root, base_p, app_p = lifecycle_corpus
    index_dir = str(tmp_path / "idx")

    # -- build --
    build_index(
        ray.data.read_parquet(base_p), index_dir, num_segments=2,
        range_width=256, batch_size=400,
    )
    built_ans = _assert_step_identity(index_dir, "build", monkeypatch)

    # -- append: new commit point, new readers, caches must not leak --
    append_index(
        ray.data.read_parquet(app_p), index_dir, num_segments=2, batch_size=400
    )
    app_ans = _assert_step_identity(index_dir, "append", monkeypatch)
    assert app_ans != built_ans, "append changed the corpus; answers must move"

    # -- delete: tombstoned segments keep their executors, and cached
    # answers must still match (cache key = commit point) --
    eng = SearchEngine(index_dir, parallel=False)
    victims = list(dict.fromkeys(eng.search("data", k=5)["conv_id"].to_pylist()))[:2]
    assert delete_conversations(index_dir, victims) > 0
    del_ans = _assert_step_identity(index_dir, "delete", monkeypatch)
    for qs, (_d, _s, conv, _t) in del_ans.items():
        assert not set(conv) & set(victims), f"{qs!r} returned a deleted conv"

    # -- compact: purges tombstones and REWRITES segment dirs; any stale
    # on-disk side file (norms .npy, docmap row-group stats) would surface here --
    compact_index(index_dir)
    comp_ans = _assert_step_identity(index_dir, "compact", monkeypatch)
    for qs, (_d, _s, conv, _t) in comp_ans.items():
        assert not set(conv) & set(victims), f"{qs!r} resurrected a purged conv"


def test_reader_cache_lru_bytes_and_stats(monkeypatch):
    """One LRU over every pool: a hit refreshes an entry, eviction takes the
    least recently used, replace/pop keep the byte total exact, an entry over
    the whole budget is returned but not kept, and stats() counts it all."""
    over = seg_mod._ENTRY_BYTES  # charged per entry on top of its arrays
    a = np.zeros(100, np.int64)  # 800 B
    unit = a.nbytes + over
    monkeypatch.setattr(seg_mod, "READER_CACHE_BYTES", 3 * unit + 200)
    c = ReaderCache()
    c.put("p", 1, a)
    c.put("p", 2, (a, 7))  # scalars count 0
    c.put("q", 3, a)
    assert c.get("p", 1) is a  # hit: LRU order is now 2, 3, 1
    c.put("q", 4, a)  # a fourth unit is over budget: evicts 2, not the older-but-hit 1
    assert c.get("p", 2) is None
    assert c.get("p", 1) is a
    small = np.zeros(10, np.int64)
    c.put("q", 3, small)  # replace: 800 array bytes out, 80 in
    assert c.pop("q", 4) is a
    assert c.pop("q", 4) is None
    big = np.zeros(1000, np.int64)
    assert c.put("p", 9, big) is big  # over the budget: returned, not kept
    assert c.get("p", 9) is None
    assert c.get("q", 3) is small
    assert c.stats() == {
        "p": {"entries": 1, "bytes": unit, "hits": 2, "misses": 2, "evictions": 2},
        "q": {"entries": 1, "bytes": 80 + over, "hits": 1, "misses": 0, "evictions": 0},
    }
    # zero-byte values (empty results, absent terms) are bounded too
    for i in range(100):
        c.put("r", i, (np.empty(0), np.empty(0)))
    assert sum(p["bytes"] for p in c.stats().values()) <= seg_mod.READER_CACHE_BYTES
    assert c.stats()["r"]["evictions"] > 0


@pytest.fixture(scope="module")
def soak_index(lifecycle_corpus, ray_session):
    import ray.data

    root, base_p, _app_p = lifecycle_corpus
    index_dir = os.path.join(root, "soak_idx")
    build_index(
        ray.data.read_parquet(base_p), index_dir, num_segments=2,
        range_width=256, batch_size=400,
    )
    return index_dir, pq.read_table(base_p)


def _soak_queries(engine):
    """Every routed shape over the corpus's hottest terms, plus expansions."""
    r = max(engine._scorers()[0].readers, key=lambda rr: rr.doc_count)
    terms, dfs = r.term_dict("text")
    hot = [str(t) for t in terms[np.argsort(-dfs, kind="stable")[:12]]]
    qs = []
    for i, a in enumerate(hot):
        b, c = hot[(i + 1) % len(hot)], hot[(i + 2) % len(hot)]
        qs += [
            a,  # single term
            f"{a} OR {b}",  # disjunction
            f"({a} {b} {c})@2",  # m-of-n
            f"{a} AND {b}",  # conjunction
            f"{a} AND NOT {c}",
            f"({a} OR {b}) AND {c}",
            f'"{a} {b}"',  # phrase
            f'"{a} {c}"~2',  # proximity
            f"{a[:2]}*",  # expansion
        ]
    return list(dict.fromkeys(qs)), r


def _rows(engine, qs, k=10):
    t = engine.search(qs, k=k, with_meta=False)
    return list(zip(t["doc_id"].to_pylist(), t["score"].to_pylist()))


def test_small_budget_soak_stays_bounded_and_exact(soak_index, monkeypatch):
    """With READER_CACHE_BYTES a few hot-term decodes wide, every query of
    every routed shape, cold and then cached (an immediate repeat, and again
    a full pass later), answers bit-identically to the plain evaluator and
    rank-identically to the brute-force oracle — with the result pool on and
    off — while each reader's cache stays inside the budget and evicts."""
    index_dir, table = soak_index
    engines = [
        SearchEngine(index_dir, parallel=False, result_cache=rc) for rc in (True, False)
    ]
    queries, hot_reader = _soak_queries(engines[0])
    docs, tfs, _ = hot_reader.postings("text", queries[0])
    budget = 4 * (docs.nbytes + tfs.nbytes)
    monkeypatch.setattr(seg_mod, "READER_CACHE_BYTES", budget)

    with monkeypatch.context() as m:
        m.setattr(engine_mod, "TOP_K_ROUTES", ())
        plain = SearchEngine(index_dir, parallel=False, result_cache=False)
        ref = {qs: _rows(plain, qs) for qs in queries}
    oracle = BruteForceOracle(table)
    for qs in queries:
        exp = oracle.search(qs, k=10)
        assert [d for d, _ in ref[qs]] == [d for d, _ in exp], qs
        assert all(abs(g - e) < 1e-9 for (_, g), (_, e) in zip(ref[qs], exp)), qs

    readers = [r for e in engines for r in e._scorers()[0].readers]
    for r in readers:
        r.cache = ReaderCache()  # drop what the warm-up lookups left
    for pass_no in range(2):
        for qs in queries:
            for engine in engines:
                for _repeat in range(2):
                    assert _rows(engine, qs) == ref[qs], (pass_no, qs)
                    for r in readers:
                        used = sum(p["bytes"] for p in r.cache.stats().values())
                        assert used <= budget, (qs, used, budget)
    hits = {}
    for r in readers:
        st = r.cache.stats()
        assert sum(p["evictions"] for p in st.values()) > 0
        for pool, c in st.items():
            hits[pool] = hits.get(pool, 0) + c["hits"]
    for pool in ("result", "post", "raw", "score"):
        assert hits[pool] > 0, (pool, hits)


def test_engine_cache_stats_from_scorer_actors(soak_index, ray_session):
    """SearchEngine.cache_stats() reads each segment's ReaderCache inside the
    Ray scorer actors: after a repeated burst every reader holds entries,
    has hits, and stays inside the default budget; next to the pools, its
    ``postings_read`` counts the cold lookups' postings reads."""
    index_dir, _table = soak_index
    engine = SearchEngine(index_dir, parallel=True)
    try:
        for _ in range(2):
            for qs in ("data", "data OR query", "data AND query", '"data query"~2'):
                engine.search(qs, k=10)
        per_scorer = engine.cache_stats()
        segs = {d: st for got in per_scorer for d, st in got.items()}
        assert sorted(segs) == sorted(engine.seg_dirs)
        for st in segs.values():
            read = st.pop("postings_read")
            assert read["calls"] > 0 and read["row_groups"] > 0, read
            assert read["compressed_bytes"] > 0, read
            used = sum(p["bytes"] for p in st.values())
            assert 0 < used <= seg_mod.READER_CACHE_BYTES
            assert st["result"]["hits"] > 0
    finally:
        engine.shutdown()
