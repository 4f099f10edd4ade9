"""Training-data pipeline operators: dedup (exact/MinHash/SimHash), similarity
search (brute + IVF), text stats, multimodal plumbing."""

import numpy as np
import pyarrow as pa
import pytest

from lucille_ray.ops import (
    IVFIndex,
    attach_fake_images,
    exact_dedup,
    image_features,
    knn_brute,
    minhash_dedup,
    minhash_dedup_verified,
    ngram_jaccard,
    simhash_signatures,
)
from lucille_ray.ops.dedup import MinHasher


def _docs_ds(texts):
    import ray.data

    return ray.data.from_arrow(
        pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts)})
    )


def test_exact_dedup_groups_identical_texts(ray_session):
    texts = ["a b c", "d e f", "a b c", "g h", "a b c", "d e f"]
    out = exact_dedup(_docs_ds(texts)).to_pandas()
    out = out.rename(columns={"min(doc_id)": "keep_id", "count()": "dup_count"})
    by_keep = {int(r.keep_id): int(r.dup_count) for r in out.itertuples()}
    assert by_keep == {0: 3, 1: 2, 3: 1}


def test_minhash_finds_planted_near_duplicates(ray_session):
    base = ("the quick brown fox jumps over the lazy dog and runs far away "
            "into the deep green forest tonight").split()
    texts = []
    for i in range(20):
        texts.append(" ".join(np.random.default_rng(i).permutation(base)[:12]))
    near_dup = " ".join(base) + " extra"
    texts += [" ".join(base), near_dup]  # docs 20, 21: ~0.9 shingle overlap
    pairs = minhash_dedup(_docs_ds(texts), threshold=0.5, num_perm=64, bands=16).to_pandas()
    found = {(int(a), int(b)) for a, b in zip(pairs["a"], pairs["b"])}
    assert (20, 21) in found
    # sanity: jaccard of the planted pair really is high; random pairs are not
    assert ngram_jaccard(base, base + ["extra"]) > 0.8
    assert ngram_jaccard(texts[0].split(), texts[1].split()) < 0.3


def test_minhash_verified_small_and_join_paths_identical(ray_session):
    """The broadcast small-pairs verify path and the chained-hash-join path
    keep the exact same (a, b, jaccard) rows."""
    base = ("the quick brown fox jumps over the lazy dog and runs far away "
            "into the deep green forest tonight").split()
    texts = []
    for i in range(16):
        texts.append(" ".join(np.random.default_rng(i).permutation(base)[:12]))
    texts += [" ".join(base), " ".join(base) + " extra"]
    ds = _docs_ds(texts)
    small = (
        minhash_dedup_verified(ds, est_threshold=0.3, jaccard_threshold=0.4,
                               num_perm=64, bands=16)
        .to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
    )
    joined = (
        minhash_dedup_verified(ds, est_threshold=0.3, jaccard_threshold=0.4,
                               num_perm=64, bands=16, small_pairs=0,
                               num_partitions=2)
        .to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
    )
    assert len(small) > 0 and small.equals(joined)


def test_simhash_deterministic_and_similarity_sensitive(ray_session):
    texts = ["alpha beta gamma delta epsilon zeta", "alpha beta gamma delta epsilon eta",
             "completely different words here now"]
    out = simhash_signatures(_docs_ds(texts)).to_pandas().sort_values("doc_id")
    h = out["simhash"].to_numpy().astype(np.uint64)
    out2 = simhash_signatures(_docs_ds(texts)).to_pandas().sort_values("doc_id")
    assert (h == out2["simhash"].to_numpy().astype(np.uint64)).all()
    ham = lambda a, b: bin(int(a) ^ int(b)).count("1")
    assert ham(h[0], h[1]) < ham(h[0], h[2])


def test_minhash_estimates_jaccard(ray_session):
    mh = MinHasher(num_perm=128, shingle_k=2)
    a = "one two three four five six seven eight nine ten".split()
    b = "one two three four five six seven eight different words".split()
    sa, sb = mh.signature(a), mh.signature(b)
    est = (sa == sb).mean()
    true = ngram_jaccard(a, b, k=2)
    assert abs(est - true) < 0.2


def _emb_ds(n=100, dim=16, seed=3):
    import ray.data

    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, dim)).astype(np.float32)
    t = pa.table({
        "vec_id": pa.array(range(n), pa.int64()),
        "embedding": pa.array([list(map(float, row)) for row in m],
                              pa.list_(pa.float32())),
    })
    return ray.data.from_arrow(t), m


def test_knn_brute_matches_numpy(ray_session):
    ds, m = _emb_ds()
    q = m[:2].astype(np.float64)
    t = knn_brute(ds, np.array([0, 1]), q, k=5)
    mm = m.astype(np.float64)
    mm /= np.linalg.norm(mm, axis=1, keepdims=True)
    sims = (q / np.linalg.norm(q, axis=1, keepdims=True)) @ mm.T
    for qi in (0, 1):
        expect = np.lexsort((np.arange(len(mm)), -sims[qi]))[:5]
        got = t.filter(pa.compute.equal(t["query_id"], qi))["neighbor_id"].to_pylist()
        assert got == expect.tolist()

    # many queries over duplicated vectors, spread over several batches: every
    # entry is 0 or +-1 with four nonzeros, so norms are exactly 2 and every
    # sim is an exact multiple of 1/4 — ties are real, not rounding accidents
    import ray.data

    rng = np.random.default_rng(11)
    base = np.zeros((120, 8))
    for row in base:
        row[rng.choice(8, 4, replace=False)] = rng.choice([-1.0, 1.0], 4)
    m2 = np.concatenate([base, base[:60], base[:20]])
    ids = rng.permutation(len(m2)).astype(np.int64)
    ds2 = ray.data.from_arrow(pa.table({
        "vec_id": pa.array(ids),
        "embedding": pa.array(m2.tolist(), pa.list_(pa.float32())),
    })).repartition(4)
    qids = rng.permutation(40).astype(np.int64) * 3 + 5
    q2 = base[rng.choice(len(base), len(qids))]
    k = 7
    t2 = knn_brute(ds2, qids, q2, k=k)
    sims2 = (q2 / 2.0) @ (m2 / 2.0).T
    rows = {"query_id": [], "neighbor_id": [], "sim": [], "rank": []}
    for qi in np.argsort(qids):
        top = np.lexsort((ids, -sims2[qi]))[:k]
        assert np.unique(sims2[qi][top]).size < k  # ties inside the top-k
        rows["query_id"] += [int(qids[qi])] * len(top)
        rows["neighbor_id"] += ids[top].tolist()
        rows["sim"] += sims2[qi][top].tolist()
        rows["rank"] += list(range(1, len(top) + 1))
    expect2 = pa.table({
        "query_id": pa.array(rows["query_id"], pa.int64()),
        "neighbor_id": pa.array(rows["neighbor_id"], pa.int64()),
        "sim": pa.array(rows["sim"], pa.float64()),
        "rank": pa.array(rows["rank"], pa.int64()),
    })
    assert t2.equals(expect2)


def test_ivf_recall_top1(ray_session, tmp_path):
    ds, m = _emb_ds(n=200)
    q = m[10:13].astype(np.float64)
    idx = IVFIndex(n_clusters=8, n_iter=5, path=str(tmp_path / "ivf")).fit(ds)
    t = idx.search(np.array([10, 11, 12]), q, k=1, nprobe=4)
    # the query vectors themselves must be their own top-1 (they're in the data)
    assert t["neighbor_id"].to_pylist() == [10, 11, 12]


def test_ivf_recall_at_k_vs_brute(ray_session, tmp_path):
    """Recall@5 >= 0.9 against exact knn_brute on the same data — the golden
    check that keeps ivf_knn honest without an SQL oracle."""
    ds, m = _emb_ds(n=400, dim=16, seed=7)
    qids = np.arange(5, dtype=np.int64)
    q = m[:5].astype(np.float64)
    exact = knn_brute(ds, qids, q, k=5)
    idx = IVFIndex(n_clusters=8, n_iter=8, path=str(tmp_path / "ivf")).fit(ds)
    approx = idx.search(qids, q, k=5, nprobe=4)
    hits = total = 0
    for qi in qids:
        e = set(exact.filter(pa.compute.equal(exact["query_id"], qi))["neighbor_id"].to_pylist())
        a = set(approx.filter(pa.compute.equal(approx["query_id"], qi))["neighbor_id"].to_pylist())
        hits += len(e & a)
        total += len(e)
    assert hits / total >= 0.9


def test_ivf_load_reattaches_persisted_index(ray_session, tmp_path):
    ds, m = _emb_ds(n=150)
    path = str(tmp_path / "ivf_store")
    IVFIndex(n_clusters=4, n_iter=4, path=path).fit(ds)
    idx = IVFIndex.load(path)  # fresh object, no fit
    q = m[3:5].astype(np.float64)
    t = idx.search(np.array([3, 4]), q, k=1, nprobe=4)
    assert t["neighbor_id"].to_pylist() == [3, 4]


def test_embedding_near_dups_ann_finds_planted_pair(ray_session):
    from lucille_ray.ops import embedding_near_dups, embedding_near_dups_ann

    ds, m = _emb_ds(n=120, dim=16, seed=11)
    import ray.data

    dup = m[7] + np.random.default_rng(1).normal(scale=0.005, size=m.shape[1]).astype(np.float32)
    t = pa.table({
        "vec_id": pa.array(list(range(120)) + [120], pa.int64()),
        "embedding": pa.array([list(map(float, r)) for r in np.vstack([m, dup])],
                              pa.list_(pa.float32())),
    })
    ds2 = ray.data.from_arrow(t)
    exact = embedding_near_dups(ds2, threshold=0.95)
    approx = embedding_near_dups_ann(ds2, threshold=0.95, n_clusters=6, nprobe=2)
    got = set(zip(approx["a"].to_pylist(), approx["b"].to_pylist()))
    assert (7, 120) in got
    # ANN output must be a subset of the exact pairs (no false positives) and
    # multi-probe dedup must hold (no repeated pairs)
    exact_pairs = set(zip(exact["a"].to_pylist(), exact["b"].to_pylist()))
    assert got <= exact_pairs
    assert len(got) == approx.num_rows


def test_embedding_near_dups(ray_session):
    from lucille_ray.ops import embedding_near_dups

    ds, m = _emb_ds(n=60)
    import ray.data

    # plant a near-duplicate of vector 5 as id 60
    dup = m[5] + np.random.default_rng(0).normal(scale=0.01, size=m.shape[1]).astype(np.float32)
    t = pa.table({
        "vec_id": pa.array(list(range(60)) + [60], pa.int64()),
        "embedding": pa.array([list(map(float, r)) for r in np.vstack([m, dup])],
                              pa.list_(pa.float32())),
    })
    pairs = embedding_near_dups(ray.data.from_arrow(t), threshold=0.95, block_rows=16)
    got = set(zip(pairs["a"].to_pylist(), pairs["b"].to_pylist()))
    assert (5, 60) in got
    assert all(a < b for a, b in got)


def test_embedding_near_dups_row_bound_trips(ray_session):
    """The exact O(N^2) path must refuse oversized inputs BEFORE scheduling
    any quadratic pair task (VERDICT r02 #3)."""
    import ray.data

    from lucille_ray.ops.similarity import embedding_near_dups

    rng = np.random.default_rng(7)
    emb = rng.normal(size=(64, 8))
    tab = pa.table(
        {
            "vec_id": pa.array(np.arange(64), pa.int64()),
            "embedding": pa.array(list(emb), pa.list_(pa.float64())),
        }
    )
    ds = ray.data.from_arrow(tab)
    with pytest.raises(ValueError, match="O\\(N\\^2\\)"):
        embedding_near_dups(ds, max_rows=10)
    # under the bound it still runs
    out = embedding_near_dups(ds, threshold=0.99, max_rows=1000)
    assert set(out.column_names) == {"a", "b", "sim"}


def test_score_query_dataset(ray_session, tmp_path):
    """Bulk query scoring pipeline matches per-query search; bad queries get
    error rows instead of poisoning the batch."""
    import ray.data

    from lucille_ray import transcripts as T
    from lucille_ray.index.build import build_index
    from lucille_ray.search import SearchEngine, score_query_dataset

    data_dir = str(tmp_path / "bulk_data")
    index_dir = str(tmp_path / "bulk_idx")
    T.generate(600, data_dir, num_files=2)
    build_index(T.read_transcripts(data_dir), index_dir, num_segments=1, batch_size=300)
    queries = ["data", "data AND query", '"lazy evaluation"', "cat OR", "deploy*"]
    qds = ray.data.from_items([{"query": q} for q in queries])
    out = score_query_dataset(index_dir, qds, k=5).to_pandas()
    eng = SearchEngine(index_dir, parallel=False)
    for q in queries:
        rows = out[out["query"] == q]
        if q == "cat OR":
            assert (rows["error"] != "").all() and len(rows) == 1
            continue
        expect = eng.search(q, k=5, with_meta=False)["doc_id"].to_pylist()
        assert rows.sort_values("rank")["doc_id"].tolist() == expect


def test_bpe_token_counts(ray_session):
    import re

    from lucille_ray.ops import bpe_token_counts
    from lucille_ray.ops.textstats import BPE_TOKEN_REGEX

    texts = ["I'll scan 42 rows, won't I?", "", "  spaces   only  ", "héllo wörld"]
    out = bpe_token_counts(_docs_ds(texts)).to_pandas().sort_values("doc_id")
    expect = [len(re.findall(BPE_TOKEN_REGEX, t)) for t in texts]
    assert out["n_bpe_tokens"].tolist() == expect
    assert expect[0] > 5  # contractions/digits/punctuation split


def test_sessionize_gap_semantics(ray_session):
    import pandas as pd
    import ray.data

    from lucille_ray.ops import sessionize

    base = pd.Timestamp("2024-01-01")
    rows = [
        # user 1: two sessions (gap of 2h > 1h threshold between idx 1 and 2)
        {"user_id": 1, "event_id": 0, "ts": base, "value": 1.0},
        {"user_id": 1, "event_id": 1, "ts": base + pd.Timedelta("30min"), "value": 2.0},
        {"user_id": 1, "event_id": 2, "ts": base + pd.Timedelta("2h31min"), "value": 4.0},
        # user 2: one session
        {"user_id": 2, "event_id": 3, "ts": base, "value": 8.0},
    ]
    out = (
        sessionize(ray.data.from_items(rows), gap_seconds=3600)
        .to_pandas()
        .sort_values(["user_id", "session_idx"])
        .reset_index(drop=True)
    )
    assert out["n_events"].tolist() == [2, 1, 1]
    assert out["total_value_r"].tolist() == [3.0, 4.0, 8.0]
    assert out.loc[0, "end_ts"] == base + pd.Timedelta("30min")


def test_tumbling_window_agg(ray_session):
    import pandas as pd
    import ray.data

    from lucille_ray.ops import tumbling_window_agg

    base = pd.Timestamp("2024-01-01")  # epoch-aligned hour boundary
    rows = [
        {"user_id": 1, "ts": base, "value": 1.25},
        {"user_id": 1, "ts": base + pd.Timedelta("59min"), "value": 2.50},
        {"user_id": 1, "ts": base + pd.Timedelta("61min"), "value": 4.00},
        {"user_id": 2, "ts": base + pd.Timedelta("30min"), "value": 8.00},
    ]
    out = (
        tumbling_window_agg(ray.data.from_items(rows), window_seconds=3600)
        .to_pandas()
        .sort_values(["user_id", "window_start"])
        .reset_index(drop=True)
    )
    assert out["n_events"].tolist() == [2, 1, 1]
    assert out["total_value_r"].tolist() == [3.75, 4.00, 8.00]
    w0 = int(base.timestamp())
    assert out["window_start"].tolist() == [w0, w0 + 3600, w0]


def test_asof_prev_event(ray_session):
    import pandas as pd
    import ray.data

    from lucille_ray.ops.joins import asof_prev_event

    base = pd.Timestamp("2024-01-01")
    rows = [
        {"user_id": 1, "event_id": 10, "ts": base, "event_type": "view"},
        {"user_id": 1, "event_id": 11, "ts": base + pd.Timedelta("5min"), "event_type": "click"},
        {"user_id": 1, "event_id": 12, "ts": base + pd.Timedelta("6min"), "event_type": "buy"},
        # user 2: single event -> no output row (inner as-of)
        {"user_id": 2, "event_id": 20, "ts": base, "event_type": "view"},
    ]
    out = (
        asof_prev_event(ray.data.from_items(rows))
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    assert out["event_id"].tolist() == [11, 12]
    assert out["prev_event_id"].tolist() == [10, 11]
    assert out["prev_type"].tolist() == ["view", "click"]
    assert out["gap_us"].tolist() == [300_000_000, 60_000_000]
    assert str(out["ts"].dtype) == "datetime64[us]"
    assert str(out["prev_ts"].dtype) == "datetime64[us]"


def test_range_count_nearby(ray_session):
    import pandas as pd
    import ray.data

    from lucille_ray.ops.joins import range_count_nearby

    base = pd.Timestamp("2024-01-01")
    rows = [
        {"user_id": 1, "event_id": 0, "ts": base},
        {"user_id": 1, "event_id": 1, "ts": base + pd.Timedelta("30s")},
        {"user_id": 1, "event_id": 2, "ts": base + pd.Timedelta("61s")},  # 61s from e0
        {"user_id": 1, "event_id": 3, "ts": base + pd.Timedelta("10min")},
        {"user_id": 2, "event_id": 4, "ts": base},
    ]
    out = (
        range_count_nearby(ray.data.from_items(rows), window_seconds=60)
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    # windows are inclusive and include self:
    # e0 sees {e0,e1}; e1 sees {e0,e1,e2}; e2 sees {e1,e2}; e3 sees {e3}; e4 {e4}
    assert out["n_nearby"].tolist() == [2, 3, 2, 1, 1]


def test_pricing_summary_matches_pandas(ray_session):
    import ray.data

    from lucille_ray.ops.relational import pricing_summary

    ds = ray.data.read_parquet(
        "/root/testdata/sf0.001/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice", "l_discount", "l_tax"],
    )
    out = pricing_summary(ds).to_pandas().set_index(["l_returnflag", "l_linestatus"])
    import pandas as pd

    raw = pd.read_parquet("/root/testdata/sf0.001/lineitem.parquet")
    grp = raw.groupby(["l_returnflag", "l_linestatus"])
    exp_cnt = grp.size()
    for key, row in out.iterrows():
        assert row["count_order"] == exp_cnt[key]
        assert abs(row["sum_base_price"] - grp["l_extendedprice"].sum()[key]) < 1e-6
        disc = (raw["l_extendedprice"] * (1 - raw["l_discount"])).groupby(
            [raw["l_returnflag"], raw["l_linestatus"]]).sum()
        assert abs(row["sum_disc_price"] - disc[key]) < 1e-4


def test_pricing_limb_accumulation_exact_past_int64():
    """The (hi, lo) limb decomposition stays exact where a plain int64 sum
    of partials would overflow (the 10^12-row / hugeint scale case)."""
    import numpy as np

    from lucille_ray.ops.relational import _LIMB, _combine_limbs, _split_limbs
    import pyarrow as pa

    rng = np.random.default_rng(7)
    # Partials near the top of the int64-safe per-batch range; their true
    # total (~2e20) overflows int64 by ~20x.
    partials = rng.integers(low=int(8e16), high=int(1e17), size=2000, dtype=np.int64)
    true_total = int(sum(int(p) for p in partials))
    assert true_total > 2**63  # the naive sum would overflow

    hi, lo = _split_limbs(partials)
    # Mimic Ray's cross-partial Sum: int64 sums over each limb column.
    hi_sum = int(np.sum(hi.to_numpy(), dtype=np.int64))
    lo_sum = int(np.sum(lo.to_numpy(), dtype=np.int64))
    t = pa.table({"sum(x_hi)": [hi_sum], "sum(x_lo)": [lo_sum]})
    assert _combine_limbs(t, "x") == [true_total]
    assert hi_sum * _LIMB + lo_sum == true_total


def test_image_feature_stage(ray_session):
    ds = _docs_ds(["x"] * 10).select_columns(["doc_id"])
    feats = image_features(attach_fake_images(ds, side=8), batch_size=4).to_pandas()
    assert set(feats.columns) >= {"doc_id", "pix_mean", "pix_std", "image_width"}
    assert len(feats) == 10
    again = image_features(attach_fake_images(ds, side=8), batch_size=4).to_pandas()
    f1 = feats.sort_values("doc_id")["pix_mean"].to_numpy()
    f2 = again.sort_values("doc_id")["pix_mean"].to_numpy()
    assert (f1 == f2).all()  # deterministic fake decode
    assert len(np.unique(f1)) > 1  # payloads differ per doc


def test_video_temporal_features(ray_session):
    """Motion/brightness temporal features match a direct numpy recompute of
    the sampled frames; scene-cut threshold routes counts correctly."""
    import hashlib

    from lucille_ray.ops.multimodal import (
        attach_fake_video,
        video_temporal_features,
    )

    ds = _docs_ds(["x"] * 12).select_columns(["doc_id"])
    vids = attach_fake_video(ds, n_frames=8, side=8)
    got = (
        video_temporal_features(vids, stride=2, cut_threshold=60.0)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    assert len(got) == 12 and (got["n_sampled"] == 4).all()

    def frame(i, f):
        seed = hashlib.md5(f"vid-{i}-{f}".encode()).digest()
        fb = 8 * 8 * 3
        return np.frombuffer((seed * (fb // 16 + 1))[:fb], np.uint8)

    for _, row in got.iterrows():
        i = int(row["doc_id"])
        sampled = np.stack([frame(i, f) for f in (0, 2, 4, 6)]).astype(np.int16)
        means = sampled.mean(axis=1, dtype=np.float64)
        deltas = np.abs(np.diff(sampled, axis=0)).mean(axis=1, dtype=np.float64)
        assert row["motion_mean"] == deltas.mean()
        assert row["motion_max"] == deltas.max()
        assert row["cut_count"] == int((deltas > 60.0).sum())
        assert row["brightness_range"] == means.max() - means.min()
    # md5-derived frames differ, so motion is nonzero and doc-specific
    assert (got["motion_mean"] > 0).all()
    assert got["motion_mean"].nunique() > 1


def test_grouped_topk_window_semantics(ray_session):
    import pandas as pd
    import ray.data

    from lucille_ray.ops.relational import grouped_topk

    rng = np.random.default_rng(11)
    n = 500
    rows = pd.DataFrame(
        {
            "event_id": np.arange(n, dtype=np.int64),
            "user_id": rng.integers(0, 20, n).astype(np.int64),
            # duplicated values force the event_id tie-break
            "value": rng.integers(0, 15, n).astype(np.float64),
        }
    )
    # tiny blocks so the per-batch combiner really runs on partial key views
    ds = ray.data.from_pandas(rows).repartition(8)
    got = (
        grouped_topk(ds, k=3).to_pandas()
        .sort_values(["user_id", "rk"]).reset_index(drop=True)
    )
    # reference: pandas window
    want = rows.sort_values(
        ["user_id", "value", "event_id"], ascending=[True, False, True],
        kind="stable",
    ).groupby("user_id").head(3)
    want = want.assign(
        rk=want.groupby("user_id").cumcount().to_numpy() + 1
    )[["user_id", "event_id", "rk", "value"]].reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[["user_id", "event_id", "rk", "value"]].astype({"rk": "int64"}),
        want.astype({"rk": "int64"}),
    )


def test_revenue_by_nation_matches_pandas(ray_session):
    import pandas as pd
    import ray.data

    from lucille_ray.ops.joins import revenue_by_nation

    rng = np.random.default_rng(5)
    n_li, n_ord, n_cust = 2000, 400, 60
    li = pd.DataFrame(
        {
            "l_orderkey": rng.integers(0, n_ord, n_li).astype(np.int64),
            "l_extendedprice": np.round(rng.uniform(1, 1000, n_li), 2),
            "l_discount": np.round(rng.uniform(0, 0.1, n_li), 2),
        }
    )
    orders = pd.DataFrame(
        {
            "o_orderkey": np.arange(n_ord, dtype=np.int64),
            "o_custkey": rng.integers(0, n_cust, n_ord).astype(np.int64),
        }
    )
    cust = pd.DataFrame(
        {
            "c_custkey": np.arange(n_cust, dtype=np.int64),
            "c_nationkey": rng.integers(0, 7, n_cust).astype(np.int32),
        }
    )
    nation = pa.table(
        {
            "n_nationkey": pa.array(np.arange(7, dtype=np.int32)),
            "n_name": pa.array([f"NATION_{i}" for i in range(7)]),
        }
    )
    got = revenue_by_nation(
        ray.data.from_pandas(li).repartition(6),
        ray.data.from_pandas(orders).repartition(3),
        ray.data.from_pandas(cust).repartition(2),
        nation,
        num_partitions=4,
    ).to_pandas().sort_values("n_name").reset_index(drop=True)

    li2 = li.assign(
        rev=(np.rint(li.l_extendedprice * 100).astype(np.int64)
             * (100 - np.rint(li.l_discount * 100).astype(np.int64)))
    )
    j = (
        li2.merge(orders, left_on="l_orderkey", right_on="o_orderkey")
        .merge(cust, left_on="o_custkey", right_on="c_custkey")
        .merge(nation.to_pandas(), left_on="c_nationkey", right_on="n_nationkey")
    )
    want = (
        j.groupby("n_name", as_index=False)
        .agg(revenue_e4=("rev", "sum"), n_items=("rev", "size"))
        .sort_values("n_name").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got.astype({"revenue_e4": "int64", "n_items": "int64"}),
        want.astype({"revenue_e4": "int64", "n_items": "int64"}),
    )


def test_dedup_components_label_propagation(ray_session):
    import ray.data

    from lucille_ray.ops import dedup_components

    # two chains, a triangle, and an isolated pair — components must get the
    # min doc id even across multi-hop chains (diameter > 1)
    pairs = pa.table(
        {
            "a": pa.array([1, 2, 3, 10, 20, 20, 21, 7], pa.int64()),
            "b": pa.array([2, 3, 4, 11, 21, 22, 22, 8], pa.int64()),
        }
    )
    out = (
        dedup_components(ray.data.from_arrow(pairs))
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    assert out["doc_id"].tolist() == [1, 2, 3, 4, 7, 8, 10, 11, 20, 21, 22]
    assert out["component"].tolist() == [1, 1, 1, 1, 7, 7, 10, 10, 20, 20, 20]
    # canonical-doc selection: exactly one keeper per cluster
    keep = out[out.doc_id == out.component]
    assert keep["doc_id"].tolist() == [1, 7, 10, 20]


def test_dedup_components_small_graph_matches_distributed(ray_session):
    """The driver-side small-graph fast path and the distributed iterative
    path reach the identical min-label fixpoint on a random multi-hop graph."""
    import ray.data

    from lucille_ray.ops import dedup_components

    rng = np.random.default_rng(17)
    a = rng.integers(0, 300, 400).astype(np.int64)
    b = (a + rng.integers(1, 40, 400)).astype(np.int64)
    pairs = pa.table({"a": pa.array(a), "b": pa.array(b)})
    small = (
        dedup_components(ray.data.from_arrow(pairs))  # fast path (default)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    dist = (
        dedup_components(ray.data.from_arrow(pairs), small_graph_edges=0)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    assert small.equals(dist)
    # per-component min labeling invariant
    g = small.groupby("component")["doc_id"].min()
    assert (g.index == g.values).all()


def test_dedup_components_empty_pairs(ray_session):
    import ray.data

    from lucille_ray.ops import dedup_components

    pairs = pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())})
    # materialized once: schema() after count() would run a Limit[1]
    # execution, as count() caches no schema
    ds = dedup_components(ray.data.from_arrow(pairs)).materialize()
    assert ds.count() == 0
    assert ds.schema().names == ["doc_id", "component"]


def test_hash_sample_partition_independent(ray_session):
    import ray.data

    from lucille_ray.ops.sampling import hash_sample

    t = pa.table({"doc_id": pa.array(np.arange(2000, dtype=np.int64))})
    a = hash_sample(ray.data.from_arrow(t), pct=10).to_pandas()
    b = hash_sample(
        ray.data.from_arrow(t).repartition(13), pct=10
    ).to_pandas()
    assert sorted(a.doc_id) == sorted(b.doc_id)
    # ~10% with hash-uniform deviation
    assert 120 < len(a) < 280


def test_kmv_distinct_estimate_and_merge_independence(ray_session):
    import ray.data

    from lucille_ray.ops.sampling import kmv_distinct

    rng = np.random.default_rng(3)
    n = 20000
    t = pa.table(
        {
            "event_type": pa.array(
                np.where(rng.random(n) < 0.5, "click", "view")
            ),
            # 'click' ~ many distinct users, 'view' ~ fewer than k distinct
            "user_id": pa.array(
                np.where(
                    rng.random(n) < 0.5,
                    rng.integers(0, 5000, n),
                    rng.integers(0, 40, n),
                ).astype(np.int64)
            ),
        }
    )
    a = (
        kmv_distinct(ray.data.from_arrow(t), k=64)
        .to_pandas().sort_values("event_type").reset_index(drop=True)
    )
    b = (
        kmv_distinct(ray.data.from_arrow(t).repartition(17), k=64)
        .to_pandas().sort_values("event_type").reset_index(drop=True)
    )
    # sketch result independent of partitioning (lossless k-min merge)
    assert a.equals(b)
    df = t.to_pandas()
    true = df.groupby("event_type")["user_id"].nunique()
    for _, row in a.iterrows():
        td = true[row.event_type]
        if td < 64:
            assert row.est_distinct_r == float(td)  # exact below k
        else:
            assert abs(row.est_distinct_r - td) / td < 0.5  # KMV error bound-ish


def test_top_terms_wordcount(ray_session):
    from collections import Counter

    import ray.data

    from lucille_ray.analysis import tokenize
    from lucille_ray.ops.textstats import top_terms

    texts = ["the cat sat on the mat", "the dog ate the cat food", "a b a b a"]
    ds = ray.data.from_arrow(pa.table({"text": pa.array(texts)})).repartition(3)
    got = top_terms(ds, k=5).to_pandas()
    cnt = Counter(t for x in texts for t in tokenize(x))
    want = sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
    assert list(zip(got["term"], got["n"])) == [(t, n) for t, n in want]


def test_top_terms_candidate_cap_bounds_shuffle(ray_session):
    """Heavy-hitter pre-combiner (VERDICT r02 #9): with a junk vocabulary of
    unique tokens per doc, candidate_cap must bound the rows entering the
    groupby to batches x cap while still ranking the planted hot terms
    identically to the exact path."""
    import ray.data

    from lucille_ray.analysis import arrow_tokenize
    from lucille_ray.ops.textstats import top_terms

    rng = np.random.default_rng(11)
    hot = ["alpha", "beta", "gamma"]
    texts = []
    for i in range(400):
        junk = [f"junk{i}x{j}" for j in range(8)]  # unique -> vocab ~ input
        words = junk + [hot[j] for j in range(3) for _ in range(3 - j)]
        rng.shuffle(words)
        texts.append(" ".join(words))
    ds = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts)})
    ).map_batches(lambda t: t, batch_size=50, batch_format="pyarrow")

    exact = top_terms(ds, k=3).to_pandas()
    capped = top_terms(ds, k=3, candidate_cap=16).to_pandas()
    assert exact["term"].tolist() == hot
    assert capped.equals(exact)

    # shuffle volume: count partial rows the capped combiner emits directly
    import polars as pl

    def partial_rows(batch: pa.Table) -> int:
        flat = arrow_tokenize(batch["text"]).flatten()
        g = pl.from_arrow(pa.table({"term": flat})).group_by("term").len()
        return min(len(g), 16)

    total = sum(
        partial_rows(t)
        for t in ds.map_batches(lambda t: t, batch_size=50,
                                batch_format="pyarrow").materialize().to_arrow_refs()
        for t in [__import__("ray").get(t)]
    )
    n_batches = -(-400 // 50)
    assert total <= n_batches * 16 * 2  # bounded by batches x cap (block splits)


def test_group_quantiles_disc_semantics(ray_session):
    import math

    import ray.data

    rng = np.random.default_rng(9)
    from lucille_ray.ops.relational import group_quantiles

    t = pa.table(
        {
            "event_type": pa.array(np.where(rng.random(500) < 0.5, "a", "b")),
            "value": pa.array(rng.normal(size=500)),
        }
    )
    got = (
        group_quantiles(ray.data.from_arrow(t).repartition(7))
        .to_pandas().set_index("event_type")
    )
    df = t.to_pandas()
    for g, sub in df.groupby("event_type"):
        v = np.sort(sub["value"].to_numpy())
        n = v.size
        assert got.loc[g, "n"] == n
        assert got.loc[g, "q50"] == v[min(n - 1, math.ceil(0.5 * n) - 1)]
        assert got.loc[g, "q95"] == v[min(n - 1, math.ceil(0.95 * n) - 1)]


def test_group_quantiles_distributed_bit_exact(ray_session):
    """The distributed sort + rank-select path returns the exact same table
    as the per-group map_groups path (and therefore DuckDB quantile_disc),
    across many blocks so rank selection crosses block boundaries."""
    import ray.data

    from lucille_ray.ops.relational import (
        group_quantiles,
        group_quantiles_distributed,
    )

    rng = np.random.default_rng(41)
    kinds = np.array(["click", "view", "buy", "scroll"])
    t = pa.table(
        {
            "event_type": pa.array(kinds[rng.integers(0, 4, 3000)]),
            # heavy duplication so duplicate keys span sort blocks
            "value": pa.array(np.round(rng.normal(size=3000), 1)),
        }
    )
    ds = ray.data.from_arrow(t).repartition(16)
    base = (
        group_quantiles(ds).to_pandas()
        .sort_values("event_type").reset_index(drop=True)
    )
    dist = (
        group_quantiles_distributed(ds).to_pandas()
        .sort_values("event_type").reset_index(drop=True)
    )
    assert base.equals(dist)


def test_group_quantiles_auto_routes_oversized_groups(ray_session):
    """max_group_rows routes to the distributed path; results identical."""
    import ray.data

    from lucille_ray.ops.relational import group_quantiles

    rng = np.random.default_rng(7)
    t = pa.table(
        {
            "event_type": pa.array(
                np.where(rng.random(800) < 0.7, "hot", "cold")
            ),
            "value": pa.array(rng.normal(size=800)),
        }
    )
    ds = ray.data.from_arrow(t).repartition(8)
    base = (
        group_quantiles(ds).to_pandas()
        .sort_values("event_type").reset_index(drop=True)
    )
    routed = group_quantiles(ds, max_group_rows=100)
    assert isinstance(routed, pa.Table)  # distributed path returns a Table
    routed = (
        routed.to_pandas().sort_values("event_type").reset_index(drop=True)
    )
    assert base.equals(routed)
    # under the bound the map_groups Dataset path is kept
    kept = group_quantiles(ds, max_group_rows=10_000)
    assert not isinstance(kept, pa.Table)


def test_group_counts_refuses_web_scale_keys(ray_session):
    """A high-cardinality group key fails LOUDLY instead of silently gathering
    O(#groups) rows onto the driver (VERDICT r04 #5); the cardinality check
    itself runs distributed (materialized aggregate, then count)."""
    import ray.data

    from lucille_ray.ops.relational import _group_counts, group_quantiles

    t = pa.table(
        {
            # every row its own group: the junk-key shape
            "event_type": pa.array([f"row-{i}" for i in range(300)]),
            "value": pa.array(np.arange(300.0)),
        }
    )
    ds = ray.data.from_arrow(t).repartition(4)
    with pytest.raises(ValueError, match="max_groups"):
        _group_counts(ds, "event_type", max_groups=100)
    # …and the guard is reachable through the public op's count peek
    with pytest.raises(ValueError, match="max_groups"):
        import lucille_ray.ops.relational as R

        old = R.GROUP_COUNTS_MAX_GROUPS
        R.GROUP_COUNTS_MAX_GROUPS = 100
        try:
            group_quantiles(ds, max_group_rows=10)
        finally:
            R.GROUP_COUNTS_MAX_GROUPS = old
    # sane cardinality still passes and counts are exact
    got = _group_counts(ds, "event_type", max_groups=1000)
    assert len(got) == 300 and got["row-7"] == 1


def test_group_quantiles_default_routes_whales():
    """The DEFAULT max_group_rows is a finite bound (VERDICT r03 #5), so a
    whale group auto-routes to the distributed path without opting in —
    test_group_quantiles_auto_routes_oversized_groups proves the routing
    itself with a small forced bound."""
    import inspect

    from lucille_ray.ops.relational import group_quantiles

    default = inspect.signature(group_quantiles).parameters["max_group_rows"].default
    assert default is not None and default == 5_000_000


def test_pii_scrub_detects_and_redacts(ray_session):
    import ray.data

    from lucille_ray.ops.pii import attach_fake_pii, pii_scrub

    t = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
            "text": pa.array(
                [
                    "reach me at alice@corp.io or 192.168.1.77 thanks",
                    "no pii here",
                    "two mails: a@b.co c@d.org",
                    None,
                ]
            ),
        }
    )
    out = (
        pii_scrub(ray.data.from_arrow(t))
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    assert out["n_emails"].tolist() == [1, 0, 2, 0]
    assert out["n_ips"].tolist() == [1, 0, 0, 0]
    assert out.loc[0, "redacted"] == "reach me at [EMAIL] or [IP] thanks"
    assert out.loc[2, "redacted"] == "two mails: [EMAIL] [EMAIL]"
    # deterministic planted PII: every 3rd doc gains exactly one email + one ip
    planted = (
        pii_scrub(attach_fake_pii(ray.data.from_arrow(t)))
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    assert planted["n_emails"].tolist() == [2, 0, 2, 1]
    assert planted["n_ips"].tolist() == [2, 0, 0, 1]


def test_tfidf_keywords_vs_numpy(ray_session):
    import math

    import ray.data

    from lucille_ray.analysis import tokenize
    from lucille_ray.ops.textstats import tfidf_keywords

    texts = [
        "apple banana apple cherry",
        "banana cherry cherry date",
        "apple unique banana",
    ]
    ds = ray.data.from_arrow(
        pa.table({"doc_id": pa.array([0, 1, 2], pa.int64()),
                  "text": pa.array(texts)})
    )
    got = (
        tfidf_keywords(ds, k=2).to_pandas()
        .sort_values(["doc_id", "rk"]).reset_index(drop=True)
    )
    # reference: plain python
    toks = [tokenize(t) for t in texts]
    from collections import Counter
    dfc = Counter(t for ts in toks for t in set(ts))
    n = len(texts)
    for doc_id, ts in enumerate(toks):
        tfc = Counter(ts)
        scored = sorted(
            ((tf * math.log(1.0 + n / dfc[t]), t) for t, tf in tfc.items()),
            key=lambda x: (-x[0], x[1]),
        )[:2]
        sub = got[got.doc_id == doc_id].reset_index(drop=True)
        assert sub["term"].tolist() == [t for _, t in scored]
        assert sub["rk"].tolist() == [1, 2]
        for i, (s, _) in enumerate(scored):
            assert abs(sub.loc[i, "score_r"] - round(s, 4)) < 1e-9


def test_drop_empty_blocks_unpoisons_joins(ray_session):
    """Ray's hash groupby emits zero-row partitions as COLUMN-LESS blocks and
    map_batches forwards empty blocks without calling the fn; one such block
    inside a join input kills Acero's key-field resolution (the r02
    ``tfidf_keywords`` driver flake). drop_empty_blocks must strip them."""
    import ray
    import ray.data

    from lucille_ray.ops.joins import drop_empty_blocks

    typed = pa.table(
        {"term": pa.array(["a", "b", "c"], pa.string()),
         "df": pa.array([1, 2, 3], pa.int64())}
    )
    poisoned = ray.data.from_arrow([typed, pa.table({}), pa.table({})])
    clean = drop_empty_blocks(poisoned)
    schemas = [str(ray.get(r).schema) for r in clean.to_arrow_refs()]
    assert all("term" in s for s in schemas)
    left = ray.data.from_arrow(
        pa.table({"term": pa.array(["a", "b", "a"], pa.string()),
                  "tf": pa.array([5, 6, 7], pa.int64())})
    )
    j = left.join(clean, join_type="inner", num_partitions=2, on=("term",))
    assert j.count() == 3
    # all-empty input degrades gracefully (returns the original dataset)
    all_empty = ray.data.from_arrow([pa.table({})])
    assert drop_empty_blocks(all_empty).count() == 0


def test_tfidf_join_path_matches_broadcast_at_32_blocks(ray_session):
    """The join fallback (df past the broadcast bound) must agree with the
    broadcast path bit-for-bit even when the input is shredded into 32 tiny
    blocks — the shape whose empty groupby partitions broke r02 at 32 cpus."""
    import ray.data

    from lucille_ray.ops.textstats import tfidf_keywords

    ds = ray.data.read_parquet(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "text"]
    ).repartition(32)
    via_broadcast = (
        tfidf_keywords(ds, k=3).to_pandas()
        .sort_values(["doc_id", "rk"]).reset_index(drop=True)
    )
    via_join = (
        tfidf_keywords(ds, k=3, df_broadcast_limit=0, num_partitions=3)
        .to_pandas().sort_values(["doc_id", "rk"]).reset_index(drop=True)
    )
    assert len(via_broadcast) > 0
    assert via_broadcast.equals(via_join)


def test_pmi_collocations_planted_pair(ray_session):
    import ray.data

    from lucille_ray.ops.textstats import pmi_collocations

    rng = np.random.default_rng(4)
    vocab = [f"w{i}" for i in range(30)]
    texts = []
    for i in range(60):
        words = list(rng.choice(vocab, size=12))
        # plant a strong collocation: 'alpha beta' in most docs
        if i % 2 == 0:
            words[3:3] = ["alpha", "beta"]
        texts.append(" ".join(words))
    ds = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(range(60), pa.int64()),
                  "text": pa.array(texts)})
    ).repartition(4)
    got = pmi_collocations(ds, k=5, min_count=5).to_pandas()
    assert (got.w1 == "alpha").any() and (got.iloc[0].w1, got.iloc[0].w2) == ("alpha", "beta")
    assert got.iloc[0].c12 == 30
    assert (got.pmi_r.to_numpy()[:-1] >= got.pmi_r.to_numpy()[1:]).all()


def test_stratified_sample_rates_and_determinism(ray_session):
    import ray.data

    from lucille_ray.ops.sampling import stratified_sample

    n = 6000
    t = pa.table(
        {
            "event_id": pa.array(np.arange(n, dtype=np.int64)),
            "event_type": pa.array(
                np.tile(["rare", "common", "common"], n // 3)
            ),
        }
    )
    rates = {"rare": 90, "common": 10}
    a = stratified_sample(
        ray.data.from_arrow(t), rates
    ).to_pandas()
    b = stratified_sample(
        ray.data.from_arrow(t).repartition(11), rates
    ).to_pandas()
    assert sorted(a.event_id) == sorted(b.event_id)
    by = a.groupby("event_type").size()
    assert 0.8 < by["rare"] / (n // 3) < 1.0      # ~90% kept
    assert 0.05 < by["common"] / (2 * n // 3) < 0.15  # ~10% kept


def test_audio_feature_stage(ray_session):
    from lucille_ray.ops.multimodal import attach_fake_audio, audio_features

    ds = _docs_ds(["x"] * 12).select_columns(["doc_id"])
    feats = audio_features(
        attach_fake_audio(ds, n_samples=64), batch_size=4
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert set(feats.columns) >= {"doc_id", "rms", "peak", "duration_s"}
    assert len(feats) == 12
    assert (feats["duration_s"] == 64 / 16000.0).all()
    assert (feats["peak"] <= 32768).all() and (feats["peak"] > 0).all()
    again = audio_features(
        attach_fake_audio(ds, n_samples=64), batch_size=4
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert (feats["rms"].to_numpy() == again["rms"].to_numpy()).all()
    assert len(np.unique(feats["rms"])) > 1  # payloads differ per doc


def test_video_frame_sample(ray_session):
    from lucille_ray.ops.multimodal import attach_fake_video, video_frame_sample

    ds = _docs_ds(["x"] * 6).select_columns(["doc_id"])
    out = (
        video_frame_sample(attach_fake_video(ds, n_frames=8, side=8), stride=2)
        .to_pandas().sort_values(["doc_id", "frame_idx"]).reset_index(drop=True)
    )
    assert len(out) == 6 * 4  # every 2nd of 8 frames
    assert sorted(out.frame_idx.unique()) == [0, 2, 4, 6]
    # frames within one doc are distinct (per-frame seeds)
    one = out[out.doc_id == 0]
    assert len(np.unique(one.frame_mean)) > 1


def test_image_resize_stage_chains_with_features(ray_session):
    from lucille_ray.ops.multimodal import resize_images

    ds = _docs_ds(["x"] * 8).select_columns(["doc_id"])
    small = image_features(
        resize_images(attach_fake_images(ds, side=16), out_side=8),
        batch_size=4,
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert (small["image_width"] == 8).all()
    assert len(small) == 8
    # nearest-neighbor reference for doc 0
    import hashlib as _h

    seed = _h.md5(b"img-0").digest()
    reps = (16 * 16 * 3) // len(seed) + 1
    img = np.frombuffer((seed * reps)[: 16 * 16 * 3], np.uint8).reshape(16, 16, 3)
    yi = (np.arange(8) * 16) // 8
    ref = img[yi][:, yi]
    assert abs(small.loc[0, "pix_mean"] - ref.astype(np.float64).mean()) < 1e-12


def test_curation_pipeline_stage_semantics(ray_session):
    import ray.data

    from lucille_ray.ops.curation import curate

    texts = [
        # 0: good en doc, will get PII attached (doc_id 0 % 3 == 0)
        "the quick brown fox and the lazy dog of the hill went to a market "
        "with the other animals of the town and the story goes on",
        # 1: duplicate of 2's text -> dedup keeps min id
        "the cat and the dog of a house to the yard and the bird of the tree "
        "flew to a branch of the oak and the sun was up",
        # 2: same as 1
        "the cat and the dog of a house to the yard and the bird of the tree "
        "flew to a branch of the oak and the sun was up",
        # 3: too short -> quality filter drops
        "the a of",
        # 4: no english markers -> lang filter drops
        "uno dos tres cuatro cinco seis siete ocho nueve diez once doce "
        "trece catorce quince uno dos tres cuatro cinco seis siete",
    ]
    ds = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(range(5), pa.int64()),
                  "text": pa.array(texts)})
    )
    out = curate(ds, min_quality=2, sample_pct=100).to_pandas()
    kept = set(out.doc_id)
    assert 3 not in kept and 4 not in kept  # filters
    assert 2 not in kept                    # dedup keeps 1, drops 2
    assert {0, 1} <= kept
    assert (out.quality_bucket >= 2).all()


def test_cms_frequencies_overestimates_and_merges(ray_session):
    from collections import Counter

    import ray.data

    from lucille_ray.analysis import tokenize
    from lucille_ray.ops.sampling import cms_frequencies

    rng = np.random.default_rng(2)
    vocab = [f"t{i}" for i in range(200)]
    texts = [" ".join(rng.choice(vocab, size=30)) for _ in range(200)]
    true = Counter(t for x in texts for t in tokenize(x))
    qs = ["t0", "t5", "t199", "absent_term"]
    ds = ray.data.from_arrow(pa.table({"text": pa.array(texts)}))
    est = dict(zip(*[
        cms_frequencies(ds, qs, width=512, depth=4)[c].to_pylist()
        for c in ("term", "est_count")
    ]))
    for t in qs:
        assert est[t] >= true.get(t, 0)            # CMS never underestimates
        assert est[t] <= true.get(t, 0) + 6000 // 512 * 8  # collision slack
    assert est["absent_term"] <= 6000 // 512 * 8
    # merge linearity: different partitioning -> identical sketch estimates
    est2 = dict(zip(*[
        cms_frequencies(ds.repartition(9), qs, width=512, depth=4)[c].to_pylist()
        for c in ("term", "est_count")
    ]))
    assert est == est2


def _pmi_corpus():
    import ray.data

    rng = np.random.default_rng(4)
    vocab = [f"w{i}" for i in range(30)]
    texts = [" ".join(rng.choice(vocab, size=12)) for _ in range(60)]
    return ray.data.from_arrow(
        pa.table({"doc_id": pa.array(range(60), pa.int64()),
                  "text": pa.array(texts)})
    ).repartition(4)


def test_pmi_collocations_without_qualifying_pairs(ray_session):
    """With a support threshold no pair reaches, every block and join
    partition of the pair side is empty: the answer is an empty table of
    the usual columns, not an Acero key-field error from the join."""
    from lucille_ray.ops.textstats import pmi_collocations

    # materialized once: schema() after count() would run a Limit[1]
    # execution, as count() caches no schema
    got = pmi_collocations(_pmi_corpus(), k=5, min_count=1000).materialize()
    assert got.count() == 0
    assert got.schema().names == ["w1", "w2", "c12", "pmi_r"]


def test_join_input_with_empty_first_block(ray_session):
    """A join input whose first block has zero rows and whose rows all hash
    to one partition: Ray's hash shuffle sends the input's schema only with
    its first block and skips empty ones, so the other partitions would join
    a column-less table. Without its zero-row blocks the join is exact."""
    import ray.data

    from lucille_ray.ops.joins import drop_empty_blocks

    left = ray.data.from_arrow([
        pa.table({"w1": pa.array([], pa.string()), "c": pa.array([], pa.int64())}),
        pa.table({"w1": pa.array(["a"] * 3), "c": pa.array([1, 2, 3])}),
    ])
    right = ray.data.from_arrow(
        pa.table({"w1": pa.array(["a", "b"]), "d": pa.array([7, 8])}))
    got = drop_empty_blocks(left.materialize()).join(
        right, join_type="inner", num_partitions=4, on=("w1",))
    rows = sorted((r["w1"], r["c"], r["d"]) for r in got.take_all())
    assert rows == [("a", 1, 7), ("a", 2, 7), ("a", 3, 7)]
