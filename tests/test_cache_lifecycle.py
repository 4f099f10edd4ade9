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

Also guards the on-disk side channels: norms .npy sidecars and docmap
row-group stats are keyed by segment dir, and compaction rewrites segment
dirs — a stale sidecar surviving a rewrite would show up here as a score or
metadata mismatch at the post-compact step.
"""

import os

import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from lucille_ray import transcripts as T
from lucille_ray.index import compact_index, delete_conversations
from lucille_ray.index.build import append_index, build_index
import lucille_ray.search.engine as engine_mod
from lucille_ray.search.engine import SearchEngine

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

    # -- delete: tombstones pin eligible segments to the plain evaluator,
    # but cached answers must still match (cache key = commit point) --
    eng = SearchEngine(index_dir, parallel=False)
    victims = list(dict.fromkeys(eng.search("data", k=5)["conv_id"].to_pylist()))[:2]
    assert delete_conversations(index_dir, victims) > 0
    del_ans = _assert_step_identity(index_dir, "delete", monkeypatch)
    for qs, (_d, _s, conv, _t) in del_ans.items():
        assert not set(conv) & set(victims), f"{qs!r} returned a deleted conv"

    # -- compact: purges tombstones and REWRITES segment dirs; any stale
    # on-disk sidecar (norms .npy, docmap row-group stats) would surface here --
    compact_index(index_dir)
    comp_ans = _assert_step_identity(index_dir, "compact", monkeypatch)
    for qs, (_d, _s, conv, _t) in comp_ans.items():
        assert not set(conv) & set(victims), f"{qs!r} resurrected a purged conv"
