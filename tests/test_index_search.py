"""End-to-end: Ray Data index build + BM25 search, rank-identical (top-k doc ids AND
scores) to the independent brute-force oracle — the north_rule correctness contract.
Also covers checkpoint/resume and the per-turn text-equality invariant."""

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from lucille_ray import transcripts as T
from lucille_ray.index.build import build_index, segment_complete
from lucille_ray.index.codec import (BLOCK_COLUMNS, RawBlocks, pack_rows, row_order,
                                     unpack_rows)
from lucille_ray.search.engine import SearchEngine
from lucille_ray.search.oracle import BruteForceOracle

N_TURNS = 1200

# the reference query set: every AST node type exercised as a retrieval query
QUERY_SET = [
    "data",
    "xylophone42",
    "the data",
    "data AND query",
    "data AND query AND join",
    "deploy OR jump",
    "data AND NOT query",
    "-data query",
    "+data query",
    "NOT data",
    '"lazy evaluation"',
    "lazy.evaluation",  # punctuated Term -> analyzer splits -> implicit phrase
    "data.query.join",
    '"data query"~2',
    '"query data table"~3',
    "deploy*",
    "c?tch",
    "*ploy*",
    "/jump.*/",
    "cat~1",
    "derp~",
    "[deploy TO deploys]",
    "{catch TO data]",
    "(data query join)@2",
    "(deploy* jump test)@2",
    "data^2 OR query^0.5",
    '(data AND query)^1.5 OR "lazy evaluation"^3',
    "role:tool",
    "role:assistant AND deploy",
    "tool:bash",
    "tool:(bash OR python)",
    "role:user AND (data OR query) -join",
    "a b AND c",  # associativity corpus reused as retrieval
    "the cat AND data AND query OR jump",
]


_BLOCK = pa.struct([(k, pa.int64()) for k in ("n", "max_tf", "min_dl", "first_doc", "last_doc")]
                   + [(k, pa.binary()) for k in ("docs", "tfs", "pos")])


def _spelled(rows: pa.Table, rb: RawBlocks, offsets: np.ndarray) -> pa.Table:
    """Unpacked postings rows (``codec.unpack_rows``) spelled out for
    comparison: each row's bucket (its block 0's first doc) before ``df``
    and its blocks as a ``list<_BLOCK>`` column ``blocks``."""
    flat = pa.StructArray.from_arrays(
        [pa.array(a, pa.int64()) for a in (rb.ns, rb.max_tf, rb.min_dl, rb.firsts, rb.lasts)]
        + [pa.array([v[a:b].tobytes() for a, b in zip(o[:-1], o[1:])], pa.binary())
           for v, o in (rb.docs, rb.tfs, rb.pos)],
        fields=list(_BLOCK))
    out = rows.add_column(rows.schema.get_field_index("df"), "bucket",
                          pa.array(rb.firsts[offsets[:-1]], pa.int64()))
    return out.append_column("blocks", pa.ListArray.from_arrays(
        pa.array(offsets, pa.int32()), flat))


def _unpacked(stored: pa.Table) -> pa.Table:
    """Stored postings rows spelled out (:func:`_spelled`)."""
    return _spelled(*unpack_rows(stored))


def _packed(table: pa.Table) -> pa.Table:
    """Rows spelled out (:func:`_spelled`) packed again for the writer, with
    the ``df`` the table says (a planted fault may disagree with its
    blocks)."""
    lists = table["blocks"].combine_chunks()
    flat = lists.flatten()
    views = []
    for c in ("docs", "tfs", "pos"):
        vals = flat.field(c).to_pylist()
        offs = np.concatenate([[0], np.cumsum([len(v) for v in vals])]).astype(np.int64)
        views.append((np.frombuffer(b"".join(vals), np.uint8), offs))
    rb = RawBlocks(*(flat.field(c).to_numpy().astype(np.int64)
                     for c in ("n", "max_tf", "min_dl", "first_doc", "last_doc")), *views)
    out = pack_rows(table.select(["field", "term"]), rb,
                    lists.offsets.to_numpy().astype(np.int64))
    return out.set_column(2, "df", table["df"])


@pytest.fixture(scope="module")
def built(ray_session, tmp_path_factory):
    root = str(tmp_path_factory.mktemp("lr_e2e"))
    data_dir = os.path.join(root, "data")
    index_dir = os.path.join(root, "index")
    T.generate(N_TURNS, data_dir, num_files=3)
    ds = T.read_transcripts(data_dir)
    build_index(ds, index_dir, num_segments=2, range_width=256, batch_size=400)
    table = pq.read_table(data_dir)
    return data_dir, index_dir, table


@pytest.fixture(scope="module")
def oracle(built):
    return BruteForceOracle(built[2])


def _compare(engine, oracle, qs, k=10):
    got = engine.search(qs, k=k, with_meta=False)
    gp = list(zip(got["doc_id"].to_pylist(), got["score"].to_pylist()))
    exp = oracle.search(qs, k=k)
    assert len(gp) == len(exp), f"{qs!r}: hit-count {len(gp)} != {len(exp)}"
    for (gd, gs), (ed, es) in zip(gp, exp):
        assert gd == ed, f"{qs!r}: rank order differs ({gp[:3]} vs {exp[:3]})"
        assert abs(gs - es) < 1e-9, f"{qs!r}: score {gs} != {es}"


def _source_order(table):
    return table.take(pc.sort_indices(
        table, sort_keys=[("conv_id", "ascending"), ("turn_idx", "ascending")]
    ))


def _seg_dirs(index_dir):
    """The directories of the index's committed segments, in doc order."""
    from lucille_ray.index import commit

    return commit.segment_dirs(index_dir, commit.read(index_dir))


def _assert_doc_meta_in_rank_order(index_dir, table):
    """doc_meta over every doc id of every committed segment equals the
    source's (conv_id, turn_idx) rank order, and the index holds no
    ``docmapped/`` corpus copy."""
    from lucille_ray.index.segment import load_segments

    src = _source_order(table)
    readers = [r for r in load_segments(index_dir) if r.doc_count]
    meta = pa.concat_tables([
        r.doc_meta(np.arange(r.doc_base, r.doc_base + r.doc_count))
        for r in readers
    ])
    assert meta["doc_id"].to_pylist() == list(range(table.num_rows))
    assert meta["conv_id"].to_pylist() == src["conv_id"].to_pylist()
    assert meta["turn_idx"].to_pylist() == src["turn_idx"].to_pylist()
    assert not os.path.exists(os.path.join(index_dir, "docmapped"))


@pytest.mark.parametrize("qs", QUERY_SET, ids=repr)
def test_rank_identical_local(built, oracle, qs):
    engine = SearchEngine(built[1], parallel=False)
    _compare(engine, oracle, qs)


def test_rank_identical_actor_pool(built, oracle):
    engine = SearchEngine(built[1], parallel=True)
    try:
        for qs in QUERY_SET[::4]:
            _compare(engine, oracle, qs)
    finally:
        engine.shutdown()


def test_search_many_matches_search(built):
    engine = SearchEngine(built[1], parallel=False)
    singles = [engine.search(q, k=5, with_meta=False) for q in QUERY_SET[:6]]
    batch = engine.search_many(QUERY_SET[:6], k=5)
    for s, (bd, bs) in zip(singles, batch):
        assert s["doc_id"].to_pylist() == bd.tolist()


def test_folded_search_single_round_trip_identity(built, oracle):
    """The folded sequential path on actors (resolve futures + resolve_score
    in ONE driver round-trip, VERDICT r04 #4) must answer bit-identically to
    the in-process engine, with and without metadata, including on
    plan-cache repeats."""
    engine = SearchEngine(built[1], parallel=True)
    ref = SearchEngine(built[1], parallel=False)
    try:
        engine.search("data", k=3, with_meta=False)  # warm stats (cold engine)
        for qs in QUERY_SET[::3]:
            for _rep in range(2):  # rep 2 plans from the df/expansion memo
                a = engine.search(qs, k=10, with_meta=True)
                b = ref.search(qs, k=10, with_meta=True)
                assert a.to_pydict() == b.to_pydict(), (qs, _rep)
            _compare(engine, oracle, qs)
    finally:
        engine.shutdown()


@pytest.mark.parametrize("parallel", [False, True], ids=["in-process", "actors"])
def test_search_round_trips(built, monkeypatch, parallel):
    """Both engines run search() through the same fan-out, counted at the one
    submit/gather pair: the first query on a cold engine takes two driver
    round-trips (corpus stats, then one folded resolve_score trip with its
    resolve submits unblocked), a plan-cache miss on a warm engine one, a
    plan-cache hit one scoring trip."""
    engine = SearchEngine(built[1], parallel=parallel)
    events = []
    submit, gather = engine._submit, engine._gather

    def counting_submit(scorers, method, *args):
        events.append(method)
        return submit(scorers, method, *args)

    def counting_gather(fanouts):
        events.append("gather")
        return gather(fanouts)

    monkeypatch.setattr(engine, "_submit", counting_submit)
    monkeypatch.setattr(engine, "_gather", counting_gather)
    try:
        for qs, with_meta, expected in [
            ("data", True,
             ["local_stats", "gather", "resolve", "resolve_score", "gather"]),
            ("query OR deploy*", False, ["resolve", "resolve_score", "gather"]),
            ("data", True, ["score_meta", "gather"]),
            ("query OR deploy*", False, ["score", "gather"]),
        ]:
            events.clear()
            engine.search(qs, k=5, with_meta=with_meta)
            assert events == expected, qs
    finally:
        engine.shutdown()


def test_replica_sets_alternate_per_search(built):
    """With replicas=2 every search() takes one replica set and the next call
    the other, plan-cache hits included: each set's readers see the same
    number of ``result``-pool gets."""
    engine = SearchEngine(built[1], parallel=True, replicas=2)
    try:
        sets = engine._scorer_sets()
        assert len(sets) == 2
        per_set = len(sets[0])

        def result_gets():
            stats = engine.cache_stats()
            return [
                sum(p.get("hits", 0) + p.get("misses", 0)
                    for st in stats[i * per_set:(i + 1) * per_set]
                    for pools in st.values()
                    for name, p in pools.items() if name == "result")
                for i in range(2)
            ]

        engine.search("data", k=5)  # fills the plan caches
        before = result_gets()
        for i in range(6):
            engine.search("data", k=5, with_meta=i < 3)
        delta = [a - b for a, b in zip(result_gets(), before)]
        assert delta[0] == delta[1] > 0, delta
    finally:
        engine.shutdown()


def test_scorer_actors_spread(built, oracle):
    """Scorer actors are scheduled with the SPREAD strategy (multi-node
    readiness, VERDICT r04 #7); on this single-node fixture every actor still
    schedules and the engine answers like the oracle."""
    eng = SearchEngine(built[1], parallel=True)
    try:
        for qs in QUERY_SET[::8]:
            _compare(eng, oracle, qs)
    finally:
        eng.shutdown()


def test_expansion_memo_plans_resolve_free(built):
    """After one resolve, dictionary-expansion queries plan from the driver
    memo (no resolve round-trip) and the memoized plan is bit-identical."""
    engine = SearchEngine(built[1], parallel=False)
    for qs in ["deploy*", "cat~1", "[deploy TO deploys]", "c?tch", "/jump.*/"]:
        q0, reqs0, ctx0 = engine.plan(qs)
        from lucille_ray.query.parser import parse as _parse
        from lucille_ray.search.eval import collect_term_requests as _ctr

        q1 = _parse(qs)
        hit = engine._plan_from_cache(q1, _ctr(q1))
        assert hit is not None, f"{qs!r}: expansion memo missed"
        _q, _reqs, ctx1 = hit
        assert ctx1.expanded == ctx0.expanded, qs
        assert ctx1.df == ctx0.df, qs
        assert ctx1.n_docs == ctx0.n_docs and ctx1.avgdl == ctx0.avgdl


def test_result_metadata_join(built):
    engine = SearchEngine(built[1], parallel=False)
    t = engine.search("xylophone42", k=5)
    assert t.column_names == ["doc_id", "conv_id", "turn_idx", "score"]
    assert t.num_rows > 0
    # doc_id is the rank under stable (conv_id, turn_idx) order
    doc = t["doc_id"][0].as_py()
    assert t["conv_id"][0].as_py() == f"conv-{doc // T.TURNS_PER_CONV:010d}"
    assert t["turn_idx"][0].as_py() == doc % T.TURNS_PER_CONV


def test_per_turn_text_equality_invariant(built):
    """The build preserves every turn's text under (conv_id, turn_idx): doc
    d's text norm is the token count of the d-th source turn's text, and
    doc_meta maps d back to that turn."""
    from lucille_ray.analysis import arrow_tokenize
    from lucille_ray.index.segment import load_segments

    data_dir, index_dir, table = built
    src = _source_order(table)
    norms = np.concatenate([r.norms("text") for r in load_segments(index_dir)])
    tokens = pc.list_value_length(arrow_tokenize(src["text"]))
    assert norms.size == src.num_rows == N_TURNS
    assert norms.tolist() == tokens.to_numpy(zero_copy_only=False).tolist()
    _assert_doc_meta_in_rank_order(index_dir, table)


def test_constant_fields_store_one_norm(built, churned, tmp_path):
    """``role`` and ``tool`` (one token in every turn) write no norms file
    after a build, after appends and deletes, and after compaction: each
    segment's ``stats.json`` holds their one ``norm``, and every field's
    ``reader.norms``, concatenated over the segments, equals the dense
    per-turn token counts a norms file held (norms stay dense over maxDoc,
    so deleted and purged turns keep theirs)."""
    from lucille_ray.analysis import arrow_tokenize
    from lucille_ray.index import compact_index
    from lucille_ray.index.build import norms_file
    from lucille_ray.index.segment import load_segments

    _, index_dir, table = built
    src = _source_order(table)
    dense = {f: pc.list_value_length(arrow_tokenize(src[f])).to_numpy(
        zero_copy_only=False).tolist() for f in ("text", "role", "tool")}
    assert set(dense["role"]) == set(dense["tool"]) == {1}
    idx = str(tmp_path / "churned")
    shutil.copytree(churned[0], idx)

    def check(d):
        readers = load_segments(d)
        for f, want in dense.items():
            assert np.concatenate([r.norms(f) for r in readers]).tolist() == want, f
            for r in readers:
                path = os.path.join(r.seg_dir, norms_file(f))
                assert os.path.exists(path) == (f == "text"), path
                assert ("norm" in r.stats["fields"][f]) == (f != "text"), r.stats

    check(index_dir)
    check(idx)
    compact_index(idx)
    check(idx)


def test_compaction_ships_constant_norms_as_values(built, tmp_path, monkeypatch):
    """Compaction puts each segment's norms in the object store for its
    range tasks with ``role``'s and ``tool``'s (one length in every turn)
    as their one value: they pickle to a few bytes whatever the segment's
    doc count, where a broadcast array pickles to one byte a doc, while
    ``text``'s grow with it. The compacted postings are byte-identical to
    those of a compaction that ships every field's norms as an array. Each
    segment is compacted on its own (SLICE_DOCS=1)."""
    import pickle

    import ray

    import lucille_ray.index.compact as compact_mod
    from lucille_ray.index import compact_index
    from lucille_ray.index.segment import load_segments

    _, index_dir, _ = built
    monkeypatch.setattr(compact_mod, "SLICE_DOCS", 1)
    put = []
    real_put = ray.put
    monkeypatch.setattr(ray, "put", lambda v, *a, **k: put.append(v) or real_put(v, *a, **k))
    shipped, dense = str(tmp_path / "shipped"), str(tmp_path / "dense")
    for d in (shipped, dense):
        shutil.copytree(index_dir, d)
    compact_index(shipped)
    norms = [v for v in put if isinstance(v, dict) and "role" in v]
    counts = [r.doc_count for r in load_segments(index_dir)]
    assert len(norms) == len(counts) == 2 and min(counts) > 500
    for v, n in zip(norms, counts):
        assert all(len(pickle.dumps(v[f], protocol=5)) < 64 for f in ("role", "tool"))
        assert len(pickle.dumps(v["text"], protocol=5)) > n
    monkeypatch.setattr(compact_mod, "_shipped_norms", lambda fields, norms: norms)
    compact_index(dense)
    assert _postings_bytes(shipped) == _postings_bytes(dense)


def test_resume_after_docmap_crash(built, tmp_path):
    """A build whose commit is gone (a crash before its first publish) starts
    over: a half-written ``docmapped/`` checkpoint an older build left behind
    is never read, and no doc is doubled."""
    from lucille_ray.index.segment import load_segments

    data_dir, _, table = built
    ds = T.read_transcripts(data_dir)
    index_dir = str(tmp_path / "crash_idx")
    build_index(ds, index_dir, num_segments=2, batch_size=400)
    ref = SearchEngine(index_dir, parallel=False).search("data", k=5, with_meta=False)
    # simulate a crash BEFORE meta was written: meta gone, and an older
    # build's half-written docmapped checkpoint planted
    os.remove(os.path.join(index_dir, "index_meta.json"))
    shutil.rmtree(os.path.join(index_dir, "segments"))
    half = os.path.join(index_dir, "docmapped", "seg=0")
    os.makedirs(half)
    pq.write_table(
        _source_order(table).append_column("doc_id", pa.array(range(N_TURNS))),
        os.path.join(half, "stale.parquet"),
    )
    build_index(ds, index_dir, num_segments=2, batch_size=400)
    again = SearchEngine(index_dir, parallel=False).search("data", k=5, with_meta=False)
    assert ref.to_pydict() == again.to_pydict()
    # doc count must not have doubled (no appended duplicate docmap files)
    with open(os.path.join(index_dir, "index_meta.json")) as f:
        assert json.load(f)["total_docs"] == N_TURNS
    readers = load_segments(index_dir)
    assert sum(r.norms("text").size for r in readers) == N_TURNS
    assert sum(r.doc_count for r in readers) == N_TURNS


def test_hot_term_skew_build(ray_session, tmp_path, monkeypatch):
    """A term present in EVERY doc must spread across pieces (no monolithic merge)."""
    import pyarrow as pa2
    import pyarrow.parquet as pq2
    import ray.data

    import lucille_ray.index.build as build_mod

    n = 4000
    t = pa2.table(
        {
            "conv_id": pa2.array([f"c{i // 8:06d}" for i in range(n)]),
            "turn_idx": pa2.array([i % 8 for i in range(n)], pa2.int32()),
            "role": pa2.array(["user"] * n),
            "text": pa2.array(["hot filler" if i % 2 else "hot other word" for i in range(n)]),
            "tool": pa2.array(["none"] * n),
            "ts": pa2.array([1_700_000_000_000_000 + i] * 1 if False else [1_700_000_000_000_000 + i for i in range(n)], pa2.timestamp("us")),
        }
    )
    data = str(tmp_path / "skew.parquet")
    pq2.write_table(t, data)

    def hot_rows(index_dir):
        return pq2.read_table(
            os.path.join(index_dir, "segments", "seg-00000", "postings.parquet"),
            columns=["term", "df"],
            filters=[("term", "==", "hot")],
        )

    # raw piece layout: the 100%-df term spreads across per-batch pieces —
    # no monolithic merge task ever exists
    raw_dir = str(tmp_path / "skew_idx_raw")
    with monkeypatch.context() as m:
        m.setattr(build_mod, "PIECE_MERGE_ROWS", 0)
        build_index(
            ray.data.read_parquet(data), raw_dir, num_segments=1,
            range_width=256, batch_size=500,
        )
    raw = hot_rows(raw_dir)
    assert raw.num_rows > 1
    assert sum(raw["df"].to_pylist()) == n

    # in-build piece merge (default): same postings, fewer rows; the merge is
    # window-local so there is still no skewed all-to-all for the hot term
    merged_dir = str(tmp_path / "skew_idx")
    build_index(
        ray.data.read_parquet(data), merged_dir, num_segments=1,
        range_width=256, batch_size=500,
    )
    merged = hot_rows(merged_dir)
    assert 1 <= merged.num_rows < raw.num_rows
    assert sum(merged["df"].to_pylist()) == n
    eng = SearchEngine(merged_dir, parallel=False)
    assert eng.match_all("hot").num_rows == n


def test_append_index_incremental_ingest(built, oracle, tmp_path):
    """append_index ingests new conversations as fresh committed segments:
    results over the union are rank+score-identical to the oracle on the union
    table, existing doc ids are untouched, and an uncommitted leftover segment
    from a crashed append stays invisible to readers."""
    import json

    import ray.data

    from lucille_ray.index.build import append_index

    data_dir, _, table = built
    # split the corpus by conversation: first 70% of convs = base, rest = append
    convs = sorted(set(table["conv_id"].to_pylist()))
    cut = convs[int(len(convs) * 0.7)]
    mask = pc.less(table["conv_id"], cut)
    base_t, app_t = table.filter(mask), table.filter(pc.invert(mask))
    base_p = str(tmp_path / "base.parquet")
    app_p = str(tmp_path / "app.parquet")
    pq.write_table(base_t, base_p)
    pq.write_table(app_t, app_p)

    index_dir = str(tmp_path / "aidx")
    build_index(
        ray.data.read_parquet(base_p), index_dir, num_segments=2,
        range_width=256, batch_size=400,
    )
    meta0 = json.load(open(os.path.join(index_dir, "index_meta.json")))
    assert meta0["total_docs"] == base_t.num_rows

    meta1 = append_index(
        ray.data.read_parquet(app_p), index_dir, num_segments=2, batch_size=400,
    )
    assert meta1["total_docs"] == table.num_rows
    assert len(meta1["segments"]) == 4

    # union oracle: conv-sorted union table == base convs then appended convs,
    # so oracle rank doc ids equal the engine's (append preserves id order)
    engine = SearchEngine(index_dir, parallel=False)
    for qs in QUERY_SET[::4]:
        _compare(engine, oracle, qs)
    # per-turn text equality invariant holds across the append boundary
    t = engine.search("xylophone42", k=5)
    assert t.num_rows > 0

    # crash-safety: an uncommitted segment dir (no committed meta) is invisible
    seg_root = os.path.join(index_dir, "segments")
    os.makedirs(os.path.join(seg_root, "seg-00004", "junk"))
    engine2 = SearchEngine(index_dir, parallel=False)
    assert len(engine2.seg_dirs) == 4
    got = engine2.search(QUERY_SET[0], k=10, with_meta=False)
    exp = engine.search(QUERY_SET[0], k=10, with_meta=False)
    assert got["doc_id"].to_pylist() == exp["doc_id"].to_pylist()

    # a re-run of a "crashed" append wipes the leftovers and converges
    meta2 = append_index(
        ray.data.read_parquet(app_p), index_dir, num_segments=2, batch_size=400,
    )
    assert meta2["total_docs"] == table.num_rows + app_t.num_rows  # duplicate-add contract
    # rebuild clean for the identity check below
    import shutil as sh

    sh.rmtree(index_dir)
    build_index(
        ray.data.read_parquet(base_p), index_dir, num_segments=2,
        range_width=256, batch_size=400,
    )
    append_index(ray.data.read_parquet(app_p), index_dir, num_segments=2, batch_size=400)
    engine3 = SearchEngine(index_dir, parallel=False)
    for qs in QUERY_SET[::5]:
        _compare(engine3, oracle, qs)
    # built and appended segments alike are in the postings writer's layout
    for seg_dir in _seg_dirs(index_dir):
        _assert_segment_layout(seg_dir)


def test_delete_tombstones(built, tmp_path):
    """Tombstoned conversations vanish from every query shape; surviving docs
    keep BIT-IDENTICAL scores (stats stay maxDoc-based until a rewrite, the
    Lucene liveDocs contract); deletes are idempotent and accumulative."""
    import ray.data

    from lucille_ray.index import delete_conversations, delete_docs

    data_dir, _, table = built
    index_dir = str(tmp_path / "didx")
    build_index(
        ray.data.read_parquet(data_dir), index_dir, num_segments=2,
        range_width=256, batch_size=400,
    )
    before = SearchEngine(index_dir, parallel=False)

    queries = [
        "data", "data AND query", '"lazy evaluation"', "deploy OR jump",
        "data AND NOT query", "(data query join)@2", "role:assistant AND deploy",
    ]
    pre = {qs: before.search(qs, k=50, with_meta=False) for qs in queries}
    # pick the conversation of the top 'data' hit — guaranteed in results
    victim_conv = before.search("data", k=1)["conv_id"][0].as_py()
    victim_docs = set(
        i for i, c in enumerate(sorted(
            zip(table["conv_id"].to_pylist(), table["turn_idx"].to_pylist())
        )) if c[0] == victim_conv
    )
    assert victim_docs

    n = delete_conversations(index_dir, [victim_conv])
    assert n == len(victim_docs)
    assert delete_conversations(index_dir, [victim_conv]) == 0  # idempotent
    assert delete_docs(index_dir, [10**12]) == 0  # out of range ignored

    after = SearchEngine(index_dir, parallel=False)
    for qs in queries:
        got = after.search(qs, k=50, with_meta=False)
        gp = list(zip(got["doc_id"].to_pylist(), got["score"].to_pylist()))
        exp = [
            (d, s)
            for d, s in zip(pre[qs]["doc_id"].to_pylist(), pre[qs]["score"].to_pylist())
            if d not in victim_docs
        ][: len(gp)]
        assert [d for d, _ in gp][: len(exp)] == [d for d, _ in exp], qs
        for (gd, gs), (ed, es) in zip(gp, exp):
            assert gs == es, f"{qs!r}: survivor score changed {gs} != {es}"
    # match_all excludes tombstoned docs too
    ma = after.match_all("data")
    assert not victim_docs & set(ma["doc_id"].to_pylist())
    # the tombstoned conv really did match before
    assert victim_docs & set(before.match_all("data")["doc_id"].to_pylist())


def test_delete_purge_at_compaction(built, tmp_path, monkeypatch):
    """Compaction purges tombstones (the Lucene merge moment): deleted docs
    leave the postings physically, live stats (numDocs/avgdl/df) take over, the
    new commit names no tombstone and no tombstone file is left, and the
    purged index is rank+score-equivalent to a brute-force oracle over the
    live corpus. (The block-max executors served the tombstoned segments
    too: readers drop deleted docs wherever anything decodes.) Each segment
    is purged on its own (SLICE_DOCS=1), so the engine sums two segments'
    live stats; test_churned_index_merges_into_one_segment purges in a
    merge."""
    import json

    import ray.data

    import lucille_ray.index.compact as compact_mod
    from lucille_ray.index import compact_index, delete_conversations

    monkeypatch.setattr(compact_mod, "SLICE_DOCS", 1)

    data_dir, _, table = built
    index_dir = str(tmp_path / "pidx")
    build_index(
        ray.data.read_parquet(data_dir), index_dir, num_segments=2,
        range_width=256, batch_size=400,
    )
    victim_conv = SearchEngine(index_dir, parallel=False).search(
        "data", k=1
    )["conv_id"][0].as_py()
    n_deleted = delete_conversations(index_dir, [victim_conv])
    assert n_deleted > 0

    compact_index(index_dir)

    import glob

    from lucille_ray.index import commit

    assert all(s.deleted is None for s in commit.read(index_dir)["segments"])
    assert not glob.glob(os.path.join(index_dir, "segments", "*", "deleted*.npy"))
    purged = 0
    for seg_dir in _seg_dirs(index_dir):
        mf = json.load(open(os.path.join(seg_dir, "MANIFEST.json")))
        purged += int(mf.get("purged_docs", 0))
    assert purged == n_deleted

    engine = SearchEngine(index_dir, parallel=False)
    for s in engine._scorers():
        assert all(r.deleted is None for r in s.readers)  # tombstones purged

    # equivalence with an index built from the live corpus: compare by
    # (conv_id, turn_idx) since engine doc ids keep their (gappy) values
    live = table.filter(pc.invert(pc.equal(table["conv_id"], victim_conv)))
    live_oracle = BruteForceOracle(live)
    for qs in QUERY_SET[::3]:
        got = engine.search(qs, k=10)
        exp = live_oracle.search(qs, k=10)
        assert got.num_rows == len(exp), qs
        exp_keys = [
            (live_oracle.conv_id[d], live_oracle.turn_idx[d]) for d, _ in exp
        ]
        got_keys = list(zip(got["conv_id"].to_pylist(), got["turn_idx"].to_pylist()))
        assert got_keys == exp_keys, f"{qs!r}: {got_keys[:3]} vs {exp_keys[:3]}"
        for gs, (_, es) in zip(got["score"].to_pylist(), exp):
            assert abs(gs - es) < 1e-9, qs

    # re-compaction without new deletes is a resume no-op
    mfp = os.path.join(_seg_dirs(index_dir)[0], "MANIFEST.json")
    mtime = os.path.getmtime(mfp)
    compact_index(index_dir)
    assert os.path.getmtime(mfp) == mtime


def test_second_purge_counts_only_new_deletes(ray_session, tmp_path):
    """A second purge subtracts only the docs no earlier purge removed, and a
    delete of an already purged doc is no new delete. On a 400-doc,
    1-segment index: delete 3 and compact, then delete 2 new ids plus 1
    purged id (2 newly deleted) and compact. 395 docs stay live, the live
    field lengths are the live corpus's, and every QUERY_SET top-10 equals
    the brute-force oracle over the live corpus."""
    from lucille_ray.index import compact_index, delete_docs
    from lucille_ray.index.segment import load_segments

    data_dir = str(tmp_path / "data")
    index_dir = str(tmp_path / "idx")
    T.generate(400, data_dir, num_files=1)
    build_index(T.read_transcripts(data_dir), index_dir, num_segments=1,
                batch_size=200)
    assert delete_docs(index_dir, [5, 77, 300]) == 3
    compact_index(index_dir)
    assert delete_docs(index_dir, [12, 250, 77]) == 2
    compact_index(index_dir)

    (reader,) = load_segments(index_dir)
    assert reader.doc_count == 400 and reader.live_docs == 395
    dead = {5, 12, 77, 250, 300}
    src = _source_order(pq.read_table(data_dir))
    live = src.filter(pa.array([d not in dead for d in range(src.num_rows)]))
    live_oracle = BruteForceOracle(live)
    for f in reader.stats["fields"]:
        assert reader.live_total_dl(f) == sum(map(len, live_oracle.tokens[f])), f
    engine = SearchEngine(index_dir, parallel=False)
    for qs in QUERY_SET:
        got = engine.search(qs, k=10)
        exp = live_oracle.search(qs, k=10)
        exp_keys = [
            (live_oracle.conv_id[d], live_oracle.turn_idx[d]) for d, _ in exp
        ]
        got_keys = list(zip(got["conv_id"].to_pylist(), got["turn_idx"].to_pylist()))
        assert got_keys == exp_keys, qs
        for gs, (_, es) in zip(got["score"].to_pylist(), exp):
            assert abs(gs - es) < 1e-9, qs


def test_compaction_loads_arrays_on_calling_thread(built, tmp_path, monkeypatch):
    """``np.load`` parses .npy headers with ``ast.literal_eval``, which is not
    thread-safe: compacting several tombstoned segments must load every
    tombstone file and norms file on the calling thread, never on the
    compaction pool's threads."""
    import threading

    import ray.data

    from lucille_ray.index import compact_index, delete_docs
    from lucille_ray.index.segment import load_segments

    data_dir, _, _ = built
    index_dir = str(tmp_path / "tidx")
    build_index(
        ray.data.read_parquet(data_dir), index_dir, num_segments=3,
        range_width=256, batch_size=400,
    )
    readers = load_segments(index_dir)
    assert len(readers) == 3
    delete_docs(index_dir, [r.doc_base for r in readers])

    loads = []
    real_load = np.load

    def recording_load(path, *args, **kwargs):
        loads.append((os.path.basename(str(path)), threading.current_thread()))
        return real_load(path, *args, **kwargs)

    monkeypatch.setattr(np, "load", recording_load)
    compact_index(index_dir)
    names = [name for name, _ in loads]
    assert sum(name.startswith("deleted_") for name in names) >= 3
    assert sum(name.startswith("norms_") for name in names) >= 3
    assert all(t is threading.main_thread() for _, t in loads)
    for seg_dir in _seg_dirs(index_dir):
        assert not [f for f in os.listdir(seg_dir) if f.startswith("deleted")]


def test_ranged_docid_mode_identical_results(built, oracle, tmp_path, monkeypatch):
    """The ranged doc-id mode (distributed sort + hash join, no driver conv
    map; chosen past DOCID_DRIVER_MAX_ROWS input rows) must produce an
    identical index: same doc ids, same search results, and the same stored
    posting rows as the driver mode although its hash join scrambles the
    input order (a write of several segments sorts its rows by doc id, so
    its tokenize batches hold consecutive docs whatever the input order)."""
    import lucille_ray.index.build as build_mod
    from lucille_ray.index import commit

    def stored_postings(index_dir):
        tables = [pq.read_table(os.path.join(d, "postings.parquet"))
                  for d in commit.segment_dirs(index_dir, commit.read(index_dir))]
        return [t.take(row_order(t, ["field", "term"])) for t in tables]

    def doc_maps(index_dir):
        """Every segment's doc map, which must be one file."""
        paths = [os.path.join(d, "convmap.parquet")
                 for d in commit.segment_dirs(index_dir, commit.read(index_dir))]
        assert all(os.path.isfile(p) for p in paths), paths
        return [pq.ParquetFile(p).read() for p in paths]

    data_dir, _, _ = built
    ds = T.read_transcripts(data_dir)
    driver_dir = str(tmp_path / "driver_idx")
    build_index(ds, driver_dir, num_segments=2, range_width=256, batch_size=400)
    monkeypatch.setattr(build_mod, "DOCID_DRIVER_MAX_ROWS", 0)
    index_dir = str(tmp_path / "ranged_idx")
    build_index(ds, index_dir, num_segments=2, range_width=256, batch_size=400)
    with open(os.path.join(index_dir, "build_metrics.json")) as f:
        assert json.load(f)["docid_mode"] == "ranged"
    ranged, driver = stored_postings(index_dir), stored_postings(driver_dir)
    assert len(ranged) == len(driver) == 2
    assert all(r.equals(d) for r, d in zip(ranged, driver))
    driver_maps = doc_maps(driver_dir)
    assert all(r.equals(d) for r, d in zip(doc_maps(index_dir), driver_maps))
    _assert_doc_meta_in_rank_order(index_dir, built[2])
    engine = SearchEngine(index_dir, parallel=False)
    for qs in QUERY_SET[::5]:
        _compare(engine, oracle, qs)
    # single segment: its doc map written from the ranged base tables is
    # the driver mode's two maps end to end
    fused_dir = str(tmp_path / "ranged_fused_idx")
    build_index(ds, fused_dir, num_segments=1, batch_size=400)
    [one] = doc_maps(fused_dir)
    assert one.equals(pa.concat_tables(driver_maps))
    _assert_doc_meta_in_rank_order(fused_dir, built[2])


def test_turn_idx_duplicate_detection(ray_session, tmp_path):
    """[0,0,2] has the right count and max but duplicated indices — the build
    must fail fast instead of minting duplicate doc_ids."""
    import ray.data

    t = pa.table(
        {
            "conv_id": pa.array(["c0", "c0", "c0"]),
            "turn_idx": pa.array([0, 0, 2], pa.int32()),
            "role": pa.array(["user"] * 3),
            "text": pa.array(["a", "b", "c"]),
            "tool": pa.array(["none"] * 3),
            "ts": pa.array([1, 2, 3], pa.timestamp("us")),
        }
    )
    data = str(tmp_path / "dup.parquet")
    pq.write_table(t, data)
    with pytest.raises(Exception, match="dense"):
        build_index(
            ray.data.read_parquet(data), str(tmp_path / "dup_idx"), num_segments=1
        )


def test_fused_docmap_rank_identity_and_no_roundtrip(built, oracle, tmp_path):
    """Builds of one and of two segments both stream the doc-id-assigned
    Dataset straight into the tokenize pipeline (no docmapped parquet
    round-trip) and answer rank+score-identically."""
    data_dir, _, _ = built
    ds = T.read_transcripts(data_dir)
    fused_dir = str(tmp_path / "fused_idx")
    build_index(ds, fused_dir, num_segments=1, batch_size=400)
    unfused_dir = str(tmp_path / "unfused_idx")
    build_index(ds, unfused_dir, num_segments=2, batch_size=400)
    for d in (fused_dir, unfused_dir):
        assert not os.path.isdir(os.path.join(d, "docmapped"))
        with open(os.path.join(d, "index_meta.json")) as f:
            assert "docmap" not in json.load(f)

    ef = SearchEngine(fused_dir, parallel=False)
    eu = SearchEngine(unfused_dir, parallel=False)
    for qs in QUERY_SET[::4]:
        tf_ = ef.search(qs, k=10, with_meta=False)
        tu = eu.search(qs, k=10, with_meta=False)
        assert tf_.to_pydict() == tu.to_pydict()
        _compare(ef, oracle, qs)
    # result metadata comes from the O(#convs) doc map, not a forward index,
    # on both paths
    mf = ef.search("data", k=10)
    mu = eu.search("data", k=10)
    assert mf.to_pydict() == mu.to_pydict()
    assert mf.column_names == ["doc_id", "conv_id", "turn_idx", "score"]
    _assert_doc_meta_in_rank_order(fused_dir, built[2])
    _assert_doc_meta_in_rank_order(unfused_dir, built[2])


def test_fused_docmap_resume_recomputes(built, tmp_path):
    """A half-built fused index (complete meta, incomplete segment) resumes by
    recomputing — never by trusting a docmap checkpoint that does not exist."""
    data_dir, _, _ = built
    ds = T.read_transcripts(data_dir)
    index_dir = str(tmp_path / "fused_resume_idx")
    build_index(ds, index_dir, num_segments=1, batch_size=400)
    ref = SearchEngine(index_dir, parallel=False).search(
        "data", k=5, with_meta=False
    )
    shutil.rmtree(os.path.join(index_dir, "segments"))
    build_index(ds, index_dir, num_segments=1, batch_size=400)
    again = SearchEngine(index_dir, parallel=False).search(
        "data", k=5, with_meta=False
    )
    assert ref.to_pydict() == again.to_pydict()
    # and a complete fused index resumes as a no-op (segment untouched)
    man = os.path.join(index_dir, "segments", "seg-00000", "MANIFEST.json")
    mtime = os.path.getmtime(man)
    build_index(ds, index_dir, num_segments=1, batch_size=400)
    assert os.path.getmtime(man) == mtime


def test_fused_docmap_full_lifecycle(built, tmp_path):
    """append -> delete_conversations -> compact on a one-segment index:
    appended segments carry their own doc maps (plain string conv ids) and
    their metadata must concat with the built segment's; deletes resolve
    conv -> doc ranges through the doc maps, which compaction keeps."""
    import ray.data

    from lucille_ray.index import compact_index, delete_conversations
    from lucille_ray.index.build import append_index
    from lucille_ray.index.segment import load_segments

    data_dir, _, table = built
    convs = sorted(set(table["conv_id"].to_pylist()))
    cut = convs[int(len(convs) * 0.7)]
    mask = pc.less(table["conv_id"], cut)
    base_p = str(tmp_path / "fl_base.parquet")
    app_p = str(tmp_path / "fl_app.parquet")
    pq.write_table(table.filter(mask), base_p)
    pq.write_table(table.filter(pc.invert(mask)), app_p)

    idx = str(tmp_path / "fl_idx")
    build_index(ray.data.read_parquet(base_p), idx, num_segments=1,
                batch_size=400)
    append_index(ray.data.read_parquet(app_p), idx, num_segments=2,
                 batch_size=400)
    e = SearchEngine(idx, parallel=False)
    t = e.search("data", k=8)  # metadata join across fused + appended segs
    assert t.num_rows == 8 and t.column_names == [
        "doc_id", "conv_id", "turn_idx", "score"]
    _assert_doc_meta_in_rank_order(idx, table)

    n = delete_conversations(idx, [convs[0], convs[1]])
    assert n == 2 * T.TURNS_PER_CONV  # convmap-resolved dense doc ranges
    e2 = SearchEngine(idx, parallel=False)
    t2 = e2.search("data", k=8)
    assert convs[0] not in t2["conv_id"].to_pylist()

    compact_index(idx)
    e3 = SearchEngine(idx, parallel=False)
    t3 = e3.search("data", k=8)
    assert convs[0] not in t3["conv_id"].to_pylist()
    assert t3["conv_id"][0].as_py().startswith("conv-")
    # the purge keeps doc ids, so the doc maps still hold
    purged = sum(
        json.load(open(os.path.join(r.seg_dir, "MANIFEST.json"))).get("purged_docs", 0)
        for r in load_segments(idx)
    )
    assert purged == n
    _assert_doc_meta_in_rank_order(idx, table)


def test_resume_over_changed_input_raises(built, tmp_path):
    """A resume whose input no longer gives the commit's doc ids raises and
    writes nothing; so does a build whose postings pass sees fewer rows than
    its doc-id pass counted, instead of committing a segment without them."""
    import ray.data

    from lucille_ray.index import commit

    data_dir, _, table = built
    ds = T.read_transcripts(data_dir)
    index_dir = str(tmp_path / "changed_idx")
    build_index(ds, index_dir, num_segments=2, batch_size=400)
    seg1 = _seg_dirs(index_dir)[1]
    os.remove(os.path.join(seg1, "MANIFEST.json"))  # a crash before its finish
    before = commit.read(index_dir)
    files = _index_files(index_dir)
    convs = sorted(set(table["conv_id"].to_pylist()))
    fewer = str(tmp_path / "fewer.parquet")
    pq.write_table(table.filter(pc.less(table["conv_id"], convs[-1])), fewer)
    with pytest.raises(ValueError, match="input changed since the build's commit"):
        build_index(ray.data.read_parquet(fewer), index_dir, num_segments=2,
                    batch_size=400)
    assert commit.read(index_dir) == before
    assert _index_files(index_dir) == files

    # the doc-id pass counts the whole corpus, the postings pass reads less
    torn = ray.data.read_parquet(fewer)
    torn._lucille_parquet_src = data_dir
    torn_dir = str(tmp_path / "torn_idx")
    with pytest.raises(ValueError, match="docs, but its bounds"):
        build_index(torn, torn_dir, num_segments=2, batch_size=400)
    assert not segment_complete(torn_dir, 1)


def test_expansion_resolve_against_matches_scan():
    """Binary-search expansion resolution == brute matcher scan on every kind."""
    from lucille_ray.search.eval import ExpansionSpec

    vocab = np.array(sorted(
        ["cat", "catalog", "cater", "cats", "dog", "scan", "scat", "s",
         "zebra", "az", "a", "sc0", "sd"]), dtype=object)
    specs = [
        ExpansionSpec("text", "prefix", ("cat",)),
        ExpansionSpec("text", "prefix", ("s",)),
        ExpansionSpec("text", "prefix", ("zzz",)),
        ExpansionSpec("text", "range", ("cat", "scan", True, True)),
        ExpansionSpec("text", "range", ("cat", "scan", False, False)),
        ExpansionSpec("text", "range", (None, "dog", True, True)),
        ExpansionSpec("text", "range", ("s", None, True, True)),
        ExpansionSpec("text", "wildcard", ("cat.*",)),
        ExpansionSpec("text", "wildcard", ("s.an",)),
        ExpansionSpec("text", "wildcard", (".*at",)),
        ExpansionSpec("text", "fuzzy", ("cat", 1)),
        ExpansionSpec("text", "fuzzy", ("scan", 2)),
        ExpansionSpec("text", "regex", ("c.t.*",)),
    ]
    for spec in specs:
        fast = sorted(spec.resolve_against(vocab).tolist())
        slow = sorted(vocab[spec.matcher()(vocab)].tolist())
        assert fast == slow, spec


def test_expansion_bound_enforced_across_segments(ray_session, tmp_path, monkeypatch):
    """Each segment's expansion stays under the bound but the cross-segment
    union exceeds it: plan() must raise (maxClauseCount semantics)."""
    import ray.data

    rows = []
    for seg, prefix_group in ((0, "aaa"), (1, "bbb")):
        conv = f"c{seg}"
        for i in range(12):
            rows.append(
                {
                    "conv_id": conv, "turn_idx": i, "role": "user",
                    "text": f"t{prefix_group}{i} filler", "tool": "none",
                    "ts": 1_700_000_000_000_000 + i,
                }
            )
    t = pa.table(
        {
            "conv_id": pa.array([r["conv_id"] for r in rows]),
            "turn_idx": pa.array([r["turn_idx"] for r in rows], pa.int32()),
            "role": pa.array([r["role"] for r in rows]),
            "text": pa.array([r["text"] for r in rows]),
            "tool": pa.array([r["tool"] for r in rows]),
            "ts": pa.array([r["ts"] for r in rows], pa.timestamp("us")),
        }
    )
    data = str(tmp_path / "exp.parquet")
    pq.write_table(t, data)
    index_dir = str(tmp_path / "exp_idx")
    build_index(ray.data.read_parquet(data), index_dir, num_segments=2, batch_size=50)
    import lucille_ray.search.engine as eng_mod

    engine = SearchEngine(index_dir, parallel=False)
    # per-segment hits: 12 each (under 15); union: 24 (over 15)
    monkeypatch.setattr(eng_mod, "MAX_EXPANSIONS", 15)
    with pytest.raises(ValueError, match="across segments"):
        engine.plan("t*")


def test_compaction_preserves_results(built, oracle, tmp_path, monkeypatch):
    """compact_index merges doc-partitioned pieces; results stay rank-identical
    and re-compaction is a resume no-op. Each segment is compacted on its
    own (SLICE_DOCS=1), so the entries are per segment."""
    import pyarrow.parquet as pq2

    import lucille_ray.index.build as build_mod
    import lucille_ray.index.compact as compact_mod
    from lucille_ray.index import compact_index

    monkeypatch.setattr(compact_mod, "SLICE_DOCS", 1)

    data_dir, _, _ = built
    ds = T.read_transcripts(data_dir)
    index_dir = str(tmp_path / "cidx")
    # raw pieces (no in-build merge) so compaction's row consolidation is visible
    with monkeypatch.context() as m:
        m.setattr(build_mod, "PIECE_MERGE_ROWS", 0)
        build_index(
            ds, index_dir, num_segments=2, range_width=128, batch_size=300,
        )
    def rows_of_first_segment():
        post0 = os.path.join(_seg_dirs(index_dir)[0], "postings.parquet")
        return pq2.read_table(post0, columns=["term"]).num_rows

    from lucille_ray.index import commit

    rows_before = rows_of_first_segment()
    sources = [s.name for s in commit.read(index_dir)["segments"]]
    files_before = _index_files(index_dir)
    done = compact_index(index_dir)
    rows_after = rows_of_first_segment()
    assert rows_after < rows_before
    # one entry per compacted segment, in commit order; nothing of it is
    # written: the index holds the new directories' files and nothing else
    assert [d["source"] for d in done] == [[s] for s in sources]
    assert [d["segment"] for d in done] == [
        s.name for s in commit.read(index_dir)["segments"]]
    assert done[0]["posting_rows_in"] == rows_before
    for d in done:
        man = json.load(open(os.path.join(
            commit.segment_dir(index_dir, d["segment"]), "MANIFEST.json")))
        assert d["posting_rows_out"] == man["posting_rows"] < d["posting_rows_in"]
        assert d["wall_s"] > 0
        # every row lands in exactly one term range
        assert d["ranges"] and all(r["wall_s"] > 0 for r in d["ranges"])
        assert sum(r["rows_kept"] for r in d["ranges"]) == d["posting_rows_in"]
        assert sum(r["rows_written"] for r in d["ranges"]) == d["posting_rows_out"]
    assert json.loads(json.dumps(done)) == done
    assert {f for f in _index_files(index_dir) if not f.startswith("segments/")} == {
        f for f in files_before if not f.startswith("segments/")}
    engine = SearchEngine(index_dir, parallel=False)
    for qs in QUERY_SET[::6]:
        _compare(engine, oracle, qs)
    mf = os.path.join(_seg_dirs(index_dir)[0], "MANIFEST.json")
    mtime = os.path.getmtime(mf)
    assert compact_index(index_dir) == []  # resume: skip
    assert os.path.getmtime(mf) == mtime


def _index_files(index_dir: str) -> set:
    """Every file under ``index_dir``, as a relative path."""
    return {os.path.relpath(os.path.join(root, f), index_dir)
            for root, _, files in os.walk(index_dir) for f in files}


def test_piece_merge_rank_identity(built, oracle, tmp_path, monkeypatch):
    """In-build piece compaction is layout-only: a build with the merge forced
    into many small windows stays rank+score-identical to the oracle and emits
    fewer posting rows than the raw piece build."""
    import pyarrow.parquet as pq2

    import lucille_ray.index.build as build_mod

    data_dir, _, _ = built
    raw_dir = str(tmp_path / "pm_raw")
    merged_dir = str(tmp_path / "pm_merged")
    for d, window in ((raw_dir, 0), (merged_dir, 2048)):
        monkeypatch.setattr(build_mod, "PIECE_MERGE_ROWS", window)
        build_index(
            T.read_transcripts(data_dir), d, num_segments=2,
            range_width=128, batch_size=150,
        )

    def total_rows(index_dir):
        n = 0
        segs = os.path.join(index_dir, "segments")
        for seg in os.listdir(segs):
            p = os.path.join(segs, seg, "postings.parquet")
            if os.path.isdir(p):
                n += sum(
                    pq2.read_metadata(os.path.join(p, f)).num_rows
                    for f in os.listdir(p) if f.endswith(".parquet")
                )
        return n

    assert total_rows(merged_dir) < total_rows(raw_dir)
    engine = SearchEngine(merged_dir, parallel=False)
    for qs in QUERY_SET[::3]:
        _compare(engine, oracle, qs)


def test_suggest_search_as_you_type(built, oracle):
    """suggest() == search of the mapLastTerm-expanded AST (Term -> Term OR Prefix)."""
    from lucille_ray.query import Or, Prefix, Term, parse as parse_q

    engine = SearchEngine(built[1], parallel=False)
    got = engine.suggest("data AND depl", k=10, with_meta=False)
    expanded = parse_q("data AND depl").map_last_term(
        lambda t: Or(Term(t.value), Prefix(t.value))
    )
    exp = oracle.search(expanded, k=10)
    assert got["doc_id"].to_pylist() == [d for d, _ in exp]
    assert len(exp) > 0  # 'depl' alone matches nothing; the prefix expansion must


def _rewrite_term_partitioned(index_dir: str) -> None:
    """Rewrite a built index in place into the rows the removed
    ``term_partitioned`` build layout (a ``groupby(field, term, bucket)``
    shuffle) wrote: one row per (field, term, doc // range_width), blocks
    encoded without doc lengths
    (``min_dl`` 0), manifests' ``posting_rows`` updated and the meta's
    ``layout`` set to ``term_partitioned``. Segments without a committed
    manifest are left alone."""
    import glob

    from lucille_ray.index.codec import decode_postings, encode_runs, sort_postings
    from lucille_ray.index.writer import write_postings_file

    meta_path = os.path.join(index_dir, "index_meta.json")
    with open(meta_path) as f:
        meta = json.load(f)
    width = meta["range_width"]
    keys = [("field", "ascending"), ("term", "ascending"), ("bucket", "ascending")]
    for seg_dir in sorted(glob.glob(os.path.join(index_dir, "segments", "*"))):
        if not os.path.exists(os.path.join(seg_dir, "MANIFEST.json")):
            continue
        post = os.path.join(seg_dir, "postings.parquet")
        rows = _unpacked(pq.read_table(post)).sort_by(keys)
        field, term = rows["field"].to_pylist(), rows["term"].to_pylist()
        cut = [0] + [i for i in range(1, rows.num_rows)
                     if (field[i], term[i]) != (field[i - 1], term[i - 1])]
        parts = []
        for a, b in zip(cut, cut[1:] + [rows.num_rows]):
            blocks = rows["blocks"].slice(a, b - a).combine_chunks().flatten()
            docs, tfs, pos = decode_postings(blocks.to_pylist(), want_positions=True)
            docs, tfs, pos = sort_postings(docs, tfs, pos)
            bucket = docs // width
            starts = np.flatnonzero(np.append(True, bucket[1:] != bucket[:-1]))
            parts.append(pack_rows(pa.table({
                "field": pa.array([field[a]] * starts.size, pa.string()),
                "term": pa.array([term[a]] * starts.size, pa.string()),
            }), *encode_runs(docs, tfs, starts, pos)))
        old = pa.concat_tables(parts)
        shutil.rmtree(post)
        os.makedirs(post)
        write_postings_file(old, os.path.join(post, "part-0.parquet"))
        mpath = os.path.join(seg_dir, "MANIFEST.json")
        with open(mpath) as f:
            man = json.load(f)
        man["posting_rows"] = old.num_rows
        with open(mpath, "w") as f:
            json.dump(man, f)
    meta["layout"] = "term_partitioned"
    with open(meta_path, "w") as f:
        json.dump(meta, f)


def test_term_partitioned_index_still_serves(
    built, oracle, tmp_path, monkeypatch, capsys
):
    """An index written by the removed ``term_partitioned`` build layout
    answers every query like the oracle and a fresh index, also after
    compaction. Its blocks store ``min_dl`` 0, which the block-max
    executors read as dl 0: a looser bound, the same answers. A crashed
    build whose meta says ``term_partitioned`` (or has no ``layout`` key)
    resumes its pending segment on the one build path; and the CLI
    ``stats`` command reports on it."""
    import ray

    import lucille_ray.index.build as build_mod
    from lucille_ray.__main__ import main
    from lucille_ray.index import compact_index

    data_dir, index_dir, _ = built
    ds = T.read_transcripts(data_dir)

    def answers(d):
        engine = SearchEngine(d, parallel=False, result_cache=False)
        for qs in QUERY_SET:
            _compare(engine, oracle, qs)
        return [engine.search(qs, k=10).to_pydict() for qs in QUERY_SET]

    fresh = answers(index_dir)
    old_dir = str(tmp_path / "old")
    shutil.copytree(index_dir, old_dir)
    _rewrite_term_partitioned(old_dir)
    rows = _stored_rows(old_dir)
    lists = rows["blocks"].combine_chunks()
    lasts = lists.flatten().field("last_doc").to_numpy()[lists.offsets.to_numpy()[1:] - 1]
    assert (rows["bucket"].to_numpy() // 256 == lasts // 256).all()  # one range per row
    assert not rows.equals(_stored_rows(index_dir))
    assert answers(old_dir) == fresh  # (a)

    monkeypatch.setattr(ray, "shutdown", lambda: None)  # keep the test session
    capsys.readouterr()
    assert main(["stats", "--index", old_dir]) == 0  # (d)
    stats = json.loads(capsys.readouterr().out)
    assert stats["meta"]["layout"] == "term_partitioned"
    assert stats["totals"]["docs"] == N_TURNS
    assert stats["totals"]["posting_rows"] == rows.num_rows

    compact_index(old_dir)  # (b)
    assert answers(old_dir) == fresh

    # (c) segment 1 crashes; segment 0 is then rewritten into the old layout
    crashed = str(tmp_path / "crashed")
    real = build_mod._finish_segment

    def crash_on_1(index_dir_, seg, *args, **kwargs):
        if seg == 1:
            raise RuntimeError("crash in segment 1")
        return real(index_dir_, seg, *args, **kwargs)

    monkeypatch.setattr(build_mod, "_finish_segment", crash_on_1)
    with pytest.raises(RuntimeError, match="segment 1"):
        build_index(ds, crashed, num_segments=2, range_width=256, batch_size=400)
    monkeypatch.setattr(build_mod, "_finish_segment", real)
    _rewrite_term_partitioned(crashed)
    seg0_rows = pq.read_table(
        os.path.join(crashed, "segments", "seg-00000", "postings.parquet"))
    for variant in ("term_partitioned", None):
        d = str(tmp_path / f"resumed_{variant}")
        shutil.copytree(crashed, d)
        if variant is None:
            meta_path = os.path.join(d, "index_meta.json")
            with open(meta_path) as f:
                meta = json.load(f)
            del meta["layout"]
            with open(meta_path, "w") as f:
                json.dump(meta, f)
        build_index(ds, d, num_segments=2, range_width=256, batch_size=400)
        assert segment_complete(d, 1)
        assert pq.read_table(
            os.path.join(d, "segments", "seg-00000", "postings.parquet")
        ).equals(seg0_rows)  # the committed segment is untouched
        assert answers(d) == fresh, variant


def test_resume_skips_complete_segments_and_rebuilds_missing(
    built, oracle, tmp_path, monkeypatch
):
    import lucille_ray.index.build as build_mod
    from lucille_ray.index import build_report, commit
    from lucille_ray.index.report import parse_stage_stats
    from lucille_ray.index.segment import SegmentReader

    data_dir, index_dir, table = built
    ds = T.read_transcripts(data_dir)
    # all segments complete -> resume is a no-op (manifests untouched)
    m0 = os.path.join(index_dir, "segments", "seg-00000", "MANIFEST.json")
    mtime_before = os.path.getmtime(m0)
    build_index(ds, index_dir, num_segments=2, range_width=256, batch_size=400)
    assert os.path.getmtime(m0) == mtime_before

    # segment 1 crashes in its finish, after the one postings execution:
    # segment 0 has committed its manifest, segment 1 has postings but none
    crash_dir = str(tmp_path / "seg_crash_idx")
    real = build_mod._finish_segment

    def crash_on_1(index_dir_, seg, *args, **kwargs):
        if seg == 1:
            raise RuntimeError("crash in segment 1")
        return real(index_dir_, seg, *args, **kwargs)

    monkeypatch.setattr(build_mod, "_finish_segment", crash_on_1)
    with pytest.raises(RuntimeError, match="segment 1"):
        build_index(ds, crash_dir, num_segments=2, range_width=256, batch_size=400)
    monkeypatch.setattr(build_mod, "_finish_segment", real)
    assert segment_complete(crash_dir, 0)
    assert not segment_complete(crash_dir, 1)
    assert not os.path.exists(os.path.join(crash_dir, "docmapped"))
    rep = build_report(crash_dir)
    assert [s["segment"] for s in rep["segments"]] == ["seg-00000"]

    # resume rebuilds only segment 1: the doc-id pass drops segment 0's rows
    c0 = os.path.join(crash_dir, "segments", "seg-00000", "MANIFEST.json")
    c0_mtime = os.path.getmtime(c0)
    build_index(ds, crash_dir, num_segments=2, range_width=256, batch_size=400)
    assert segment_complete(crash_dir, 1)
    assert os.path.getmtime(c0) == c0_mtime  # seg 0 untouched
    with open(os.path.join(crash_dir, "build_metrics.json")) as f:
        assert [k for k in json.load(f) if k.startswith("segment_")] == [
            "segment_1_sec"]
    stats = open(os.path.join(crash_dir, "segments", "seg-00001",
                              "stage_stats.txt")).read()
    tokenized = [op for op in parse_stage_stats(stats)
                 if "_TokenizeEncode" in op["operator"]]
    assert tokenized and tokenized[0]["output_rows"] > 0
    n1 = commit.read(crash_dir)["segments"][1]
    assert SegmentReader(_seg_dirs(crash_dir)[1]).doc_count == n1.hi - n1.lo
    _assert_doc_meta_in_rank_order(crash_dir, table)
    engine = SearchEngine(crash_dir, parallel=False)
    clean = SearchEngine(index_dir, parallel=False)
    for qs in QUERY_SET[::3]:
        assert engine.search(qs, k=10).to_pydict() == clean.search(qs, k=10).to_pydict(), qs
    _compare(engine, oracle, "data AND query")
    _compare(engine, oracle, '"lazy evaluation"')


def test_parse_stage_stats_all_to_all_operator():
    """A sort's stats (Ray 2.49 text) parse into one operator whose tasks and
    remote times sum its map and reduce sub-operators, next to the ordinary
    operator before it."""
    from lucille_ray.index.report import parse_stage_stats

    text = """Operator 1 ReadRange: 4 tasks executed, 4 blocks produced in 0.06s
* Remote wall time: 951.04us min, 7.57ms max, 2.75ms mean, 11.0ms total
* Remote cpu time: 1.04ms min, 8.14ms max, 2.95ms mean, 11.79ms total
* Output num rows per block: 250 min, 250 max, 250 mean, 1000 total

Operator 2 Sort: executed in 0.95s

\tSuboperator 0 SortMap: 1 tasks executed, 4 blocks produced
\t* Remote wall time: 355.02us min, 1.15ms max, 623.09us mean, 2.49ms total
\t* Remote cpu time: 354.26us min, 1.03ms max, 592.24us mean, 2.37ms total
\t* Output num rows per block: 250 min, 250 max, 250 mean, 1000 total

\tSuboperator 1 SortReduce: 2 tasks executed, 3 blocks produced
\t* Remote wall time: 294.01us min, 408.88us max, 339.74us mean, 1.36ms total
\t* Remote cpu time: 292.75us min, 408.03us max, 338.7us mean, 1.35ms total
\t* Output num rows per block: 213 min, 298 max, 250 mean, 999 total

Dataset throughput:
\t* Ray Data throughput: 6299.67768333297 rows/s
"""
    read, sort = parse_stage_stats(text)
    assert read["operator"] == "ReadRange" and read["tasks"] == 4
    assert read["remote_wall_sec"] == 0.011 and read["output_rows"] == 1000
    assert sort["operator"] == "Sort"
    assert (sort["tasks"], sort["blocks"], sort["wall_sec"]) == (3, 3, 0.95)
    assert sort["remote_wall_sec"] == round(0.00249 + 0.00136, 6)
    assert sort["remote_cpu_sec"] == round(0.00237 + 0.00135, 6)
    assert sort["output_rows"] == 999


def test_build_report_structure(ray_session, tmp_path):
    from lucille_ray import transcripts as T
    from lucille_ray.index import build_index, compact_index, build_report

    data_dir = str(tmp_path / "rep_data")
    T.generate(3000, data_dir, num_files=2)
    idx = str(tmp_path / "rep_idx")
    build_index(T.read_transcripts(data_dir), idx, num_segments=2,
                batch_size=1024)
    r = build_report(idx)
    assert r["totals"]["segments"] == 2
    assert r["totals"]["docs"] == 3000
    assert r["totals"]["index_bytes"] > 0
    assert r["build_metrics"]["total_sec"] > 0
    assert all(s["status"] == "complete" for s in r["segments"])
    assert not any(s["compacted"] for s in r["segments"])
    # per-stage Ray Data stats are parsed into structured per-operator dicts
    staged = [s for s in r["segments"] if s.get("stages")]
    assert staged, "no segment carried parsed stage stats"
    for op in staged[0]["stages"]:
        assert op["operator"] and op["tasks"] >= 1
        assert op["wall_sec"] > 0 and op["remote_wall_sec"] >= 0
    assert r["stage_totals"], "index-level stage rollup missing"
    roll = {op["operator"]: op for op in r["stage_totals"]}
    for name, op in roll.items():
        per_seg = [o for s in staged for o in s["stages"]
                   if o["operator"] == name]
        assert op["tasks"] == sum(o["tasks"] for o in per_seg)
    compact_index(idx)
    r2 = build_report(idx)
    assert all(s["compacted"] for s in r2["segments"])
    assert r2["totals"]["posting_rows"] <= r["totals"]["posting_rows"]


def test_match_all_stream_matches_gathered(built, ray_session):
    """match_all_stream (Dataset from scorer-table refs) == match_all (gathered),
    in both engine modes, with and without metadata."""
    for parallel in (False, True):
        engine = SearchEngine(built[1], parallel=parallel)
        try:
            for qs in ("data AND query", "xylophone42", "nosuchterm"):
                got = engine.match_all(qs)
                ds = engine.match_all_stream(qs)
                st = ds.sort("doc_id").take_all()
                assert [r["doc_id"] for r in st] == got["doc_id"].to_pylist(), (
                    parallel, qs)
                assert [r["score"] for r in st] == got["score"].to_pylist()
            # materialized once: take(1) would run a Limit[1] execution
            meta = engine.match_all_stream("xylophone42", with_meta=True).materialize()
            row = meta.take_all()[0]
            assert set(row) == {"doc_id", "conv_id", "turn_idx", "score"}
        finally:
            engine.shutdown()


def test_scorer_actors_run_without_pandas(built, ray_session, monkeypatch):
    """Scorer actors refuse pandas (search/engine.py::_ScorerActor) and still
    answer exactly like the in-process engine: every query shape through
    ``search``, plus ``search_many``, ``suggest`` and ``match_all_stream``
    (whose tables the actors return). The driver and Ray Data workers keep
    pandas, and the driver's import path holds no refusal. After all of
    that, no module of ``engine.SCORER_UNLOADED`` is loaded in an actor."""
    import sys

    import ray

    import lucille_ray.index.compact as compact_mod
    import lucille_ray.search.engine as engine_mod

    monkeypatch.setattr(compact_mod, "SLICE_DOCS", 1)  # one actor per segment
    ref = SearchEngine(built[1], parallel=False)
    engine = SearchEngine(built[1], parallel=True)
    try:
        engine.warm()
        assert len(engine._actors) == 2
        for qs in QUERY_SET:
            got = engine.search(qs, k=10).to_pydict()
            assert got == ref.search(qs, k=10).to_pydict(), qs
        for (ad, ascr), (bd, bs) in zip(engine.search_many(QUERY_SET, k=10),
                                        ref.search_many(QUERY_SET, k=10)):
            assert ad.tolist() == bd.tolist() and ascr.tolist() == bs.tolist()
        for qs in ("dat", "role:user AND que"):
            assert engine.suggest(qs).to_pydict() == ref.suggest(qs).to_pydict(), qs
        want = ref.match_all("data AND query", with_meta=True).sort_by("doc_id")
        want = want.to_pydict()
        ds = engine.match_all_stream("data AND query", with_meta=True)
        df = ds.sort("doc_id").to_pandas()
        assert {c: df[c].tolist() for c in want} == want
        ids = ds.map_batches(lambda b: b[["doc_id"]], batch_format="pandas")
        assert sorted(ids.to_pandas()["doc_id"]) == want["doc_id"]
        unloaded = engine_mod.SCORER_UNLOADED
        in_actors = ray.get([
            a.__ray_call__.remote(lambda scorer: (
                "pandas" in sys.modules, type(sys.meta_path[0]).__name__,
                [m for m in unloaded if m in sys.modules]))
            for a in engine._actors
        ], timeout=60)
        assert in_actors == [(False, "_RefusePandas", [])] * 2
    finally:
        engine.shutdown()
    assert not any(isinstance(f, engine_mod._RefusePandas) for f in sys.meta_path)


def test_warm_queries_convert_no_arrow_to_numpy(built):
    """In a scorer actor every pyarrow-to-numpy conversion retries the refused
    pandas import (about 10 us each), so opening and warming a scorer and a
    warm query must make none: in a fresh interpreter that refuses and counts
    pandas imports, opening an in-process engine and ``warm()`` (readers,
    doc maps, term dictionaries) refuse none, and neither does a repeat pass
    of every query shape. pyarrow's one-time pandas probe, made by the first
    conversion of any process, is taken before counting."""
    import json
    import subprocess
    import sys
    import textwrap

    script = textwrap.dedent("""
        import json, sys

        class Refuse:
            n = 0

            def find_spec(self, name, path=None, target=None):
                if name == "pandas" or name.startswith("pandas."):
                    Refuse.n += 1
                    raise ImportError(name)
                return None

        sys.meta_path.insert(0, Refuse())
        import pyarrow as pa
        from lucille_ray.search.engine import SearchEngine

        n = Refuse.n
        pa.array([1]).to_numpy()
        assert Refuse.n > n, "the counter sees a conversion"
        index_dir, queries = sys.argv[1], json.loads(sys.argv[2])
        n = Refuse.n
        engine = SearchEngine(index_dir, parallel=False, result_cache=False)
        engine.warm()
        counts = [Refuse.n - n]
        for _ in range(2):
            n = Refuse.n
            for q in queries:
                engine.search(q, k=10)
            engine.suggest("dat", k=10)
            engine.search_many(queries, k=10)
            counts.append(Refuse.n - n)
        assert "pandas" not in sys.modules
        print(json.dumps(counts))
    """)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (root, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run(
        [sys.executable, "-c", script, built[1], json.dumps(QUERY_SET)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    opened, cold, warm = json.loads(out.stdout.strip().splitlines()[-1])
    assert opened == 0 and warm == 0, (opened, cold, warm)


def test_first_reader_open_loads_no_pandas(built):
    """Opening a built index's readers and resolving doc metadata in a fresh
    interpreter leaves pandas unloaded: ``pa.array`` and ``pa.scalar`` import
    it lazily on first use, which cost the first segment open of a process
    about a quarter second."""
    import subprocess
    import sys
    import textwrap

    script = textwrap.dedent("""
        import sys

        import numpy as np
        from lucille_ray.index.segment import load_segments

        for r in load_segments(sys.argv[1]):
            meta = r.doc_meta(np.arange(r.doc_base, r.doc_base + r.doc_count))
            assert meta.num_rows == r.doc_count
        assert "pandas" not in sys.modules, "pandas was imported"
    """)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (root, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", script, built[1]],
                         env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]


def test_scorer_loads_only_the_serving_path(built, pieces):
    """A scorer process loads only what scoring runs: in a fresh interpreter
    without Ray, an in-process ``SegmentScorer`` opens the readers of the
    built index and of the raw-piece one (several postings files a
    segment, so some reads are reordered by (term, bucket)), answers one
    query per ``TOP_K_ROUTES`` row and every query through the plain
    evaluator (``k=None``), and resolves doc metadata, and none of
    ``engine.SCORER_UNLOADED`` is loaded. The queries arrive parsed and
    pickled, as the driver sends them to scorer actors."""
    import base64
    import pickle
    import subprocess
    import sys
    import textwrap

    from lucille_ray import parse
    from lucille_ray.search.engine import TOP_K_ROUTES

    script = textwrap.dedent("""
        import base64, json, pickle, sys

        import lucille_ray.index.segment as segment_mod
        from lucille_ray.index import commit
        from lucille_ray.search.engine import (SCORER_UNLOADED, TOP_K_ROUTES,
                                               SegmentScorer, _merge_ctx)
        from lucille_ray.search.eval import collect_term_requests

        reorders = [0]
        buckets = segment_mod.row_buckets

        def counted(*args):
            reorders[0] += 1
            return buckets(*args)

        segment_mod.row_buckets = counted
        queries = pickle.loads(base64.b64decode(sys.argv[2]))
        routes, metas = set(), 0
        for index_dir in sys.argv[1].split(","):
            scorer = SegmentScorer(commit.segment_dirs(index_dir, commit.read(index_dir)))
            st = scorer.local_stats()
            avgdl = {f: v / st["n_docs"] for f, v in st["total_dl"].items()}
            for q in queries:
                reqs = collect_term_requests(q)
                ctx, _, _ = _merge_ctx([scorer.resolve(reqs)], st["n_docs"], avgdl)
                for matcher, executor in TOP_K_ROUTES:  # first match wins
                    if matcher(q, ctx) is not None:
                        routes.add(executor.__name__)
                        break
                for k in (10, None):
                    docs, _ = scorer.score(q, reqs, ctx, k)
                    meta = scorer.doc_meta(docs)
                    assert sorted(meta["doc_id"].to_pylist()) == sorted(docs.tolist())
                    metas += meta.num_rows
        print(json.dumps({"routes": sorted(routes), "reorders": reorders[0],
                          "metas": metas,
                          "loaded": [m for m in SCORER_UNLOADED if m in sys.modules]}))
    """)
    queries = [parse(q) for q in ("data OR query", "data AND query",
                                  '"lazy evaluation"', "data", "NOT data",
                                  "deploy*", "role:assistant AND deploy")]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (root, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run(
        [sys.executable, "-c", script, f"{built[1]},{pieces}",
         base64.b64encode(pickle.dumps(queries)).decode()],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    got = json.loads(out.stdout.strip().splitlines()[-1])
    assert got["routes"] == sorted(ex.__name__ for _, ex in TOP_K_ROUTES)
    assert got["reorders"] > 0 and got["metas"] > 0
    assert got["loaded"] == []


def test_each_write_runs_one_postings_execution(built, tmp_path, monkeypatch):
    """A 2-segment build and an append each run one doc-id count
    (``materialize``) and ONE postings execution for all their segments
    (``write_datasink``), and copy no corpus (``write_parquet``). Only
    outermost calls count: Ray's writes materialize internally."""
    import ray.data

    from lucille_ray.index.build import append_index

    calls = {"materialize": 0, "write_datasink": 0, "write_parquet": 0}
    depth = [0]

    def counting(name, real):
        def call(self, *args, **kwargs):
            calls[name] += depth[0] == 0
            depth[0] += 1
            try:
                return real(self, *args, **kwargs)
            finally:
                depth[0] -= 1
        return call

    for name in calls:
        monkeypatch.setattr(ray.data.Dataset, name,
                            counting(name, getattr(ray.data.Dataset, name)))

    def counted(write):
        for name in calls:
            calls[name] = 0
        write()
        return [calls[n] for n in ("materialize", "write_datasink", "write_parquet")]

    _, _, table = built
    convs = sorted(set(table["conv_id"].to_pylist()))
    mask = pc.less(table["conv_id"], convs[int(len(convs) * 0.8)])
    base_p, app_p = str(tmp_path / "base.parquet"), str(tmp_path / "app.parquet")
    pq.write_table(table.filter(mask), base_p)
    pq.write_table(table.filter(pc.invert(mask)), app_p)
    idx = str(tmp_path / "count_idx")
    assert counted(lambda: build_index(
        ray.data.read_parquet(base_p), idx, num_segments=2, batch_size=200,
    )) == [1, 1, 0]
    assert counted(lambda: append_index(
        ray.data.read_parquet(app_p), idx, num_segments=2, batch_size=200,
    )) == [1, 1, 0]
    from lucille_ray.index import commit

    assert len(commit.read(idx)["segments"]) == 4
    _assert_doc_meta_in_rank_order(idx, table)


def test_replicated_engine_identical(built, ray_session, monkeypatch):
    """replicas>1 stripes work across duplicate scorer sets; every API answer
    must be identical to the single-set engine (same docs AND scores). Engines
    run sequentially — the 4-CPU test session can't host both actor pools.
    SLICE_DOCS=1 keeps the fixture's two small segments on two actors per set,
    so the replica cap still has two groups to divide the CPUs by."""
    import lucille_ray.index.compact as compact_mod

    monkeypatch.setattr(compact_mod, "SLICE_DOCS", 1)
    base = SearchEngine(built[1], parallel=True)
    try:
        singles = {qs: base.search(qs, k=7, with_meta=False) for qs in QUERY_SET[:8]}
        batch_base = base.search_many(QUERY_SET[:7], k=5)
    finally:
        base.shutdown()
    # ask for more replicas than fit: the CPU cap must clamp, not deadlock
    rep = SearchEngine(built[1], parallel=True, replicas=16)
    try:
        assert 1 <= len(rep._scorer_sets()) <= 2  # 4 cpus / 2 groups
        rep.warm("data")  # fans to every set across all replicas
        for qs, a in singles.items():
            b = rep.search(qs, k=7, with_meta=False)
            assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist(), qs
            assert a["score"].to_pylist() == b["score"].to_pylist(), qs
        # uneven stripes: 7 queries over the replica sets
        batch = rep.search_many(QUERY_SET[:7], k=5)
        for (ad, ascr), (bd, bs) in zip(batch_base, batch):
            assert ad.tolist() == bd.tolist()
            assert ascr.tolist() == bs.tolist()
        # warm_many fans the batch vocabulary to every set; calibrate picks a
        # serving mode — answers must stay bit-identical in BOTH modes
        rep.warm_many(QUERY_SET[:7], k=5)
        mode = rep.calibrate(QUERY_SET[:7], k=5, passes=1)
        assert mode in ("striped", "single")
        for forced in ("striped", "single"):
            rep._mode = forced
            batch = rep.search_many(QUERY_SET[:7], k=5)
            for (ad, ascr), (bd, bs) in zip(batch_base, batch):
                assert ad.tolist() == bd.tolist(), forced
                assert ascr.tolist() == bs.tolist(), forced
    finally:
        rep.shutdown()


def test_df_cache_skips_resolve_bit_identical(built, ray_session, monkeypatch):
    """Second query over the same vocabulary must skip the resolve round-trip
    and still answer bit-identically to a fresh (cache-cold) engine."""
    import lucille_ray.search.engine as eng_mod

    calls = []
    orig = eng_mod.SegmentScorer.resolve

    def counting(self, reqs):
        calls.append(1)
        return orig(self, reqs)

    monkeypatch.setattr(eng_mod.SegmentScorer, "resolve", counting)
    engine = SearchEngine(built[1], parallel=False)
    a1 = engine.search("data AND query", k=5, with_meta=False)
    n1 = len(calls)
    assert n1 >= 1
    a2 = engine.search("data AND query", k=5, with_meta=False)
    assert len(calls) == n1, "repeat query must not resolve again"
    assert a1["doc_id"].to_pylist() == a2["doc_id"].to_pylist()
    assert a1["score"].to_pylist() == a2["score"].to_pylist()
    # known-absent terms cache as df=0 after one resolve
    engine.search("data AND nosuchterm", k=5, with_meta=False)
    # a DIFFERENT query over cached vocabulary also skips, and matches a
    # cache-cold engine bit-exactly (incl. phrase/positional and absent terms)
    for qs in ('query OR data', '"data query"~2', "data AND nosuchterm"):
        before = len(calls)
        got = engine.search(qs, k=5, with_meta=False)
        assert len(calls) == before, qs
        cold = SearchEngine(built[1], parallel=False)
        exp = cold.search(qs, k=5, with_meta=False)
        assert got["doc_id"].to_pylist() == exp["doc_id"].to_pylist(), qs
        assert got["score"].to_pylist() == exp["score"].to_pylist(), qs
    # dictionary expansions can never be answered from the df cache
    before = len(calls)
    engine.search("dat*", k=5, with_meta=False)
    assert len(calls) > before
    # batch planning resolves only the uncached queries
    before = len(calls)
    engine.search_many(["data AND query", "brandnewterm999"], k=5)
    assert len(calls) == before + 1


def test_conv_offsets_tree_reduce_identical(ray_session):
    """Past CONV_MERGE_FANOUT partial blocks the conv-offsets merge runs as a
    tree of Ray tasks (VERDICT r03 #4 — the ~0.9 s driver-serial sort at 10M);
    the result must be identical to the driver-side merge, and the tree path
    must actually be taken."""
    import ray

    from lucille_ray.index import build as B

    n = 4000
    tab = pa.table(
        {
            "conv_id": pa.array(
                [f"conv-{(i * 7919) % 400:04d}" for i in range(n)], pa.string()
            ),
            "turn_idx": pa.array([0] * n, pa.int32()),
        }
    )
    # dense 0..n-1 turn_idx per conv, in scattered order
    import collections

    seen = collections.Counter()
    turns = []
    for c in tab["conv_id"].to_pylist():
        turns.append(seen[c])
        seen[c] += 1
    tab = tab.set_column(1, "turn_idx", pa.array(turns, pa.int32()))

    # 40 blocks >> fanout 8 -> forces two tree levels
    ds = ray.data.from_arrow([tab.slice(i, 100) for i in range(0, n, 100)])
    assert ds.num_blocks() > B.CONV_MERGE_FANOUT
    convs_t, bases_t, counts_t = B._conv_offsets(ds)

    # driver-path reference: merge every partial in-process
    parts = [B._conv_partial_counts(tab.slice(i, 100)) for i in range(0, n, 100)]
    merged = B._merge_conv_partials(parts)
    counts_ref = merged["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
    assert convs_t.to_pylist() == merged["conv_id"].to_pylist()
    np.testing.assert_array_equal(counts_t, counts_ref)
    np.testing.assert_array_equal(
        bases_t, np.concatenate([[0], np.cumsum(counts_ref)[:-1]])
    )

    # the small-block path (<= fanout refs) still merges on the driver and agrees
    ds_small = ray.data.from_arrow([tab])
    convs_s, bases_s, counts_s = B._conv_offsets(ds_small)
    assert convs_s.to_pylist() == convs_t.to_pylist()
    np.testing.assert_array_equal(counts_s, counts_t)
    np.testing.assert_array_equal(bases_s, bases_t)


def test_conv_offsets_tree_reduce_validates(ray_session):
    """Density violations surface through the tree path too."""
    import ray

    from lucille_ray.index import build as B

    tab = pa.table(
        {
            "conv_id": pa.array([f"c{i % 50:03d}" for i in range(1000)], pa.string()),
            "turn_idx": pa.array([0] * 1000, pa.int32()),  # duplicate turn 0
        }
    )
    ds = ray.data.from_arrow([tab.slice(i, 50) for i in range(0, 1000, 50)])
    assert ds.num_blocks() > B.CONV_MERGE_FANOUT
    with pytest.raises(ValueError, match="dense\\+unique"):
        B._conv_offsets(ds)


def _row_payloads(path: str) -> np.ndarray:
    """Blob payload (docs + tfs + pos bytes of every block) of each row of a
    postings file, computed from its unpacked blocks."""
    blocks = _unpacked(pq.read_table(path))["blocks"].combine_chunks()
    flat = pc.list_flatten(blocks)
    per_block = sum(
        pc.binary_length(pc.struct_field(flat, c)).fill_null(0).to_numpy(
            zero_copy_only=False).astype(np.int64)
        for c in ("docs", "tfs", "pos")
    )
    parents = pc.list_parent_indices(blocks).to_numpy(zero_copy_only=False)
    return np.bincount(parents, weights=per_block, minlength=len(blocks)).astype(np.int64)


#: the postings columns the writer delta-encodes as integers
_DELTA_INT_COLUMNS = ("df",)
#: the packed header and payload columns: the header PLAIN, the payloads
#: DELTA_LENGTH_BYTE_ARRAY
_PACKED_COLUMNS = ("hdr", "docs", "tfs", "pos")


def _assert_writer_encodings(md) -> None:
    """Every column chunk of a postings file's metadata ``md`` in the writer's
    encodings (DELTA_BINARY_PACKED integers, DELTA_BYTE_ARRAY ``term``,
    dictionary ``field``, PLAIN header, DELTA_LENGTH_BYTE_ARRAY payload
    blobs: no 4-byte length before each value) and compressed
    with its column's codec in ``writer.COLUMN_COMPRESSION``, and every row
    group with ``field``/``term`` min/max: without them the reader falls
    back to whole-file reads, correct but a perf cliff."""
    from lucille_ray.index.writer import COLUMN_COMPRESSION

    for g in range(md.num_row_groups):
        rg = md.row_group(g)
        cols = {rg.column(i).path_in_schema: rg.column(i)
                for i in range(rg.num_columns)}
        assert set(cols) == set(COLUMN_COMPRESSION) == {
            "field", "term", *_DELTA_INT_COLUMNS, *_PACKED_COLUMNS}, (sorted(cols), g)
        for name, col in cols.items():
            enc = set(col.encodings)
            assert col.compression == COLUMN_COMPRESSION[name], (name, g)
            if name in _DELTA_INT_COLUMNS:
                assert "DELTA_BINARY_PACKED" in enc and "PLAIN" not in enc, (name, enc)
            elif name == "term":
                assert "DELTA_BYTE_ARRAY" in enc and "PLAIN" not in enc, (name, enc)
            elif name == "field":
                assert "RLE_DICTIONARY" in enc, (name, enc)
            elif name == "hdr":
                assert enc <= {"PLAIN", "RLE"}, (name, enc)
            else:
                assert name in _PACKED_COLUMNS, name
                assert "DELTA_LENGTH_BYTE_ARRAY" in enc and "PLAIN" not in enc, (name, enc)
        for name in ("field", "term"):
            st = cols[name].statistics
            assert st is not None and st.has_min_max, (name, g)


def _assert_payload_cut_groups(path: str) -> list:
    """The postings writer's layout on one file: every row group holds at most
    ROW_GROUP_ROWS rows of one field, a group over ROW_GROUP_BYTES of blob
    payload holds exactly one row, and a group closes early only where the
    next row would push it past the byte budget or starts another field;
    every column chunk is in the writer's encodings
    (:func:`_assert_writer_encodings`). Returns (rows, payload) per group."""
    from lucille_ray.index.writer import ROW_GROUP_BYTES, ROW_GROUP_ROWS

    md = pq.ParquetFile(path).metadata
    _assert_writer_encodings(md)
    rows = [md.row_group(g).num_rows for g in range(md.num_row_groups)]
    payload = _row_payloads(path)
    fields = pq.read_table(path, columns=["field"])["field"].to_pylist()
    starts = np.concatenate(([0], np.cumsum(rows)))
    groups = []
    for g, n in enumerate(rows):
        lo, hi = int(starts[g]), int(starts[g + 1])
        p = int(payload[lo:hi].sum())
        groups.append((n, p))
        assert n <= ROW_GROUP_ROWS, (path, g, n)
        assert len(set(fields[lo:hi])) == 1, (path, g)
        if p > ROW_GROUP_BYTES:
            assert n == 1, (path, g, n, p)
        if g + 1 < len(rows) and n < ROW_GROUP_ROWS:
            assert (p + int(payload[hi]) > ROW_GROUP_BYTES
                    or fields[hi] != fields[hi - 1]), (path, g, n, p)
    return groups


def _assert_segment_layout(seg_dir: str) -> list:
    import glob

    files = sorted(glob.glob(os.path.join(seg_dir, "postings.parquet", "*.parquet")))
    assert files
    return [grp for f in files for grp in _assert_payload_cut_groups(f)]


def test_compacted_postings_keep_small_row_groups(built, tmp_path):
    """Built and compacted postings keep the writer's payload-cut row groups
    (at most ROW_GROUP_ROWS rows, a group over ROW_GROUP_BYTES holds one
    row) — one giant row group would defeat (field, term) min/max pruning and
    force every cold term lookup to decode the segment's entire postings
    payload."""
    from lucille_ray.index import compact_index

    data_dir, _, _ = built
    ds = T.read_transcripts(data_dir)
    index_dir = str(tmp_path / "rgidx")
    build_index(ds, index_dir, num_segments=1, range_width=128, batch_size=300)
    for _ in ("built", "compacted"):
        (seg_dir,) = _seg_dirs(index_dir)
        groups = _assert_segment_layout(seg_dir)
        assert len(groups) > 1 and max(n for n, _ in groups) > 1
        compact_index(index_dir)


def test_hot_rows_sit_alone_in_their_row_groups(ray_session, tmp_path):
    """A term whose row carries more than the 64 KiB payload budget gets a row
    group to itself, in the build and after compaction; the rare rows around
    it still pack into shared groups."""
    import pyarrow as pa2
    import ray.data

    from lucille_ray.index import compact_index
    from lucille_ray.index.writer import ROW_GROUP_BYTES

    n = 4000
    t = pa2.table(
        {
            "conv_id": pa2.array([f"c{i // 8:06d}" for i in range(n)]),
            "turn_idx": pa2.array([i % 8 for i in range(n)], pa2.int32()),
            "role": pa2.array(["user"] * n),
            "text": pa2.array([f"{'hot ' * 40}rare{i}" for i in range(n)]),
            "tool": pa2.array(["none"] * n),
            "ts": pa2.array([1_700_000_000_000_000 + i for i in range(n)],
                            pa2.timestamp("us")),
        }
    )
    data = str(tmp_path / "hot.parquet")
    pq.write_table(t, data)
    index_dir = str(tmp_path / "hot_idx")
    build_index(ray.data.read_parquet(data), index_dir, num_segments=1,
                batch_size=n)
    for _ in ("built", "compacted"):
        (seg_dir,) = _seg_dirs(index_dir)
        groups = _assert_segment_layout(seg_dir)
        hot = [(rows, p) for rows, p in groups if p > ROW_GROUP_BYTES]
        assert hot and all(rows == 1 for rows, _ in hot)
        assert max(rows for rows, _ in groups) > 1
        compact_index(index_dir)
    eng = SearchEngine(index_dir, parallel=False)
    assert eng.match_all("hot").num_rows == n


def test_writer_cuts_groups_by_payload(tmp_path):
    """write_postings_file on encoded rows: rows over the byte budget are one
    group each, small rows pack ROW_GROUP_ROWS to a group, and the rows read
    back unchanged."""
    from lucille_ray.index.codec import encode_runs
    from lucille_ray.index.writer import ROW_GROUP_ROWS, write_postings_file

    rng = np.random.default_rng(3)
    sizes = ([3] * (ROW_GROUP_ROWS + 36) + [60_000] + [5] * (ROW_GROUP_ROWS + 6)
             + [60_000, 60_000] + [2] * 10 + [4] * 20)
    docs = np.concatenate([np.sort(rng.choice(10**7, s, replace=False)) for s in sizes])
    tfs = np.ones(docs.size, dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    n = len(sizes)
    keys = pa.table({
        "field": pa.array(["text"] * (n - 20) + ["tool"] * 20),
        "term": pa.array([f"t{i:04d}" for i in range(n)]),
    })
    rb, offsets = encode_runs(docs, tfs, starts)
    table = _spelled(keys.append_column("df", pa.array(np.asarray(sizes, dtype=np.int64))),
                     rb, offsets)
    path = str(tmp_path / "part.parquet")
    write_postings_file(pack_rows(keys, rb, offsets), path)
    groups = _assert_payload_cut_groups(path)
    assert [rows for rows, _ in groups] == [
        ROW_GROUP_ROWS, 36, 1, ROW_GROUP_ROWS, 6, 1, 1, 10, 20,
    ]
    assert _unpacked(pq.read_table(path)).equals(table)
    md = pq.ParquetFile(path).metadata
    stats = {md.row_group(0).column(i).path_in_schema
             for i in range(md.num_columns)
             if md.row_group(0).column(i).statistics is not None}
    assert stats == {"field", "term"}


def test_postings_footer_holds_no_arrow_schema(tmp_path):
    """A postings file's footer carries no copy of the Arrow schema, and
    every column still reads back as the type it was written with: the
    dictionary-encoded ``field`` as ``string``, ``df`` as ``int64``, the
    header and payloads as ``binary``."""
    from lucille_ray.index.codec import encode_runs
    from lucille_ray.index.writer import write_postings_file

    docs = np.arange(0, 400, 3, dtype=np.int64)
    starts = np.array([0, 50, 100], np.int64)
    keys = pa.table({"field": pa.array(["role", "text", "text"]),
                     "term": pa.array(["a", "b", "c"])})
    rb, offsets = encode_runs(docs, np.ones(docs.size, np.int64), starts)
    packed = pack_rows(keys, rb, offsets)
    table = _spelled(packed.select(["field", "term", "df"]), rb, offsets)
    path = str(tmp_path / "part.parquet")
    write_postings_file(packed, path)
    pf = pq.ParquetFile(path)
    assert pf.metadata.metadata is None or b"ARROW:schema" not in pf.metadata.metadata
    assert pf.schema_arrow.equals(packed.schema)
    assert [f.type for f in pf.schema_arrow] == [
        pa.string(), pa.string(), pa.int64(), *[pa.binary()] * 4]
    assert pf.read().schema.field("field").type == pa.string()
    assert _unpacked(pf.read()).equals(table)


def _stored_rows(index_dir: str) -> pa.Table:
    """Every segment's stored postings rows, sorted by (segment, field, term,
    bucket)."""
    parts = []
    for seg in sorted(os.listdir(os.path.join(index_dir, "segments"))):
        t = _unpacked(pq.read_table(
            os.path.join(index_dir, "segments", seg, "postings.parquet")))
        parts.append(t.append_column("seg", pa.array([seg] * t.num_rows)))
    keys = [(c, "ascending") for c in ("seg", "field", "term", "bucket")]
    return pa.concat_tables(parts).sort_by(keys)


def _rewrite_old_layout(index_dir: str) -> list:
    """Rewrite every postings file of the index in the previous layout: the
    first file without statistics (the reader's whole-file fallback), the
    others in fixed 16-row groups with full statistics. Returns the files."""
    import glob

    files = sorted(glob.glob(os.path.join(
        index_dir, "segments", "*", "postings.parquet", "*.parquet")))
    for i, f in enumerate(files):
        t = pq.read_table(f)
        if i == 0:
            pq.write_table(t, f, write_statistics=False)
        else:
            pq.write_table(t, f, row_group_size=16)
    return files


def test_old_fixed_row_group_layout_still_serves(built, oracle, tmp_path):
    """Postings rewritten in the previous layout (fixed 16-row groups, full
    statistics, one file without statistics at all) answer bit-identically to
    the same rows in the writer's layout, and compaction rewrites them into
    the writer's layout."""
    from lucille_ray.index import compact_index
    from lucille_ray.index.segment import SegmentReader

    _, index_dir, _ = built
    new_dir = str(tmp_path / "new")
    old_dir = str(tmp_path / "old")
    shutil.copytree(index_dir, new_dir)
    shutil.copytree(index_dir, old_dir)
    files = _rewrite_old_layout(old_dir)
    md = pq.ParquetFile(files[-1]).metadata
    assert md.num_rows > 16 and md.num_row_groups == -(-md.num_rows // 16)
    assert md.row_group(0).column(3).statistics is not None  # df: full stats
    seg0 = os.path.join(old_dir, "segments", "seg-00000")
    assert SegmentReader(seg0)._postings_files()[0][1] is None
    assert _stored_rows(old_dir).equals(_stored_rows(new_dir))

    assert _answers(old_dir, oracle) == _answers(new_dir, oracle)
    for d in (old_dir, new_dir):
        compact_index(d)
    for seg_dir in _seg_dirs(old_dir):
        _assert_segment_layout(seg_dir)
    assert _stored_rows(old_dir).equals(_stored_rows(new_dir))
    assert _answers(old_dir, oracle) == _answers(new_dir, oracle)


def _postings_bytes(index_dir: str) -> dict:
    """{path relative to index_dir: bytes} of every postings file."""
    import glob

    return {os.path.relpath(f, index_dir): open(f, "rb").read()
            for f in glob.glob(os.path.join(
                index_dir, "segments", "*", "postings.parquet", "*.parquet"))}


@pytest.fixture(scope="module")
def pieces(built, tmp_path_factory):
    """A 2-segment index of raw tokenize-encode pieces (no in-build merge):
    several postings files per segment, whose term ranges overlap."""
    import lucille_ray.index.build as build_mod

    index_dir = str(tmp_path_factory.mktemp("pieces") / "index")
    with pytest.MonkeyPatch.context() as m:
        m.setattr(build_mod, "PIECE_MERGE_ROWS", 0)
        build_index(T.read_transcripts(built[0]), index_dir, num_segments=2,
                    range_width=256, batch_size=100)
    return index_dir


def _range_bytes(seg_dirs: list, ranges: int) -> int:
    """The ``compact.RANGE_BYTES`` at which a compaction of the segments
    ``seg_dirs`` into one aims at ``ranges`` term ranges: their postings
    bytes (from the footers) over ``ranges``."""
    from lucille_ray.index.segment import SegmentReader

    nbytes = sum(int(b.sum()) for d in seg_dirs
                 for _, _, b, _ in SegmentReader(d)._postings_files())
    return -(-nbytes // ranges)


@pytest.mark.parametrize("ranges", [None, 4])
def test_compaction_is_deterministic(pieces, tmp_path, monkeypatch, ranges):
    """Two compactions of copies of one index, which merge its two small
    segments into one, write the same postings files, byte for byte, in one
    term range and in several (``RANGE_BYTES`` at the input's bytes over
    ``ranges``): the ranges come from the inputs' footers, not from how a
    run schedules its tasks."""
    import lucille_ray.index.compact as compact_mod
    from lucille_ray.index import compact_index

    copies = [str(tmp_path / name) for name in ("a", "b")]
    if ranges:
        monkeypatch.setattr(compact_mod, "RANGE_BYTES",
                            _range_bytes(_seg_dirs(pieces), ranges))
    for d in copies:
        shutil.copytree(pieces, d)
        (e,) = compact_index(d)
        assert len(e["source"]) == 2
        assert len(e["ranges"]) > 1 if ranges else len(e["ranges"]) == 1
    a, b = map(_postings_bytes, copies)
    assert a and sorted(a) == sorted(b)
    assert all(a[f] == b[f] for f in a)


@pytest.mark.parametrize("ranges", [4, 64])
def test_compaction_reads_at_most_twice_the_input(pieces, tmp_path, monkeypatch,
                                                 ranges):
    """Over raw pieces (several (field, term)-sorted runs per file, one per
    tokenize batch and field, each row group spanning most of its field, so
    a cut inside a field is straddled by a group of nearly every run), the
    ranges of the merge of both segments together read at most twice their
    input rows, keep each row once, and still cut it in more than one range
    (``RANGE_BYTES`` at the input's bytes over ``ranges``). Without the
    planner's read bound, the 64 asked-for ranges read more than twice."""
    import lucille_ray.index.compact as compact_mod
    from lucille_ray.index import compact_index
    from lucille_ray.index.segment import SegmentReader

    for seg in _seg_dirs(pieces):
        files = SegmentReader(seg)._postings_files()
        runs = 0
        for pf, *_ in files:
            t = pf.read(columns=["field", "term"])
            keys = list(zip(t["field"].to_pylist(), t["term"].to_pylist()))
            runs += 1 + sum(b < a for a, b in zip(keys, keys[1:]))
        assert runs >= 2 * len(files) >= 4
    d = str(tmp_path / "index")
    shutil.copytree(pieces, d)
    monkeypatch.setattr(compact_mod, "RANGE_BYTES", _range_bytes(_seg_dirs(d), ranges))
    for e in compact_index(d):
        assert len(e["ranges"]) > 1
        assert sum(r["rows_kept"] for r in e["ranges"]) == e["posting_rows_in"]
        assert sum(r["rows_read"] for r in e["ranges"]) <= 2 * e["posting_rows_in"]


def _live_answers_match(index_dir: str, table: pa.Table, deleted) -> None:
    """Every QUERY_SET top-10 of the purged index equals the brute-force
    oracle's over the live corpus, by (conv_id, turn_idx) and score."""
    src = _source_order(table)
    dead = set(np.asarray(deleted).tolist())
    live = BruteForceOracle(src.filter(pa.array([d not in dead for d in range(src.num_rows)])))
    engine = SearchEngine(index_dir, parallel=False, result_cache=False)
    for qs in QUERY_SET:
        got = engine.search(qs, k=10)
        exp = live.search(qs, k=10)
        assert list(zip(got["conv_id"].to_pylist(), got["turn_idx"].to_pylist())) == [
            (live.conv_id[d], live.turn_idx[d]) for d, _ in exp], qs
        for gs, (_, es) in zip(got["score"].to_pylist(), exp):
            assert abs(gs - es) < 1e-9, qs


def _as_two_runs(seg_dir: str) -> None:
    """Rewrite a segment's postings as two files, each one (field, term,
    bucket)-sorted run, as a build that merged two windows writes them: the
    rows whose first doc lies in the first half of the segment's docs, and
    the rest."""
    import glob

    from lucille_ray.index.segment import SegmentReader

    reader = SegmentReader(seg_dir)
    files = sorted(glob.glob(os.path.join(seg_dir, "postings.parquet", "*.parquet")))
    t = pa.concat_tables([pq.read_table(f) for f in files])
    for f in files:
        os.remove(f)
    _, rb, offsets = unpack_rows(t)
    first = rb.firsts[offsets[:-1]] < reader.doc_base + reader.doc_count // 2
    for name, part in (("a", t.filter(first)), ("b", t.filter(~first))):
        pq.write_table(part.take(row_order(part, ["field", "term"])),
                       os.path.join(seg_dir, "postings.parquet", f"part-{name}.parquet"))


def test_compaction_range_merge_matches_one_range(built, pieces, tombstoned, tmp_path,
                                                 monkeypatch):
    """A purge compaction cut into several term ranges per segment stores the
    rows of a one-range compaction, also over input files in the previous
    layout: one without statistics (it may overlap every range) and fixed
    16-row groups, some spanning two fields. Each segment's rows are first
    rewritten as two sorted runs, as a build that merges its windows writes
    them (over raw pieces' many runs per file, four ranges would read the
    input more than twice: test_compaction_reads_at_most_twice_the_input),
    and ``RANGE_BYTES`` is a fifth of the fewest postings bytes a segment
    holds, so the range count follows from the content. Each
    range file is in compaction's (field, term, bucket) order, the files'
    key ranges ascend without overlap, every row is kept by exactly one
    range, and the answers equal the oracle's. Each segment is compacted on
    its own (SLICE_DOCS=1)."""
    import glob

    import lucille_ray.index.compact as compact_mod
    from lucille_ray.index import compact_index
    from lucille_ray.index.segment import SegmentReader

    monkeypatch.setattr(compact_mod, "SLICE_DOCS", 1)
    tomb, deleted = tombstoned(pieces)
    many, one = str(tmp_path / "many"), str(tmp_path / "one")
    keys = ["field", "term"]  # then bucket (codec.row_order)
    for d in (many, one):
        shutil.copytree(tomb, d)
        for seg in _seg_dirs(d):
            _as_two_runs(seg)
        _rewrite_old_layout(d)
    readers = [SegmentReader(s) for s in _seg_dirs(many)]
    assert len(readers) == 2 and readers[0]._postings_files()[0][1] is None
    assert all(len(r._postings_files()) == 2 for r in readers)
    spanning = [g for r in readers for _, stats, _, _ in r._postings_files()
                if stats is not None for g in np.flatnonzero(stats[0] != stats[1])]
    assert spanning, "no row group spans two fields"
    rows = [sum(pf.metadata.num_rows for pf, *_ in r._postings_files()) for r in readers]

    with monkeypatch.context() as m:
        m.setattr(compact_mod, "RANGE_BYTES",
                  min(_range_bytes([r.seg_dir], 5) for r in readers))
        done = compact_index(many)
    assert [d["posting_rows_in"] for d in done] == rows
    for d in done:
        assert len(d["ranges"]) >= 4
        assert sum(r["rows_kept"] for r in d["ranges"]) == d["posting_rows_in"]
        assert sum(r["rows_read"] for r in d["ranges"]) >= d["posting_rows_in"]
    assert all(len(d["ranges"]) == 1 for d in compact_index(one))

    for seg_many, seg_one in zip(_seg_dirs(many), _seg_dirs(one)):
        files = [pq.read_table(os.path.join(seg_many, "postings.parquet", f))
                 for f in sorted(os.listdir(os.path.join(seg_many, "postings.parquet")))]
        assert len(files) >= 4
        for t in files:
            assert t.equals(t.take(row_order(t, keys)))
        for a, b in zip(files, files[1:]):
            assert (a["field"][-1].as_py(), a["term"][-1].as_py()) < (
                b["field"][0].as_py(), b["term"][0].as_py())
        assert pa.concat_tables(files).equals(
            pq.read_table(os.path.join(seg_one, "postings.parquet")))
    _live_answers_match(many, built[2], deleted)


def test_compaction_rewrites_64_row_groups(built, oracle, tmp_path, monkeypatch):
    """Postings written at the previous 64-row cap answer every QUERY_SET
    query like the same rows at ROW_GROUP_ROWS, and compaction rewrites them
    into the current cut: the same row groups and stored rows as compacting
    the index written at ROW_GROUP_ROWS (a build's rows can split their
    blocks at piece boundaries that compaction merges, so both sides are
    compacted)."""
    import glob

    from lucille_ray.index import compact_index, writer

    _, index_dir, _ = built
    new_dir = str(tmp_path / "new")
    old_dir = str(tmp_path / "old")
    shutil.copytree(index_dir, new_dir)
    shutil.copytree(index_dir, old_dir)
    with monkeypatch.context() as m:
        m.setattr(writer, "ROW_GROUP_ROWS", 64)
        for f in glob.glob(os.path.join(
                old_dir, "segments", "*", "postings.parquet", "*.parquet")):
            writer.write_postings_file(pq.read_table(f), f)
    old_groups, new_groups = _group_rows(old_dir), _group_rows(new_dir)
    assert max(old_groups) == 64 < max(new_groups) <= writer.ROW_GROUP_ROWS
    assert len(old_groups) > len(new_groups)
    assert _stored_rows(old_dir).equals(_stored_rows(new_dir))
    assert _answers(old_dir, oracle) == _answers(new_dir, oracle)

    for d in (old_dir, new_dir):
        compact_index(d)
    for seg_dir in _seg_dirs(old_dir):
        _assert_segment_layout(seg_dir)
    assert _group_rows(old_dir) == _group_rows(new_dir)
    assert _stored_rows(old_dir).equals(_stored_rows(new_dir))


def _group_rows(index_dir: str) -> list:
    """Rows per postings row group of the index, in segment and file order."""
    import glob

    out = []
    for seg_dir in _seg_dirs(index_dir):
        for f in sorted(glob.glob(os.path.join(seg_dir, "postings.parquet", "*.parquet"))):
            md = pq.ParquetFile(f).metadata
            out.extend(md.row_group(g).num_rows for g in range(md.num_row_groups))
    return out


def test_postings_read_counts_cold_lookups(built):
    """SegmentReader.postings_read counts what a cold lookup reads: with the
    term dictionary loaded, one rare term's lookup reads exactly the row
    groups whose (field, term) statistics overlap it (at most one per file)
    and their compressed bytes; the repeat lookup is a cache hit and reads
    nothing. A fresh reader's first lookup loads the dictionary itself and
    reads the same."""
    import glob

    from lucille_ray.index.segment import SegmentReader

    seg_dir = _seg_dirs(built[1])[0]
    t = pq.read_table(os.path.join(seg_dir, "postings.parquet"),
                      columns=["field", "term", "df"])
    text = t.filter(pc.equal(t["field"], "text")).sort_by("df")
    term = text["term"][0].as_py()
    files = sorted(glob.glob(os.path.join(seg_dir, "postings.parquet", "*.parquet")))
    groups = nbytes = 0
    for f in files:
        md = pq.ParquetFile(f).metadata
        for g in range(md.num_row_groups):
            rg = md.row_group(g)
            st = {rg.column(i).path_in_schema: rg.column(i).statistics
                  for i in range(rg.num_columns)}
            fs, ts = st["field"], st["term"]
            if fs.min == fs.max == "text" and ts.min <= term <= ts.max:
                groups += 1
                nbytes += sum(rg.column(i).total_compressed_size
                              for i in range(rg.num_columns))
    assert 1 <= groups <= len(files)

    reader = SegmentReader(seg_dir)
    assert reader.postings_read == {"calls": 0, "row_groups": 0,
                                    "compressed_bytes": 0, "absent_terms": 0}
    reader.term_dict("text")
    loaded = dict(reader.postings_read)
    assert loaded["calls"] == 1 and loaded["absent_terms"] == 0
    assert len(reader.raw_blocks_many("text", [term])[term]) > 0
    want = {"calls": 2, "row_groups": loaded["row_groups"] + groups,
            "compressed_bytes": loaded["compressed_bytes"] + nbytes,
            "absent_terms": 0}
    assert reader.postings_read == want
    reader.raw_blocks_many("text", [term])
    assert reader.postings_read == want
    fresh = SegmentReader(seg_dir)
    assert len(fresh.raw_blocks_many("text", [term])[term]) > 0
    assert fresh.postings_read == want


def test_dictionary_skips_absent_terms(ray_session, tmp_path, monkeypatch):
    """A term a segment's term dictionary lacks is answered empty with no
    Parquet read, counted in ``absent_terms``, even where the (field, term)
    statistics select a row group for it, whether or not the dictionary was
    loaded before the lookup; the segment that holds the term still reads it.
    An in-process engine answers every QUERY_SET query exactly as it does
    when the statistics alone pick the row groups, and its cold lookups read
    fewer of them."""
    from lucille_ray.index.segment import SegmentReader

    data_dir = str(tmp_path / "data")
    index_dir = str(tmp_path / "index")
    T.generate(N_TURNS, data_dir, num_files=3)
    table = pq.read_table(data_dir).sort_by([("conv_id", "ascending"),
                                             ("turn_idx", "ascending")])
    # the first conversations' turns gain words no other turn has
    marks = [f" qzonly{i % 7}" if i < 60 else "" for i in range(table.num_rows)]
    text = pc.binary_join_element_wise(table["text"], pa.array(marks), "")
    table = table.set_column(table.schema.get_field_index("text"), "text", text)
    shutil.rmtree(data_dir)
    os.makedirs(data_dir)
    pq.write_table(table, os.path.join(data_dir, "part-0.parquet"))
    build_index(T.read_transcripts(data_dir), index_dir, num_segments=2)
    oracle = BruteForceOracle(table)

    seg_dirs = _seg_dirs(index_dir)
    assert len(seg_dirs) == 2
    dicts = [set(SegmentReader(d).term_dict("text")[0].tolist()) for d in seg_dirs]
    only_first = sorted(dicts[0] - dicts[1])
    assert only_first

    orig = SegmentReader.raw_blocks_many

    def statistics_only(self, field, terms):
        """``raw_blocks_many`` as if the dictionary held every term: the
        row groups are picked by the (field, term) statistics alone."""
        self.dfs = lambda f, ts: dict.fromkeys(ts, 1)
        try:
            return orig(self, field, terms)
        finally:
            del self.dfs

    def stats_select(term):
        """Row groups a statistics-only lookup of ``term`` reads on the
        second segment."""
        r = SegmentReader(seg_dirs[1])
        assert not len(statistics_only(r, "text", [term])[term])
        return r.postings_read["row_groups"]

    term = next((t for t in only_first if stats_select(t)), None)
    assert term is not None, "no absent term inside a row group's range"

    holder, lacker = (SegmentReader(d) for d in seg_dirs)
    loaded = []
    for r in (holder, lacker):
        r.term_dict("text")
        loaded.append(dict(r.postings_read))
    assert not len(lacker.raw_blocks_many("text", [term])[term])
    assert lacker.postings_read == {**loaded[1], "absent_terms": 1}
    assert len(holder.raw_blocks_many("text", [term])[term]) > 0
    assert holder.postings_read["row_groups"] > loaded[0]["row_groups"]
    assert holder.postings_read["absent_terms"] == 0
    fresh = SegmentReader(seg_dirs[1])
    assert not len(fresh.raw_blocks_many("text", [term])[term])
    assert fresh.postings_read == lacker.postings_read

    def run():
        eng = SearchEngine(index_dir, parallel=False, result_cache=False)
        out = []
        for qs in [*QUERY_SET, *(f"qzonly{i} OR data" for i in range(7))]:
            _compare(eng, oracle, qs)
            got = eng.search(qs, k=10, with_meta=False)
            out.append((got["doc_id"].to_pylist(), got["score"].to_pylist()))
        reads = [st["postings_read"] for fan in eng.cache_stats()
                 for st in fan.values()]
        return out, {k: sum(r[k] for r in reads) for k in reads[0]}

    skip, skip_read = run()
    monkeypatch.setattr(SegmentReader, "raw_blocks_many", statistics_only)
    plain, plain_read = run()
    assert skip == plain
    assert plain_read["absent_terms"] == 0 < skip_read["absent_terms"]
    assert skip_read["row_groups"] < plain_read["row_groups"]


def _answers(index_dir: str, oracle) -> list:
    """Every QUERY_SET answer of an in-process engine (checked against the
    oracle): search and suggest top-10 ids and scores, then one search_many
    batch."""
    eng = SearchEngine(index_dir, parallel=False, result_cache=False)
    out = []
    for qs in QUERY_SET:
        _compare(eng, oracle, qs)
        for fn in (eng.search, eng.suggest):
            got = fn(qs, k=10, with_meta=False)
            out.append((got["doc_id"].to_pylist(), got["score"].to_pylist()))
    out.extend((d.tolist(), s.tolist()) for d, s in eng.search_many(QUERY_SET, k=10))
    return out


def _rewrite_plain_encoded(seg_dir: str) -> None:
    """Rewrite a segment's postings files row group for row group with the
    writer settings that predate the delta encodings: snappy, dictionary on
    ``field``, statistics on ``field`` and ``term``, PLAIN elsewhere."""
    import glob

    for f in sorted(glob.glob(os.path.join(seg_dir, "postings.parquet", "*.parquet"))):
        pf = pq.ParquetFile(f)
        groups = [pf.read_row_group(g) for g in range(pf.num_row_groups)]
        with pq.ParquetWriter(f, pf.schema_arrow, compression="snappy",
                              use_dictionary=["field"],
                              write_statistics=["field", "term"]) as w:
            for t in groups:
                w.write_table(t, row_group_size=t.num_rows)


def _codecs(seg_dir: str) -> set:
    """The compression codecs of every postings column chunk of a segment."""
    import glob

    out = set()
    for f in glob.glob(os.path.join(seg_dir, "postings.parquet", "*.parquet")):
        md = pq.ParquetFile(f).metadata
        out.update(md.row_group(g).column(i).compression
                   for g in range(md.num_row_groups) for i in range(md.num_columns))
    return out


def test_plain_encoded_segment_serves_and_compacts_to_delta(built, oracle, tmp_path):
    """An index whose first segment is still snappy-compressed and
    PLAIN-encoded throughout (written before the postings writer
    delta-encoded its metadata and ZSTD-compressed its payload and ``term``)
    answers bit-identically to the index in the writer's layout, and
    compaction rewrites that segment in the writer's encodings and codecs
    with no branch on the old format. The same rows take fewer bytes in the
    integer and ``term`` columns delta-encoded, and in the payload columns
    under ZSTD."""
    from lucille_ray.index import build_report, compact_index

    _, index_dir, _ = built
    new_dir = str(tmp_path / "new")
    mixed_dir = str(tmp_path / "mixed")
    shutil.copytree(index_dir, new_dir)
    shutil.copytree(index_dir, mixed_dir)
    plain_seg = _seg_dirs(mixed_dir)[0]
    _rewrite_plain_encoded(plain_seg)
    for f in os.listdir(os.path.join(plain_seg, "postings.parquet")):
        md = pq.ParquetFile(os.path.join(plain_seg, "postings.parquet", f)).metadata
        with pytest.raises(AssertionError):
            _assert_writer_encodings(md)
    assert _codecs(plain_seg) == {"SNAPPY"}
    assert _codecs(_seg_dirs(new_dir)[0]) == {"SNAPPY", "ZSTD"}
    assert _stored_rows(mixed_dir).equals(_stored_rows(new_dir))

    def col_bytes(d, names):
        cols = build_report(d)["segments"][0]["postings_column_bytes"]
        return sum(cols[c] for c in names)

    meta = (*_DELTA_INT_COLUMNS, "term")
    payload = ("docs", "tfs", "pos")
    assert col_bytes(new_dir, meta) < col_bytes(mixed_dir, meta)
    assert col_bytes(new_dir, payload) < col_bytes(mixed_dir, payload)
    assert _answers(mixed_dir, oracle) == _answers(new_dir, oracle)
    for d in (mixed_dir, new_dir):
        compact_index(d)
    for seg_dir in _seg_dirs(mixed_dir):
        _assert_segment_layout(seg_dir)
        assert _codecs(seg_dir) == {"SNAPPY", "ZSTD"}
    assert _stored_rows(mixed_dir).equals(_stored_rows(new_dir))
    assert _answers(mixed_dir, oracle) == _answers(new_dir, oracle)


def test_term_dict_matches_directory_scan(built, tmp_path):
    """term_dict (cached handles, field-stat pruning) is identical to the
    directory scan it replaced, on the built piece layout, the compacted
    layout and a file without statistics."""
    import glob

    from lucille_ray.index import compact_index
    from lucille_ray.index.segment import SegmentReader

    _, index_dir, _ = built
    idx = str(tmp_path / "tdidx")
    shutil.copytree(index_dir, idx)

    def check():
        for seg_dir in _seg_dirs(idx):
            seg = os.path.basename(seg_dir)
            r = SegmentReader(seg_dir)
            for field in ("text", "role", "tool", "no_such_field"):
                t = pq.read_table(
                    os.path.join(seg_dir, "postings.parquet"),
                    columns=["field", "term", "df"],
                    filters=[("field", "==", field)],
                )
                g = t.group_by("term").aggregate([("df", "sum")])
                g = g.take(pc.sort_indices(g["term"]))
                terms, dfs = r.term_dict(field)
                assert terms.dtype == object and dfs.dtype == np.int64
                assert terms.tolist() == g["term"].to_pylist(), (seg, field)
                assert dfs.tolist() == g["df_sum"].to_pylist(), (seg, field)

    check()
    f = sorted(glob.glob(os.path.join(
        idx, "segments", "seg-00001", "postings.parquet", "*.parquet")))[0]
    pq.write_table(pq.read_table(f), f, write_statistics=False)
    check()
    compact_index(idx)
    check()


def test_norms_sidecar_narrow_dtype_round_trip(built):
    """The build writes each segment's norms files in the narrowest unsigned
    dtype holding the segment's max dl, and they load back read-only at that
    width, one entry per doc, summing to the segment's ``total_dl``; a
    field of one length has no file, and its norms load as that ``norm``
    broadcast over the docs."""
    from lucille_ray.index.build import _narrowest_uint, norms_file
    from lucille_ray.index.segment import SegmentReader

    for mx, dt in [(0, np.uint8), (255, np.uint8), (256, np.uint16),
                   (65535, np.uint16), (65536, np.uint32),
                   (2**32 - 1, np.uint32), (2**32, np.int64)]:
        a = _narrowest_uint(np.array([0, mx], dtype=np.int64))
        assert a.dtype == dt and a.tolist() == [0, mx]
    assert _narrowest_uint(np.empty(0, dtype=np.int64)).dtype == np.uint8

    _, index_dir, _ = built
    for seg_dir in _seg_dirs(index_dir):
        r = SegmentReader(seg_dir)
        for f in r.manifest["fields"]:
            got = r.norms(f)
            assert not got.flags.writeable
            assert got.size == r.doc_count and int(got.sum()) == r.total_dl(f)
            path = os.path.join(seg_dir, norms_file(f))
            if "norm" in r.stats["fields"][f]:
                assert not os.path.exists(path) and got.strides == (0,), f
                assert (got == r.stats["fields"][f]["norm"]).all()
                continue
            stored = np.load(path)
            assert got.dtype == stored.dtype == _narrowest_uint(stored).dtype
            assert np.array_equal(got, stored) and stored.dtype.itemsize < 8


def test_build_report_postings_layout(built, tmp_path, monkeypatch):
    """build_report carries each segment's postings row groups, footer bytes,
    inline chunk metadata bytes, compressed bytes per leaf column and
    one-posting rows plus their totals, and each field's norms form; with
    the magic bytes the byte counts sum to the postings files' sizes, and
    they follow compaction (of each segment on its own, SLICE_DOCS=1: the
    fixture's two segments each hold one-posting rows, their merge none)."""
    import glob

    import lucille_ray.index.compact as compact_mod
    from lucille_ray.index import build_report, compact_index

    monkeypatch.setattr(compact_mod, "SLICE_DOCS", 1)
    from lucille_ray.index.report import BYTE_COMPONENTS, PARQUET_MAGIC_BYTES

    _, index_dir, _ = built
    idx = str(tmp_path / "ridx")
    shutil.copytree(index_dir, idx)

    def check():
        rep = build_report(idx)
        for seg in rep["segments"]:
            files = glob.glob(os.path.join(
                idx, "segments", seg["segment"], "postings.parquet", "*.parquet"))
            mds = [pq.ParquetFile(f).metadata for f in files]
            assert seg["postings_row_groups"] == sum(m.num_row_groups for m in mds)
            assert seg["postings_footer_bytes"] == sum(m.serialized_size for m in mds)
            assert seg["postings_footer_bytes"] > 0
            # compressed bytes per leaf column: every leaf, summed over the
            # column chunks; with the footers they fit inside the files
            cols = seg["postings_column_bytes"]
            assert set(cols) == {"field", "term", *_DELTA_INT_COLUMNS, *_PACKED_COLUMNS}
            assert sum(cols.values()) == sum(
                m.row_group(g).column(i).total_compressed_size for m in mds
                for g in range(m.num_row_groups) for i in range(m.num_columns))
            assert all(n > 0 for n in cols.values())
            # the files split into chunks, footers, the chunks' inline
            # metadata copies and the magic bytes
            assert seg["postings_inline_meta_bytes"] > 0
            # one-posting rows (no header) counted from the df column; each
            # field's norms as "constant" or its file's bytes
            singles = sum(pc.sum(pc.equal(pq.read_table(f, columns=["df"])["df"], 1))
                          .as_py() or 0 for f in files)
            assert seg["postings_singleton_rows"] == singles > 0
            seg_dir = os.path.join(idx, "segments", seg["segment"])
            assert seg["norms"] == {
                f: "constant" if f != "text" else
                os.path.getsize(os.path.join(seg_dir, "norms_text.npy"))
                for f in ("text", "role", "tool")}
            assert seg["norms_bytes"] == seg["norms"]["text"]
            assert (sum(cols.values()) + seg["postings_footer_bytes"]
                    + seg["postings_inline_meta_bytes"]
                    + PARQUET_MAGIC_BYTES * len(files)
                    == seg["postings_bytes"]
                    == sum(os.path.getsize(f) for f in files))
        tot = rep["totals"]
        assert tot["postings_row_groups"] == sum(
            s["postings_row_groups"] for s in rep["segments"])
        assert tot["postings_footer_bytes"] == sum(
            s["postings_footer_bytes"] for s in rep["segments"])
        assert tot["postings_column_bytes"] == {
            c: sum(s["postings_column_bytes"][c] for s in rep["segments"])
            for c in tot["postings_column_bytes"]}
        assert tot["postings_inline_meta_bytes"] == sum(
            s["postings_inline_meta_bytes"] for s in rep["segments"])
        assert tot["postings_singleton_rows"] == sum(
            s["postings_singleton_rows"] for s in rep["segments"])
        assert (sum(tot["postings_column_bytes"].values())
                + tot["postings_footer_bytes"] + tot["postings_inline_meta_bytes"]
                <= tot["postings_bytes"])
        # bytes by component: they sum to index_bytes, which is every file
        comps = ("postings_bytes", "norms_bytes", "docmeta_bytes", "other_bytes")
        assert comps == BYTE_COMPONENTS
        on_disk = sum(
            os.path.getsize(os.path.join(root, f))
            for root, _, files in os.walk(idx) for f in files
        )
        assert sum(tot[c] for c in comps) == tot["index_bytes"] == on_disk
        for c in comps[:3]:
            assert tot[c] == sum(s[c] for s in rep["segments"]), c
        for seg in rep["segments"]:
            assert seg["postings_bytes"] > 0 and seg["docmeta_bytes"] > 0
            assert seg["bytes"] == sum(seg[c] for c in comps)
        return tot

    check()
    compact_index(idx)
    assert check()["postings_row_groups"] >= 2


def _posting_rows(docs, tfs, pos):
    """A postings triple as sorted (doc, tf, positions) rows."""
    offs = np.concatenate([[0], np.cumsum(tfs)])
    return sorted((int(d), int(t), tuple(pos[offs[i]:offs[i + 1]].tolist()))
                  for i, (d, t) in enumerate(zip(docs, tfs)))


def test_candidate_postings_decode_overlapping_blocks_uncached(built, tombstoned):
    """On a tombstoned segment, ``postings_many(f, [t], candidates=c)`` is
    the live postings of exactly the blocks whose doc range holds a
    candidate, and adds no entry to any pool but ``raw``. Once ``post`` holds
    the term, the same call answers with the whole list."""
    from lucille_ray.index.segment import ReaderCache, load_segments

    tomb, deleted = tombstoned(built[1])
    r = max(load_segments(tomb), key=lambda r: r.doc_count)
    terms, dfs = r.term_dict("text")
    term = str(terms[int(np.argmax(dfs))])
    r.cache = ReaderCache()
    rb = r.raw_blocks_many("text", [term])[term]
    assert len(rb) >= 4
    every = rb.decode()[0]
    dead = every[np.isin(every, deleted)]
    assert dead.size, "no deleted posting of the term"
    # a deleted doc, and a doc inside the last block
    cand = np.unique([dead[0], rb.lasts[-1]])
    blocks = [b for b in range(len(rb))
              if ((rb.firsts[b] <= cand) & (cand <= rb.lasts[b])).any()]
    assert 0 < len(blocks) < len(rb)
    gone = set(deleted.tolist())
    rows = [row for b in blocks
            for row in _posting_rows(*rb.decode_blocks(np.array([b]), True))
            if row[0] not in gone]
    assert len(rows) < sum(int(rb.ns[b]) for b in blocks), "no tombstone dropped"

    before = r.cache.stats()
    got = r.postings_many("text", [term], True, candidates=cand)[term]
    assert _posting_rows(*got) == sorted(rows)
    docs_only = r.postings_many("text", [term], candidates=cand)[term]
    assert docs_only[0].tolist() == [row[0] for row in sorted(rows)]
    after = r.cache.stats()
    for pool, c in after.items():
        if pool != "raw":
            assert c["entries"] == before.get(pool, {}).get("entries", 0), pool

    whole = r.postings("text", term)
    assert whole[0].size > docs_only[0].size
    again = r.postings_many("text", [term], candidates=cand)[term]
    assert all(a is b for a, b in zip(again, whole))


def test_pruned_postings_read_matches_scan(built, tmp_path, monkeypatch):
    """_read_postings_rows (cached handles + row-group stat pruning) selects
    exactly the rows the predicate-pushdown directory scan returns, on both
    the multi-piece built layout and the compacted layout, for present /
    absent / mixed term sets."""
    import lucille_ray.index.build as build_mod
    from lucille_ray.index import compact_index
    from lucille_ray.index.segment import SegmentReader

    data_dir, index_dir, _ = built
    ds = T.read_transcripts(data_dir)
    cidx = str(tmp_path / "pruneidx")
    with monkeypatch.context() as m:
        m.setattr(build_mod, "PIECE_MERGE_ROWS", 0)
        build_index(ds, cidx, num_segments=1, range_width=128, batch_size=300)

    cases = [
        ("text", ["data", "query", "join"]),
        ("text", ["zz_definitely_absent"]),
        ("text", ["data", "zz_absent", "deploy"]),
        ("role", ["assistant"]),
        ("tool", ["bash", "python"]),
    ]

    def check(seg_dir):
        r = SegmentReader(seg_dir)
        for field, terms in cases:
            read = r._read_postings_rows(field, terms)
            old = pq.read_table(
                os.path.join(seg_dir, "postings.parquet"),
                columns=["term", *BLOCK_COLUMNS],
                filters=[("field", "==", field), ("term", "in", terms)],
            )
            if read is None:
                assert old.num_rows == 0, (field, terms)
                continue
            rows, index, rank = read
            new = rows.take(pa.array(index)).select(["term", *BLOCK_COLUMNS])
            assert [sorted(set(terms))[i] for i in rank] == new["term"].to_pylist()
            assert new.take(row_order(new, ["term"])).equals(
                old.take(row_order(old, ["term"]))), (field, terms)

    for idx in (index_dir, cidx):  # built multi-piece layouts
        check(os.path.join(idx, "segments", "seg-00000"))
    compact_index(cidx)
    check(_seg_dirs(cidx)[0])


def _plant_old_form(index_dir, form, src):
    """Turn a copy of the fixture index into one of the layouts older
    writers left: a version 3 commit, a commit naming the version 3
    tombstone ``deleted.npy``, segments without their own doc map (beside a
    root map or ``docmapped/seg=K`` partitions), a doc map as a directory of
    part files, a one-file ``postings.parquet``, a version 4 index (its
    postings rows hold a list-of-struct ``blocks`` column, not packed), a
    version 5 index (no norms files: its readers derived them from the
    postings), a segment without the norms file of one of its fields, a
    version 6 index (its postings rows also store ``bucket`` and
    ``total_tf``), or a version 7 index (a norms file for every field)."""
    from lucille_ray.index import commit
    from lucille_ray.index.build import norms_file

    c = commit.read(index_dir)
    meta_path = os.path.join(index_dir, commit.INDEX_META_FILE)
    with open(meta_path) as f:
        meta = json.load(f)
    seg_dirs = commit.segment_dirs(index_dir, c)
    if form == "v3_commit":
        segments = meta.pop("segments")
        for key in ("generation", "next_segment"):
            del meta[key]
        meta.update(version=3, num_segments=len(segments),
                    seg_bounds={str(i): s["docs"] for i, s in enumerate(segments)})
    elif form == "v3_tombstone":
        np.save(os.path.join(seg_dirs[0], "deleted.npy"), np.array([0, 1]))
        meta["segments"][0]["deleted"] = "deleted.npy"
    elif form == "v4_index":
        meta["version"] = 4
        for d in seg_dirs:
            for f in os.listdir(os.path.join(d, "postings.parquet")):
                path = os.path.join(d, "postings.parquet", f)
                pq.write_table(_unpacked(pq.read_table(path)), path)
    elif form == "v5_index":
        meta["version"] = 5
        for d in seg_dirs:
            os.remove(os.path.join(d, norms_file("text")))
    elif form == "norms_missing":  # the one field whose docs differ in length
        os.remove(os.path.join(seg_dirs[0], norms_file("text")))
    elif form == "v7_index":
        meta["version"] = 7
        for d in seg_dirs:
            with open(os.path.join(d, "stats.json")) as f:
                stats = json.load(f)
            for field, st in stats["fields"].items():
                if "norm" in st:
                    np.save(os.path.join(d, norms_file(field)),
                            np.full(stats["doc_count"], st.pop("norm"), np.uint8))
            with open(os.path.join(d, "stats.json"), "w") as f:
                json.dump(stats, f)
    elif form == "v6_index":
        meta["version"] = 6
        for d in seg_dirs:
            for f in os.listdir(os.path.join(d, "postings.parquet")):
                path = os.path.join(d, "postings.parquet", f)
                t = pq.read_table(path)
                bucket = _unpacked(t)["bucket"]
                pq.write_table(t.add_column(2, "bucket", bucket).add_column(
                    4, "total_tf", pa.array(np.zeros(t.num_rows, np.int64))), path)
    for k, (seg, d) in enumerate(zip(c["segments"], seg_dirs)):
        convmap = os.path.join(d, "convmap.parquet")
        if form in ("fused_root", "docmapped"):
            os.remove(convmap)
            if form == "docmapped":
                part = os.path.join(index_dir, "docmapped", f"seg={k}")
                os.makedirs(part)
                ids = pa.array(range(seg.lo, seg.hi), pa.int64())
                pq.write_table(src.slice(seg.lo, seg.hi - seg.lo)
                               .append_column("doc_id", ids),
                               os.path.join(part, "part-0.parquet"))
        elif form == "convmap_parts":
            t = pq.read_table(convmap)
            os.remove(convmap)
            os.makedirs(convmap)
            pq.write_table(t, os.path.join(convmap, "part-00000.parquet"))
        elif form == "postings_file":
            path = os.path.join(d, "postings.parquet")
            t = pq.read_table(path)
            shutil.rmtree(path)
            pq.write_table(t, path)
    if form == "fused_root":
        first = pc.equal(src["turn_idx"], 0).to_numpy(zero_copy_only=False)
        starts = np.flatnonzero(first)
        pq.write_table(pa.table({
            "conv_id": src["conv_id"].filter(pa.array(first)),
            "base": pa.array(starts, pa.int64()),
            "cnt": pa.array(np.diff(np.append(starts, N_TURNS)), pa.int64()),
        }), os.path.join(index_dir, "convmap.parquet"))
    with open(meta_path, "w") as f:
        json.dump(meta, f)


@pytest.mark.parametrize("form", ["v3_commit", "v3_tombstone", "fused_root",
                                  "docmapped", "convmap_parts", "postings_file",
                                  "v4_index", "v5_index", "norms_missing",
                                  "v6_index", "v7_index"])
def test_old_index_forms_refused(built, oracle, tmp_path, form):
    """An index in a layout older than today's writers produce is refused at
    open with the one rebuild error, by the engine, compaction and a delete
    alike; rebuilding into an empty directory serves it again."""
    from lucille_ray.index import compact_index, delete_conversations

    data_dir, index_dir, table = built
    src = _source_order(table)
    d = str(tmp_path / form)
    shutil.copytree(index_dir, d)
    _plant_old_form(d, form, src)
    victims = [src["conv_id"][0].as_py()]
    for open_ in (SearchEngine, compact_index,
                  lambda d_: delete_conversations(d_, victims)):
        with pytest.raises(ValueError, match="older index layout.*rebuild"):
            open_(d)
    shutil.rmtree(d)
    build_index(T.read_transcripts(data_dir), d, num_segments=2,
                range_width=256, batch_size=400, resume=False)
    fresh, fixture = SearchEngine(d, parallel=False), SearchEngine(index_dir, parallel=False)
    for qs in QUERY_SET:
        assert (fresh.search(qs, k=10).to_pydict()
                == fixture.search(qs, k=10).to_pydict()), qs
        _compare(fresh, oracle, qs)


def test_verify_index_finds_nothing_after_build_append_delete_compact(
        built, churned, tmp_path):
    """The verifier finds nothing on a built index, on an index with appended
    segments and tombstones, and on that index compacted (the purge re-cuts
    blocks)."""
    from lucille_ray.index import compact_index
    from lucille_ray.index.verify import verify_index

    assert verify_index(built[1]) == []
    idx = str(tmp_path / "churned")
    shutil.copytree(churned[0], idx)
    assert verify_index(idx) == []
    compact_index(idx)
    assert verify_index(idx) == []


def _rewrite_row_blocks(path: str, pick, change) -> str:
    """Rewrite one postings file with the block list of its first row that
    ``pick(blocks, term)`` accepts replaced by ``change(blocks, field)``;
    returns that row's term."""
    from lucille_ray.index.writer import write_postings_file

    t = _unpacked(pq.read_table(path))
    rows = t["blocks"].to_pylist()
    terms = t["term"].to_pylist()
    r = next(i for i, b in enumerate(rows) if pick(b, terms[i]))
    rows[r] = change(rows[r], t["field"][r].as_py())
    col = t.schema.get_field_index("blocks")
    write_postings_file(_packed(
        t.set_column(col, "blocks", pa.array(rows, t.schema.field(col).type))), path)
    return terms[r]


def _swap_row_groups(path: str) -> str:
    """Rewrite one postings file with its first two row groups swapped;
    returns the first term of the group moved back."""
    pf = pq.ParquetFile(path)
    groups = [pf.read_row_group(g) for g in range(pf.metadata.num_row_groups)]
    groups[:2] = groups[1::-1]
    with pq.ParquetWriter(path, groups[0].schema) as w:
        for t in groups:
            w.write_table(t, row_group_size=t.num_rows)
    return groups[1]["term"][0].as_py()


def _edit_stats(seg_dir: str, edit) -> None:
    """Rewrite the segment's ``stats.json`` after ``edit(doc)``."""
    path = os.path.join(seg_dir, "stats.json")
    with open(path) as f:
        doc = json.load(f)
    edit(doc)
    with open(path, "w") as f:
        json.dump(doc, f)


FAULTS = {  # fault -> the finding it must produce
    "max_tf": "max_tf is not the largest tf",
    "dropped_block": "df is not the sum of their blocks' n",
    "row_group_and_max_tf": "max_tf is not the largest tf",
    "min_dl_0": "min_dl is not between 1 and the least norm",
    "min_dl_above_least_norm": "min_dl is not between 1 and the least norm",
    "swapped_row_groups": "row groups out of (field, term) order",
    "truncated_norms": "norms, its segment",
    "total_dl_off_by_one": "its stats.json total_dl is",
    "posting_rows_off_by_one": "its manifest says posting_rows",
    "unsorted_tombstone": "tombstone ids are not sorted and unique",
    "tombstone_out_of_range": "tombstone holds 1 id(s) outside the segment's",
    "purged_id_posted": "a purged doc is still posted",
    "missing_tombstone": "which does not exist",
    "bounds_gap": "do not continue the segments before it",
    "doc_count_mismatch": "its manifest's doc_count is",
    "wrong_constant_norm": "its stats.json total_dl is",
    "singleton_with_header": "row(s) with a df of 1 and a header",
    "doc_map_gap": "convmap.parquet does not tile",
    "live_docs_without_purge": "stats.json live_docs is",
    "live_dl_off_by_one": "stats.json live_dl of text is",
}


@pytest.mark.parametrize("fault", list(FAULTS))
def test_verify_index_reports_planted_faults(built, tmp_path, capsys, fault):
    """A block whose packed header stores max_tf - 1, a row that lost a
    block, a term block whose min_dl is 0 or one above the least norm of its
    docs, a compacted file with two row groups swapped, a norms file one
    entry short, a ``total_dl`` one above the norms' sum, a manifest's
    ``posting_rows`` one above its files' rows, a tombstone out of order or
    naming a doc past the segment, a ``purged.npy`` id still in a block, a
    tombstone the commit names but that does not exist, a gap between two
    segments' commit bounds, a manifest ``doc_count`` one above its bounds',
    a constant norm one above what ``total_dl`` says, a one-posting row
    that stores a header, a doc map with a gap between two conversations, a
    ``live_docs`` below ``doc_count`` where no doc was purged and a
    ``live_dl`` one below what the purged docs' norms leave, are each
    reported, by
    ``verify_index`` and by the ``verify`` command, which exits 1 on
    findings and 0 on the sound fixture. A file whose row groups break the
    writer's invariant still has its blocks checked: both faults in one
    file are both reported."""
    import glob

    from lucille_ray.__main__ import main
    from lucille_ray.index import commit, compact_index, delete_docs
    from lucille_ray.index.build import MANIFEST_FILE, norms_file
    from lucille_ray.index.codec import decode_postings, encode_varints
    from lucille_ray.index.compact import PURGED_FILE
    from lucille_ray.index.segment import SegmentReader
    from lucille_ray.index.verify import verify_index

    _, index_dir, _ = built
    assert main(["verify", index_dir]) == 0
    assert capsys.readouterr().out.splitlines() == [f"0 finding(s) in {index_dir}"]
    d = str(tmp_path / fault)
    shutil.copytree(index_dir, d)
    if fault == "swapped_row_groups":
        compact_index(d)  # compaction writes each file as one sorted run
    seg_dir = _seg_dirs(d)[0]
    path = sorted(glob.glob(os.path.join(seg_dir, "postings.parquet", "*")))[0]

    def pick(b, term):  # a one-posting row stores no max_tf or min_dl
        return len(b) > 1 or b[0]["n"] > 1

    def bump(name, key):  # a JSON file of the segment with ``key`` one higher
        with open(os.path.join(seg_dir, name)) as f:
            doc = json.load(f)
        sub = doc["fields"]["text"] if key == "total_dl" else doc
        sub[key] += 1
        with open(os.path.join(seg_dir, name), "w") as f:
            json.dump(doc, f)

    if fault in ("max_tf", "row_group_and_max_tf"):
        def change(b, field):
            return [dict(b[0], max_tf=b[0]["max_tf"] - 1), *b[1:]]
    elif fault.startswith("min_dl"):
        def change(b, field):
            reader = SegmentReader(seg_dir)
            docs = decode_postings(b[:1])[0]
            least = int(reader.norms(field)[docs - reader.doc_base].min())
            return [dict(b[0], min_dl=0 if fault == "min_dl_0" else least + 1), *b[1:]]
    elif fault == "dropped_block":
        def pick(b, term):  # a 2-block row would keep one block, whose n
            return len(b) != 2  # a reader takes from its df

        def change(b, field):
            return b[:-1]
    named = os.path.basename(seg_dir) + ": "  # a segment's finding names it
    if fault == "swapped_row_groups":
        named = repr(_swap_row_groups(path))
    elif fault == "truncated_norms":
        npy = os.path.join(seg_dir, norms_file("text"))
        np.save(npy, np.load(npy)[:-1])
    elif fault == "total_dl_off_by_one":
        bump("stats.json", "total_dl")
    elif fault == "posting_rows_off_by_one":
        bump(MANIFEST_FILE, "posting_rows")
    elif fault == "doc_count_mismatch":
        bump(MANIFEST_FILE, "doc_count")
    elif fault == "wrong_constant_norm":
        with open(os.path.join(seg_dir, "stats.json")) as f:
            doc = json.load(f)
        doc["fields"]["role"]["norm"] += 1
        with open(os.path.join(seg_dir, "stats.json"), "w") as f:
            json.dump(doc, f)
    elif fault == "missing_tombstone":
        seg = commit.read(d)["segments"][0]
        delete_docs(d, [seg.lo + 1])
        os.remove(commit.tombstone_path(d, commit.read(d)["segments"][0]))
    elif fault == "bounds_gap":
        named = commit.read(d)["segments"][1].name + ": "
        with open(os.path.join(d, commit.INDEX_META_FILE)) as f:
            meta = json.load(f)
        meta["segments"][1]["docs"][0] += 1
        with open(os.path.join(d, commit.INDEX_META_FILE), "w") as f:
            json.dump(meta, f)
    elif fault == "singleton_with_header":
        stored = pq.read_table(path)
        rows, blocks, loff = unpack_rows(stored)
        r = int(np.flatnonzero(rows["df"].to_numpy() == 1)[0])
        named = repr(rows["term"][r].as_py())
        hdr = stored["hdr"].to_pylist()  # the header format v7 stored
        hdr[r] = encode_varints(np.array([1, blocks.max_tf[loff[r]], 1, 0]))
        stored = stored.set_column(stored.schema.get_field_index("hdr"), "hdr",
                                   pa.array(hdr, pa.binary()))
        md = pq.ParquetFile(path).metadata
        with pq.ParquetWriter(path, stored.schema) as w:
            lo = 0
            for g in range(md.num_row_groups):
                n = md.row_group(g).num_rows
                w.write_table(stored.slice(lo, n), row_group_size=n)
                lo += n
    elif "tombstone" in fault:
        seg = commit.read(d)["segments"][0]
        delete_docs(d, [seg.lo + 1, seg.lo + 2])
        bad = [seg.lo + 2, seg.lo + 1] if fault == "unsorted_tombstone" else [
            seg.lo + 1, seg.hi]
        seg = commit.read(d)["segments"][0]
        np.save(commit.tombstone_path(d, seg), np.array(bad, np.int64))
    elif fault == "purged_id_posted":  # with the live stats a purge records
        named = os.path.basename(seg_dir) + "/"
        reader = SegmentReader(seg_dir)
        np.save(os.path.join(seg_dir, PURGED_FILE), np.array([reader.doc_base], np.int64))

        def purge(doc):
            doc["live_docs"] = doc["doc_count"] - 1
            for f, st in doc["fields"].items():
                st["live_dl"] = st["total_dl"] - int(reader.norms(f)[0])
        _edit_stats(seg_dir, purge)
    elif fault == "doc_map_gap":
        cm = pq.read_table(os.path.join(seg_dir, "convmap.parquet"))
        base = cm["base"].to_pylist()
        base[1] += 1
        pq.write_table(cm.set_column(cm.schema.get_field_index("base"), "base",
                                     pa.array(base, pa.int64())),
                       os.path.join(seg_dir, "convmap.parquet"))
    elif fault == "live_docs_without_purge":
        _edit_stats(seg_dir, lambda doc: doc.update(live_docs=doc["doc_count"] - 1))
    elif fault == "live_dl_off_by_one":
        _edit_stats(seg_dir, lambda doc: doc["fields"]["text"].update(
            live_dl=doc["fields"]["text"]["total_dl"] - 1))
    else:
        named = repr(_rewrite_row_blocks(path, pick, change))
    if fault == "row_group_and_max_tf":
        stored = pq.read_table(path)  # one row group across the file's fields
        assert len(set(stored["field"].to_pylist())) > 1
        pq.write_table(stored, path, row_group_size=stored.num_rows)
        grouping, finding = verify_index(d)
        assert "breaks the writer's row-group invariant" in grouping, grouping
        findings = [grouping, finding]
    elif fault == "purged_id_posted":  # one finding per file that posts it
        findings = verify_index(d)
        assert findings and all(FAULTS[fault] in f for f in findings), findings
        finding = findings[0]
    elif fault == "bounds_gap":  # the segment no longer matches its bounds
        findings = verify_index(d)
        finding = next((f for f in findings if FAULTS[fault] in f), findings)
    else:
        (finding,) = findings = verify_index(d)
    assert FAULTS[fault] in finding and named in finding, finding
    assert main(["verify", d]) == 1
    assert capsys.readouterr().out.splitlines() == [
        *findings, f"{len(findings)} finding(s) in {d}"]


def test_small_session_puts_segments_on_fewer_actors(built, tmp_path, monkeypatch):
    """With fewer CPUs than segments the engine makes one 1-CPU scorer actor
    per CPU and puts more segments on each, instead of leaving actors
    PENDING and the first query waiting forever."""
    import ray

    data_dir, _, _ = built
    idx = str(tmp_path / "three_seg")
    build_index(T.read_transcripts(data_dir), idx, num_segments=3,
                range_width=256, batch_size=400)
    ref = SearchEngine(idx, parallel=False)
    assert len(ref.seg_dirs) == 3
    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": 1.0})
    engine = SearchEngine(idx, parallel=True)
    try:
        sets = engine._scorer_sets()
        assert len(sets) == 1 and len(sets[0]) == 1 and len(engine._actors) == 1
        held = ray.get(sets[0][0].__ray_call__.remote(
            lambda scorer: [r.seg_dir for r in scorer.readers]), timeout=60)
        assert held == engine.seg_dirs
        for qs in QUERY_SET[::3]:
            assert engine.search(qs, k=10).to_pydict() == ref.search(qs, k=10).to_pydict(), qs
        for (ad, ascr), (bd, bs) in zip(engine.search_many(QUERY_SET[:6], k=5),
                                        ref.search_many(QUERY_SET[:6], k=5)):
            assert ad.tolist() == bd.tolist() and ascr.tolist() == bs.tolist()
    finally:
        engine.shutdown()


def _actor_segments(engine) -> list:
    import ray

    return ray.get([
        a.__ray_call__.remote(lambda scorer: [r.seg_dir for r in scorer.readers])
        for a in engine._actors
    ], timeout=60)


def _churn_index(table: pa.Table, root, compact_base: bool = False,
                 delete: bool = True) -> tuple:
    """A churn-style index under ``root`` over ``table``: one segment
    (compacted when ``compact_base``), two appends of later conversations,
    then (``delete``) tombstones in every segment. Conversations are split
    in sorted order, so doc ids equal the oracle's over ``table``. Returns
    the index directory and the deleted doc ids."""
    import ray.data

    from lucille_ray.index import compact_index, delete_conversations
    from lucille_ray.index.build import append_index

    convs = sorted(set(table["conv_id"].to_pylist()))
    cuts = [convs[int(len(convs) * f)] for f in (0.8, 0.9)]
    parts = [
        pc.less(table["conv_id"], cuts[0]),
        pc.and_(pc.greater_equal(table["conv_id"], cuts[0]),
                pc.less(table["conv_id"], cuts[1])),
        pc.greater_equal(table["conv_id"], cuts[1]),
    ]
    paths = []
    for i, mask in enumerate(parts):
        paths.append(str(root / f"part{i}.parquet"))
        pq.write_table(table.filter(mask), paths[-1])
    idx = str(root / "index")
    build_index(ray.data.read_parquet(paths[0]), idx, num_segments=1, batch_size=400)
    if compact_base:
        compact_index(idx)
    for p in paths[1:]:
        append_index(ray.data.read_parquet(p), idx, num_segments=1, batch_size=400)
    if not delete:
        return idx, set()
    victims = [convs[3], convs[int(len(convs) * 0.85)], convs[-2]]
    assert delete_conversations(idx, victims) > 0
    src = _source_order(table)
    dead = {d for d, c in enumerate(src["conv_id"].to_pylist()) if c in victims}
    return idx, dead


@pytest.fixture(scope="module")
def churned(built, tmp_path_factory):
    """:func:`_churn_index` over the fixture corpus, its base uncompacted."""
    return _churn_index(built[2], tmp_path_factory.mktemp("churned"))


def _oracle_hits(oracle, query, dead) -> list:
    """Every live hit, (score desc, doc_id asc); scores keep maxDoc stats."""
    return [(d, s) for d, s in oracle.search(query, k=oracle.n) if d not in dead]


def _assert_rows_match_oracle(t, hits, oracle, what):
    assert t["doc_id"].to_pylist() == [d for d, _ in hits], what
    for got, (_, s) in zip(t["score"].to_pylist(), hits):
        assert abs(got - s) < 1e-9, what
    if "conv_id" in t.column_names:
        assert t["conv_id"].to_pylist() == [oracle.conv_id[d] for d, _ in hits], what
        assert t["turn_idx"].to_pylist() == [oracle.turn_idx[d] for d, _ in hits], what


def test_small_segments_share_one_scorer_actor(built, churned, oracle, monkeypatch):
    """Segments under SLICE_DOCS docs pack onto one scorer actor, in doc order,
    and every answer equals the in-process engine's and the oracle's; with
    SLICE_DOCS=1 each segment gets its own actor again."""
    import lucille_ray.index.compact as compact_mod
    from lucille_ray.search.engine import SLICE_SEGMENTS, slice_groups
    from lucille_ray.query import nodes as qn
    from lucille_ray.query.parser import parse

    for idx, dead in ((built[1], set()), churned):
        ref = SearchEngine(idx, parallel=False)
        engine = SearchEngine(idx)
        try:
            assert len(engine.seg_dirs) in (2, 3)
            engine._scorer_sets()
            assert len(engine._actors) == 1
            assert _actor_segments(engine) == [engine.seg_dirs]
            for qs in QUERY_SET:
                hits = _oracle_hits(oracle, qs, dead)
                got = engine.search(qs, k=10)
                assert got.equals(ref.search(qs, k=10)), qs
                _assert_rows_match_oracle(got, hits[:10], oracle, qs)
                sug = engine.suggest(qs, k=10)
                assert sug.equals(ref.suggest(qs, k=10)), qs
                typed = parse(qs).map_last_term(
                    lambda t: qn.Or(qn.Term(t.value), qn.Prefix(t.value)))
                _assert_rows_match_oracle(
                    sug, _oracle_hits(oracle, typed, dead)[:10], oracle, qs)
                ma = engine.match_all(qs)
                assert ma.equals(ref.match_all(qs)), qs
                _assert_rows_match_oracle(ma, sorted(hits), oracle, qs)
            for (ad, ascr), (bd, bs) in zip(engine.search_many(QUERY_SET, k=5),
                                            ref.search_many(QUERY_SET, k=5)):
                assert ad.tolist() == bd.tolist() and ascr.tolist() == bs.tolist()
        finally:
            engine.shutdown()

    # one actor per segment, as before packing, when no segment is "small"
    monkeypatch.setattr(compact_mod, "SLICE_DOCS", 1)
    for idx in (built[1], churned[0]):
        engine = SearchEngine(idx)
        try:
            engine._scorer_sets()
            assert _actor_segments(engine) == [[d] for d in engine.seg_dirs]
        finally:
            engine.shutdown()

    # the CPU cap folds groups round-robin, each actor keeping doc order
    import ray

    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": 2.0})
    engine = SearchEngine(churned[0])
    try:
        engine._scorer_sets()
        segs = engine.seg_dirs
        assert _actor_segments(engine) == [[segs[0], segs[2]], [segs[1]]]
    finally:
        engine.shutdown()
    monkeypatch.undo()

    dirs = [f"seg-{i:05d}" for i in range(20)]
    tiny = slice_groups(dirs[:7], [100] * 7, 8)
    assert tiny == [dirs[:SLICE_SEGMENTS], dirs[SLICE_SEGMENTS:7]]
    big = compact_mod.SLICE_DOCS
    assert slice_groups(dirs[:3], [big, 10, 10], 8) == [dirs[:1], dirs[1:3]]
    assert slice_groups(dirs[:3], [10, big, 10], 8) == [dirs[:2], dirs[2:3]]
    for cap in (1, 2, 4, 8):
        for counts in ([big] * 20, [1] * 20, [big, 1] * 10):
            groups = slice_groups(dirs, counts, cap)
            assert 1 <= len(groups) <= cap
            assert sorted(d for g in groups for d in g) == dirs
            assert all(g == sorted(g) for g in groups)
    # every segment at or above SLICE_DOCS: one per actor, dealt round-robin
    assert slice_groups(dirs[:10], [big] * 10, 8) == [
        [dirs[i]] + ([dirs[i + 8]] if i + 8 < 10 else []) for i in range(8)]


def test_merge_groups_cut_runs_of_small_segments(monkeypatch):
    """Compaction's merge policy: a segment of SLICE_DOCS docs or more, or
    without a manifest, stays alone; each maximal run of adjacent smaller
    segments is one group, cut once it holds SLICE_DOCS docs. ``bench.py``'s
    4 x 50k-doc index keeps its 4 segments."""
    import lucille_ray.index.compact as compact_mod
    from lucille_ray.index import commit
    from lucille_ray.index.compact import _merge_groups

    def groups(sizes, manifests=None):
        bounds = np.concatenate([[0], np.cumsum(sizes)]).tolist()
        segs = [commit.Segment(f"seg-{i:05d}", lo, hi)
                for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]))]
        return _merge_groups(segs, manifests or [{}] * len(segs))

    big = compact_mod.SLICE_DOCS
    assert groups([50_000] * 4) == [[0], [1], [2], [3]]
    assert groups([3_000, 200, 200]) == [[0, 1, 2]]
    assert groups([big, 10, 10, big - 1, 5, big]) == [[0], [1, 2, 3], [4], [5]]
    assert groups([big - 1, 1, 1, 0, 7]) == [[0, 1], [2, 3, 4]]
    assert groups([10, 10, 10], [{}, None, {}]) == [[0], [1], [2]]
    monkeypatch.setattr(compact_mod, "SLICE_DOCS", 1)
    assert groups([3_000, 200, 200]) == [[0], [1], [2]]


def test_churned_index_merges_into_one_segment(built, tmp_path, monkeypatch):
    """A churn-shaped index -- a compacted base, two appends and tombstones
    in all three segments -- merges into one segment in one
    ``compact_index``, its purge included. The merged segment's norms, doc
    map and purged ids are the inputs' concatenated, its stage stats the
    newest input's (the last append's), and its live stats theirs added
    up. Its answers equal, bit for bit, those of the
    same index compacted segment by segment (SLICE_DOCS=1: no merge) and
    the oracle's over the live corpus; the verifier finds nothing in either,
    and a second compaction does nothing."""
    import lucille_ray.index.compact as compact_mod
    from lucille_ray.index import commit, compact_index
    from lucille_ray.index.build import read_manifest
    from lucille_ray.index.segment import load_segments
    from lucille_ray.index.verify import verify_index

    idx, dead = _churn_index(built[2], tmp_path, compact_base=True)
    c = commit.read(idx)
    assert len(c["segments"]) == 3 and all(s.deleted for s in c["segments"])
    assert read_manifest(_seg_dirs(idx)[0])["compacted"]
    with open(os.path.join(_seg_dirs(idx)[-1], "stage_stats.txt")) as f:
        stage = f.read()
    unmerged = str(tmp_path / "unmerged")
    shutil.copytree(idx, unmerged)

    (done,) = compact_index(idx)
    assert done["source"] == [s.name for s in c["segments"]]
    (seg,) = commit.read(idx)["segments"]
    assert seg == (done["segment"], 0, c["total_docs"], None)
    with monkeypatch.context() as m:
        m.setattr(compact_mod, "SLICE_DOCS", 1)
        assert len(compact_index(unmerged)) == 3
    parts = load_segments(unmerged)
    (merged,) = load_segments(idx)
    for f in merged.manifest["fields"]:
        assert np.array_equal(merged.norms(f), np.concatenate([r.norms(f) for r in parts]))
        assert merged.live_total_dl(f) == sum(r.live_total_dl(f) for r in parts)
        assert ("norm" in merged.stats["fields"][f]) == (f != "text")
    assert merged.live_docs == sum(r.live_docs for r in parts) == c["total_docs"] - len(dead)
    assert compact_mod.purged_ids(merged.seg_dir).tolist() == sorted(dead)
    for a, b in zip(merged.conv_map(), zip(*(r.conv_map() for r in parts))):
        assert np.array_equal(np.asarray(a), np.concatenate([np.asarray(x) for x in b]))
    with open(os.path.join(merged.seg_dir, "stage_stats.txt")) as f:
        assert stage and f.read() == stage

    for d in (idx, unmerged):
        assert verify_index(d) == []
    one, three = (SearchEngine(d, parallel=False, result_cache=False) for d in (idx, unmerged))
    for qs in QUERY_SET:
        assert one.search(qs, k=10).equals(three.search(qs, k=10)), qs
    _live_answers_match(idx, built[2], dead)
    assert compact_index(idx) == []


def test_stage_stats_do_not_grow_over_append_compact_cycles(built, tmp_path):
    """A merge keeps the newest input's ``stage_stats.txt`` only, so three
    append-and-compact cycles on a compacted base leave the one merged
    segment the last append's stats, no larger than one write's: the
    earlier writes' stats are not carried forward."""
    import ray.data

    from lucille_ray.index import compact_index
    from lucille_ray.index.build import append_index

    table = built[2]
    convs = sorted(set(table["conv_id"].to_pylist()))
    cuts = [convs[int(len(convs) * f)] for f in (0.7, 0.8, 0.9)]
    bounds = [None, *cuts, None]
    paths = []
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        mask = pa.array(np.ones(table.num_rows, bool))
        if lo is not None:
            mask = pc.and_(mask, pc.greater_equal(table["conv_id"], lo))
        if hi is not None:
            mask = pc.and_(mask, pc.less(table["conv_id"], hi))
        paths.append(str(tmp_path / f"part{i}.parquet"))
        pq.write_table(table.filter(mask), paths[-1])
    idx = str(tmp_path / "index")
    build_index(ray.data.read_parquet(paths[0]), idx, num_segments=1, batch_size=400)
    compact_index(idx)

    def stats_text(seg_dir):
        with open(os.path.join(seg_dir, "stage_stats.txt")) as f:
            return f.read()

    written = [len(stats_text(_seg_dirs(idx)[0]))]
    for p in paths[1:]:
        append_index(ray.data.read_parquet(p), idx, num_segments=1, batch_size=400)
        appended = stats_text(_seg_dirs(idx)[-1])
        written.append(len(appended))
        (done,) = compact_index(idx)
        assert len(done["source"]) == 2
        (merged,) = _seg_dirs(idx)
        assert stats_text(merged) == appended
    assert len(stats_text(merged)) <= max(written)


def test_compaction_never_merges_a_large_segment(built, tmp_path, monkeypatch):
    """A compacted segment of SLICE_DOCS docs or more is not rewritten: with
    SLICE_DOCS at the base segment's size, compaction merges only the two
    appended segments, the base keeps its directory and files, and answers
    stay the oracle's."""
    import lucille_ray.index.compact as compact_mod
    from lucille_ray.index import commit, compact_index
    from lucille_ray.index.verify import verify_index

    idx, _ = _churn_index(built[2], tmp_path, compact_base=True, delete=False)
    c = commit.read(idx)
    base = c["segments"][0]
    files = {f: open(os.path.join(r, f), "rb").read()
             for r in [commit.segment_dir(idx, base.name)]
             for f in ("stats.json", "convmap.parquet", "MANIFEST.json")}
    monkeypatch.setattr(compact_mod, "SLICE_DOCS", base.hi - base.lo)
    (done,) = compact_index(idx)
    assert done["source"] == [s.name for s in c["segments"][1:]]
    after = commit.read(idx)["segments"]
    assert after[0] == base and len(after) == 2
    assert (after[1].lo, after[1].hi) == (c["segments"][1].lo, c["segments"][2].hi)
    for f, data in files.items():
        assert open(os.path.join(commit.segment_dir(idx, base.name), f), "rb").read() == data
    assert verify_index(idx) == []
    engine = SearchEngine(idx, parallel=False)
    oracle = BruteForceOracle(built[2])
    for qs in QUERY_SET[::3]:
        _compare(engine, oracle, qs)


def test_merge_of_differing_constant_norms_stores_a_norms_file(built, tmp_path):
    """``tool`` is one token in every turn of the base segment and two in
    every turn of the appended one, so each stores a constant norm, 1 and
    2; their merge stores ``tool``'s norms as a file of both, ``role`` (one
    token everywhere) stays a constant, and answers equal the oracle's."""
    import ray.data

    from lucille_ray.index import compact_index
    from lucille_ray.index.build import append_index, norms_file
    from lucille_ray.index.segment import load_segments
    from lucille_ray.index.verify import verify_index

    _, _, table = built
    convs = sorted(set(table["conv_id"].to_pylist()))
    later = pc.greater_equal(table["conv_id"], convs[len(convs) // 2])
    tool = pc.if_else(later, pa.scalar("run python"), pa.scalar("bash"))
    table = table.set_column(table.schema.get_field_index("tool"), "tool", tool)
    paths = [str(tmp_path / f"part{i}.parquet") for i in (0, 1)]
    pq.write_table(table.filter(pc.invert(later)), paths[0])
    pq.write_table(table.filter(later), paths[1])
    idx = str(tmp_path / "index")
    build_index(ray.data.read_parquet(paths[0]), idx, num_segments=1, batch_size=400)
    append_index(ray.data.read_parquet(paths[1]), idx, num_segments=1, batch_size=400)
    assert [r.stats["fields"]["tool"].get("norm") for r in load_segments(idx)] == [1, 2]
    sizes = [r.doc_count for r in load_segments(idx)]

    (done,) = compact_index(idx)
    assert len(done["source"]) == 2
    (r,) = load_segments(idx)
    assert "norm" not in r.stats["fields"]["tool"]
    assert os.path.exists(os.path.join(r.seg_dir, norms_file("tool")))
    assert r.norms("tool").tolist() == [1] * sizes[0] + [2] * sizes[1]
    assert r.stats["fields"]["role"]["norm"] == 1
    assert not os.path.exists(os.path.join(r.seg_dir, norms_file("role")))
    assert verify_index(idx) == []
    engine = SearchEngine(idx, parallel=False)
    oracle = BruteForceOracle(table)
    for qs in ("tool:python", "tool:bash", "tool:(run OR bash) AND data", "data"):
        _compare(engine, oracle, qs)


def test_auto_engine_serves_a_merged_index_as_written(built, tmp_path):
    """With Ray up, ``parallel="auto"`` scores an index of one written
    segment in-process and one of several on actors. A merge of several
    into one segment, and a later purge of that segment alone, keep it on
    actors: compaction changes how the index is stored, not how it is
    served."""
    import ray.data

    from lucille_ray.index import compact_index, delete_conversations
    from lucille_ray.index.build import append_index
    from lucille_ray.index.compact import written_segments
    from lucille_ray.index.segment import load_segments

    _, _, table = built
    convs = sorted(set(table["conv_id"].to_pylist()))
    later = pc.greater_equal(table["conv_id"], convs[len(convs) // 2])
    paths = [str(tmp_path / f"part{i}.parquet") for i in (0, 1)]
    pq.write_table(table.filter(pc.invert(later)), paths[0])
    pq.write_table(table.filter(later), paths[1])
    idx = str(tmp_path / "index")
    build_index(ray.data.read_parquet(paths[0]), idx, num_segments=1, batch_size=400)
    assert not SearchEngine(idx).parallel
    compact_index(idx)
    assert not SearchEngine(idx).parallel
    append_index(ray.data.read_parquet(paths[1]), idx, num_segments=1, batch_size=400)
    assert SearchEngine(idx).parallel
    (done,) = compact_index(idx)
    assert len(done["source"]) == 2
    (r,) = load_segments(idx)
    assert written_segments(r.manifest) == 2 and SearchEngine(idx).parallel
    assert delete_conversations(idx, [convs[1]]) > 0
    (done,) = compact_index(idx)
    assert done["source"] == [r.manifest["segment_id"]]
    (r,) = load_segments(idx)
    assert written_segments(r.manifest) == 2 and SearchEngine(idx).parallel
    assert not SearchEngine(idx, parallel=False).parallel
