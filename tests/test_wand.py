"""Block-max WAND: rank+score identity with the plain evaluator, and proof that
score-skipping actually skips block decodes."""

import os

import numpy as np
import pytest

from lucille_ray import transcripts as T
from lucille_ray.index.build import build_index
from lucille_ray.index.segment import ReaderCache
import lucille_ray.search.engine as engine_mod
from lucille_ray.search.engine import SearchEngine, SegmentScorer
from lucille_ray.search.eval import SegmentEval, collect_term_requests, top_k
from lucille_ray.search.wand import wand_parts, wand_top_k
from lucille_ray.query.parser import parse

OR_QUERIES = [
    "data OR query",
    "deploy OR jump OR test OR cat",
    "the OR data OR query OR join OR jump OR deploy",  # hot + rare mix
    "data^2 OR query^0.5",
    "(data OR query OR join)^1.5",
    "role:assistant OR role:tool",
    "xylophone42 OR data",
    "the OR a",  # stopword-ish only
    "data OR data2 OR nosuchterm",
    # m-of-n MinimumMatch shapes take the same WAND path with a coverage track
    "(data query join)@2",
    "(the data query join jump deploy)@3",
    "(data query xylophone42)@2",
    "(data^2 query^0.5 join)@2",
    "(data nosuchterm query)@2",
    "(data query)@5",  # num > clauses: EMPTY on both paths
]


@pytest.fixture(scope="module")
def built(ray_session, tmp_path_factory):
    root = str(tmp_path_factory.mktemp("wand"))
    data_dir = os.path.join(root, "data")
    index_dir = os.path.join(root, "index")
    T.generate(5000, data_dir, num_files=2)
    build_index(T.read_transcripts(data_dir), index_dir, num_segments=2, batch_size=1000)
    return index_dir


@pytest.mark.parametrize("qs", OR_QUERIES, ids=repr)
@pytest.mark.parametrize("k", [3, 10, 50])
def test_wand_identical_to_eval(built, qs, k):
    """WAND top-k == plain SegmentEval top-k, ranks AND scores, per segment."""
    engine = SearchEngine(built, parallel=False)
    q, reqs, ctx = engine.plan(qs)
    parts_scale = wand_parts(q)
    assert parts_scale is not None, f"{qs!r} should be WAND-eligible"
    args, scale = parts_scale
    scorer = engine._scorers()[0]
    for r in scorer.readers:
        if r.doc_count == 0:
            continue
        wd, ws = wand_top_k(r, ctx, k=k, **args)
        fresh = SegmentEval(r, ctx, collect_term_requests(q), query=q)
        ed, es = fresh.eval(q)
        ed, es = top_k(ed, es, k)
        assert wd.tolist() == ed.tolist(), f"{qs!r} k={k}: rank mismatch"
        # eval(q) already applies the root boost; weight the WAND side only
        for w in reversed(scale):
            ws = ws * w
        np.testing.assert_array_equal(ws, es)


def test_wand_engine_end_to_end_matches_oracle(built, ray_session):
    import pyarrow.parquet as pq

    from lucille_ray.search.oracle import BruteForceOracle

    data_dir = os.path.join(os.path.dirname(built), "data")
    oracle = BruteForceOracle(pq.read_table(data_dir))
    engine = SearchEngine(built, parallel=False)
    for qs in OR_QUERIES:
        got = engine.search(qs, k=10, with_meta=False)
        exp = oracle.search(qs, k=10)
        gp = list(zip(got["doc_id"].to_pylist(), got["score"].to_pylist()))
        assert len(gp) == len(exp), qs
        for (gd, gscore), (ed, escore) in zip(gp, exp):
            assert gd == ed, f"{qs!r}: rank differs"
            assert abs(gscore - escore) < 1e-9, qs


def test_wand_actually_skips_decodes(built, tombstoned, monkeypatch):
    """For a rare-OR-hot query with small k, the hot term must NOT be fully
    decoded: count docs decoded via the codec. Deleted docs change nothing:
    the block bounds still hold, so a copy with deletes in every segment
    keeps the same bound."""
    from lucille_ray.index import codec

    decoded_vals = {"n": 0}
    real = codec.decode_varints

    def counting(buf):
        out = real(buf)
        decoded_vals["n"] += out.size
        return out

    for index_dir in (built, tombstoned(built)[0]):
        engine = SearchEngine(index_dir, parallel=False)
        scorer = engine._scorers()[0]
        r = max(scorer.readers, key=lambda rr: rr.doc_count)
        # hottest text term in the corpus vs the rare high-idf 'xylophone42'
        terms, dfs = r.term_dict("text")
        hot = str(terms[int(np.argmax(dfs))])
        q, reqs, ctx = engine.plan(f"xylophone42 OR {hot}")
        args, scale = wand_parts(q)
        for f in ("text", "role", "tool"):
            r.norms(f)  # pre-warm: norms decode is not what this test measures
        decoded_vals["n"] = 0
        with monkeypatch.context() as m:
            m.setattr("lucille_ray.index.codec.decode_varints", counting)
            r.cache = ReaderCache()
            wand_top_k(r, ctx, k=3, **args)
        df_hot = ctx.df.get(("text", hot), 0)
        assert df_hot > r.doc_count // 4  # the premise: the term really is hot
        # full evaluation decodes ~2*df values (docs+tfs) for the hot term
        # alone; score-skipping must touch far less
        assert decoded_vals["n"] < df_hot, (
            f"decoded {decoded_vals['n']} values; full eval would decode ~{2 * df_hot}"
        )


def test_wand_random_queries_property(built, ray_session):
    """Randomized WAND-vs-eval identity: arbitrary term mixes (hot/rare/absent),
    arbitrary boosts, arbitrary k — ranks and scores must match exactly."""
    from hypothesis import given, settings, strategies as st

    engine = SearchEngine(built, parallel=False)
    scorer = engine._scorers()[0]
    r = max(scorer.readers, key=lambda rr: rr.doc_count)
    terms, dfs = r.term_dict("text")
    # mix of hot, mid, rare, and absent terms
    order = np.argsort(-dfs)
    pool = [str(terms[i]) for i in order[:: max(1, len(order) // 40)]][:40]
    pool += ["zzznope", "qqqmissing"]

    @settings(max_examples=60, deadline=None)
    @given(
        idxs=st.lists(st.integers(0, len(pool) - 1), min_size=2, max_size=6, unique=True),
        boosts=st.lists(st.sampled_from([1.0, 0.5, 2.0, 3.75]), min_size=6, max_size=6),
        k=st.integers(1, 40),
    )
    def check(idxs, boosts, k):
        clauses = []
        for j, i in enumerate(idxs):
            b = boosts[j]
            clauses.append(pool[i] if b == 1.0 else f"{pool[i]}^{b}")
        qs = " OR ".join(clauses)
        q, reqs, ctx = engine.plan(qs)
        parts_scale = wand_parts(q)
        assert parts_scale is not None
        args, scale = parts_scale
        wd, ws = wand_top_k(r, ctx, k=k, **args)
        ev = SegmentEval(r, ctx, collect_term_requests(q), query=q)
        ed, es = top_k(*ev.eval(q), k)
        assert wd.tolist() == ed.tolist(), qs
        np.testing.assert_array_equal(ws, es)

    check()


def test_wand_minmatch_random_property(built, ray_session):
    """Randomized m-of-n identity: arbitrary term mixes, boosts, k, and m."""
    from hypothesis import given, settings, strategies as st

    engine = SearchEngine(built, parallel=False)
    scorer = engine._scorers()[0]
    r = max(scorer.readers, key=lambda rr: rr.doc_count)
    terms, dfs = r.term_dict("text")
    order = np.argsort(-dfs)
    pool = [str(terms[i]) for i in order[:: max(1, len(order) // 40)]][:40]
    pool += ["zzznope", "qqqmissing"]

    @settings(max_examples=60, deadline=None)
    @given(
        idxs=st.lists(st.integers(0, len(pool) - 1), min_size=2, max_size=6, unique=True),
        boosts=st.lists(st.sampled_from([1.0, 0.5, 2.0]), min_size=6, max_size=6),
        k=st.integers(1, 40),
        mm=st.integers(1, 7),
    )
    def check(idxs, boosts, k, mm):
        clauses = []
        for j, i in enumerate(idxs):
            b = boosts[j]
            clauses.append(pool[i] if b == 1.0 else f"{pool[i]}^{b}")
        qs = f"({' '.join(clauses)})@{mm}"
        q, reqs, ctx = engine.plan(qs)
        parts_scale = wand_parts(q)
        assert parts_scale is not None
        args, scale = parts_scale
        wd, ws = wand_top_k(r, ctx, k=k, **args)
        ev = SegmentEval(r, ctx, collect_term_requests(q), query=q)
        ed, es = top_k(*ev.eval(q), k)
        assert wd.tolist() == ed.tolist(), qs
        np.testing.assert_array_equal(ws, es)

    check()


def test_min_dl_bounds_every_block_after_build_append_compaction(
        ray_session, tmp_path, monkeypatch):
    """Merge windows of 4,096 piece rows over 3,536 perfbench-style turns in
    400-turn batches cut tokenize pieces from their norms rows, so the window
    merge re-cuts blocks holding docs whose norms lie in another window.
    Every term block stores a min_dl of at least 1 and at most the least
    norm of its docs (``verify_index`` finds nothing, and no term block
    reads 0: a one-posting row's block reads its doc's norm) after the build, after an append and after compaction; and the
    window merge did re-cut such blocks, each with a positive min_dl."""
    import glob

    import pyarrow.parquet as pq

    import lucille_ray.index.build as build_mod
    from lucille_ray.index import commit, compact_index
    from lucille_ray.index.codec import unpack_rows
    from lucille_ray.index.segment import SegmentReader
    from lucille_ray.index.verify import verify_index
    from perfbench.corpus import make_turns, make_vocabulary, write_corpus

    def term_blocks(rows, rb, loff):
        """(blocks, field per block, (field, term, first, last, n) per
        block) of unpacked postings rows (a window's norms rows pass through
        its merge as they are, so they are never re-cut)."""
        nb = np.diff(loff)
        field = np.repeat(np.asarray(rows["field"].to_pylist(), object), nb)
        term = np.repeat(np.asarray(rows["term"].to_pylist(), object), nb)
        return rb, field, list(zip(field.tolist(), term.tolist(), rb.firsts.tolist(),
                                   rb.lasts.tolist(), rb.ns.tolist()))

    vocab = make_vocabulary(20000, 1)
    data, more, idx = (str(tmp_path / n) for n in ("data", "more", "index"))
    write_corpus(make_turns(vocab, 3500, 1), data)
    write_corpus(make_turns(vocab, 1000, 2, conv_base=10**6), more)
    record_dir = str(tmp_path / "windows")
    os.makedirs(record_dir)

    def merge_window(batch):
        """The window merge (in a Ray worker), recording under
        ``record_dir`` how many re-cut term blocks hold a doc without a norm
        in the window, how many of those store min_dl 0, and how many of
        those hold the one posting of a one-posting row of the window."""
        import uuid

        from lucille_ray.index import build

        out = build._piece_merge_batch(batch)
        norms = build._decode_norms(*unpack_rows(batch))
        before = term_blocks(*unpack_rows(batch))[2]
        singles = {(f, t, first) for f, t, first, _, n in before if n == 1}
        before = set(before)
        rb, field, keys = term_blocks(*unpack_rows(out))
        recut = np.array([k not in before for k in keys], bool)
        orphaned = zero = single = 0
        for f in set(field[recut].tolist()):
            for i in np.flatnonzero(recut & (field == f)):
                docs = rb.decode_blocks(np.array([i]))[0]
                if f not in norms or (norms[f][docs] == 0).any():
                    orphaned += 1
                    zero += int(rb.min_dl[i] == 0)
                    single += any((f, keys[i][1], d) in singles for d in docs.tolist())
        with open(os.path.join(record_dir, uuid.uuid4().hex), "w") as fh:
            fh.write(f"{orphaned} {zero} {single}")
        return out

    def check():
        assert verify_index(idx) == []
        for s in commit.read(idx)["segments"]:
            reader = SegmentReader(commit.segment_dir(idx, s.name))
            norms = {f: reader.norms(f) for f in reader.manifest["fields"]}
            for path in glob.glob(os.path.join(reader.seg_dir, "postings.parquet", "*")):
                rb = unpack_rows(pq.read_table(path), norms, reader.doc_base)[1]
                assert (rb.min_dl > 0).all(), path

    monkeypatch.setattr(build_mod, "PIECE_MERGE_ROWS", 4096)
    monkeypatch.setattr(build_mod, "_piece_merge_batch", merge_window)
    build_index(T.read_transcripts(data), idx, num_segments=2, batch_size=400)
    check()
    build_mod.append_index(T.read_transcripts(more), idx, batch_size=400)
    check()
    counts = np.array([[int(v) for v in open(p).read().split()]
                       for p in glob.glob(os.path.join(record_dir, "*"))])
    assert counts[:, 0].sum() > 0, "no window re-cut a block away from its norms"
    assert counts[:, 2].sum() > 0, "no such block held a one-posting row"
    assert counts[:, 1].sum() == 0
    compact_index(idx)
    check()


def test_window_merge_recuts_a_one_posting_row_at_its_header_min_dl():
    """A merge window holding a one-posting row of ``zeta`` and another
    undersized piece of it, but not the norms row of the one-posting row's
    tokenize batch, re-cuts both into one block whose ``min_dl`` is the
    one-posting row's doc's norm (the least of the block's docs), taken from
    the header the row keeps in the build's stream; a stream that dropped
    it would re-cut at 0."""
    import pyarrow as pa

    from lucille_ray.index.build import (DEFAULT_RANGE_WIDTH, _is_norms_row,
                                         _piece_merge_batch, _TokenizeEncode)
    from lucille_ray.index.codec import unpack_rows

    encode = _TokenizeEncode(("text",), DEFAULT_RANGE_WIDTH)

    def batch(first, texts):
        n = len(texts)
        return encode(pa.table({
            "doc_id": pa.array(np.arange(first, first + n, dtype=np.int64)),
            "seg": pa.array(np.zeros(n, np.int32)),
            "text": pa.array(texts),
        }))

    a = batch(0, ["a b c d", "a b c", "zeta b", "a b c d e"])
    b = batch(4, ["zeta a b c d", "zeta a b c", "a b c d e f", "zeta b c d"])
    window = pa.concat_tables([a.filter(pa.compute.invert(_is_norms_row(a))), b])
    rows, blocks, offsets = unpack_rows(_piece_merge_batch(window))
    r = rows["term"].to_pylist().index("zeta")
    assert (offsets[r + 1] - offsets[r], rows["df"][r].as_py()) == (1, 4)
    assert blocks.min_dl[offsets[r]] == 2  # doc 2, "zeta b"; b's are 4 and 5


def test_wand_parts_shapes():
    assert wand_parts(parse("a OR b")) is not None
    assert wand_parts(parse("(a OR b)^2")) == (
        {"parts": [("text", "a", 1.0), ("text", "b", 1.0)], "m": 1}, (2.0,),
    )
    assert wand_parts(parse("role:(a OR b)"))[0]["parts"][0][0] == "role"
    assert wand_parts(parse("a AND b")) is None
    assert wand_parts(parse("a OR \"b c\"")) is None  # phrase clause
    assert wand_parts(parse("a OR -b")) is None  # negative clause
    assert wand_parts(parse("a OR a")) is None  # duplicate clause float order
    assert wand_parts(parse("a OR b.c")) is None  # multi-token term
    assert wand_parts(parse("a OR ((b^2))^3")) is None  # nested clause boost
    assert wand_parts(parse("a")) is None  # single term: plain path
    # MinimumMatch shapes
    assert wand_parts(parse("(a b c)@2"))[0]["m"] == 2
    assert wand_parts(parse("(a b c)@0"))[0]["m"] == 1  # eval treats num<=0 as 1
    assert wand_parts(parse("((a b c)@2)^1.5")) == (
        {"parts": [("text", "a", 1.0), ("text", "b", 1.0), ("text", "c", 1.0)],
         "m": 2},
        (1.5,),
    )
    assert wand_parts(parse('(a "b c" d)@2')) is None  # phrase clause
    assert wand_parts(parse("(a a b)@2")) is None  # duplicate clauses count twice


def test_wand_minmatch_coverage_skips_decodes(built, monkeypatch):
    """(rare hot)@2: the rare term's docs form the exact candidate superset,
    so the hot term decodes only the blocks containing those few docs — never
    its full posting list."""
    import lucille_ray.search.wand as wand_mod
    from lucille_ray.index import codec

    engine = SearchEngine(built, parallel=False)
    scorer = engine._scorers()[0]
    r = max(scorer.readers, key=lambda rr: rr.doc_count)
    terms, dfs = r.term_dict("text")
    hot = str(terms[int(np.argmax(dfs))])
    q, reqs, ctx = engine.plan(f"(xylophone42 {hot})@2")
    args, scale = wand_parts(q)
    assert args["m"] == 2

    decoded_vals = {"n": 0}
    real = codec.decode_varints

    def counting(buf):
        out = real(buf)
        decoded_vals["n"] += out.size
        return out

    for f in ("text", "role", "tool"):
        r.norms(f)
    monkeypatch.setattr("lucille_ray.index.codec.decode_varints", counting)
    r.cache = ReaderCache()
    wd, ws = wand_top_k(r, ctx, k=3, **args)
    wand_decoded = decoded_vals["n"]  # snapshot before the identity check below
    # identity against the plain evaluator on the same segment
    ev = SegmentEval(r, ctx, collect_term_requests(q), query=q)
    ed, es = top_k(*ev.eval(q), 3)
    assert wd.tolist() == ed.tolist()
    np.testing.assert_array_equal(ws, es)
    df_hot = ctx.df.get(("text", hot), 0)
    assert df_hot > r.doc_count // 4
    assert wand_decoded < df_hot // 2, (
        f"decoded {wand_decoded} values; full eval would decode ~{2 * df_hot}"
    )


# ---------------------------------------------------------------------------
# dictionary expansions through WAND (VERDICT r03 #6)
# ---------------------------------------------------------------------------

EXPANSION_QUERIES = [
    "deploy*",          # prefix family
    "d*",               # prefix including the hot 'data'
    "[da TO dz]",       # range spanning hot + rare terms
    "[aa TO dz]",       # the VERDICT's wide-range shape
    "c?tch",            # wildcard
    "/jump.*/",         # regex
    "cat~1",            # fuzzy
    "(deploy*)^2.5",    # boosted expansion (scale applied after merge)
    "role:a*",          # field-routed expansion
    "[* TO catch]",     # open lower bound
]


@pytest.mark.parametrize("qs", EXPANSION_QUERIES, ids=repr)
@pytest.mark.parametrize("k", [3, 10, 50])
def test_expansion_wand_identical_to_eval(built, qs, k):
    """WAND over the expanded term set == plain boolean-rewrite union,
    ranks AND scores, per segment."""
    engine = SearchEngine(built, parallel=False)
    q, reqs, ctx = engine.plan(qs)
    ps = wand_parts(q, ctx)
    if ps is None:
        n_terms = sum(len(v) for v in ctx.expanded.values())
        assert n_terms < 2, f"{qs!r} expanded to {n_terms} terms but wasn't eligible"
        pytest.skip(f"{qs!r} expands to <2 terms on this corpus")
    args, scale = ps
    assert args["m"] == 1
    scorer = engine._scorers()[0]
    for r in scorer.readers:
        if r.doc_count == 0:
            continue
        wd, ws = wand_top_k(r, ctx, k=k, **args)
        fresh = SegmentEval(r, ctx, collect_term_requests(q), query=q)
        ed, es = fresh.eval(q)
        ed, es = top_k(ed, es, k)
        assert wd.tolist() == ed.tolist(), f"{qs!r} k={k}: rank mismatch"
        for w in reversed(scale):
            ws = ws * w
        np.testing.assert_array_equal(ws, es)


def _toggle_identical(index_dir, queries, monkeypatch):
    """Every query answers bit-identically with the routing table and with
    an empty one (which pins the plain evaluator)."""
    baseline = {}
    with monkeypatch.context() as m:
        m.setattr(engine_mod, "TOP_K_ROUTES", ())
        engine = SearchEngine(index_dir, parallel=False)
        for qs in queries:
            t = engine.search(qs, k=10, with_meta=False)
            baseline[qs] = (t["doc_id"].to_pylist(), t["score"].to_pylist())
    engine2 = SearchEngine(index_dir, parallel=False)
    for qs in queries:
        t = engine2.search(qs, k=10, with_meta=False)
        assert t["doc_id"].to_pylist() == baseline[qs][0], qs
        assert t["score"].to_pylist() == baseline[qs][1], qs


def test_expansion_wand_engine_toggle_identical(built, tombstoned, monkeypatch):
    """An empty routing table pins the plain evaluator; answers must be
    bit-identical, on the index and on a copy with deletes in every
    segment."""
    for index_dir in (built, tombstoned(built)[0]):
        _toggle_identical(index_dir, EXPANSION_QUERIES, monkeypatch)


def test_expansion_wand_parts_shapes(built):
    engine = SearchEngine(built, parallel=False)
    q, _reqs, ctx = engine.plan("deploy*")
    ps = wand_parts(q, ctx)
    assert ps is not None and ps[1] == () and ps[0]["m"] == 1
    assert all(b == 1.0 for _f, _t, b in ps[0]["parts"])
    # parts must follow ctx.expanded tuple order (eval's accumulation order)
    spec = next(iter(ctx.expanded))
    assert tuple(t for _f, t, _b in ps[0]["parts"]) == ctx.expanded[spec]
    q2, _r2, ctx2 = engine.plan("(deploy*)^3")
    assert wand_parts(q2, ctx2)[1] == (3.0,)
    q3, _r3, ctx3 = engine.plan("role:a*")
    ps3 = wand_parts(q3, ctx3)
    if ps3 is not None:
        assert all(f == "role" for f, _t, _b in ps3[0]["parts"])
    # an Or is claimed as the Or it is, not as an expansion
    q4, _r4, ctx4 = engine.plan("data OR query")
    assert wand_parts(q4, ctx4)[0]["parts"] == [
        ("text", "data", 1.0), ("text", "query", 1.0),
    ]
    q5, _r5, ctx5 = engine.plan("xylophone42 AND data")
    assert wand_parts(q5, ctx5) is None


def test_expansion_wand_skips_hot_term_decode(built, monkeypatch):
    """[da TO dz] includes the hot 'data': after the rare expanded terms
    bootstrap theta, the hot term's low-idf blocks must be pruned, never
    fully decoded."""
    from lucille_ray.index import codec

    engine = SearchEngine(built, parallel=False)
    scorer = engine._scorers()[0]
    r = max(scorer.readers, key=lambda rr: rr.doc_count)
    q, reqs, ctx = engine.plan("[da TO dz]")
    args, scale = wand_parts(q, ctx)
    assert ("text", "data") in {(f, t) for f, t, _b in args["parts"]}

    decoded_vals = {"n": 0}
    real = codec.decode_varints

    def counting(buf):
        out = real(buf)
        decoded_vals["n"] += out.size
        return out

    for f in ("text", "role", "tool"):
        r.norms(f)
    monkeypatch.setattr("lucille_ray.index.codec.decode_varints", counting)
    r.cache = ReaderCache()
    wd, ws = wand_top_k(r, ctx, k=3, **args)
    wand_decoded = decoded_vals["n"]
    # identity (exactness is never traded for the skip) — measured with the
    # same counter on a cache-cleared reader, giving the full-eval baseline
    decoded_vals["n"] = 0
    r.cache = ReaderCache()
    ev = SegmentEval(r, ctx, collect_term_requests(q), query=q)
    ed, es = top_k(*ev.eval(q), 3)
    full_decoded = decoded_vals["n"]
    assert wd.tolist() == ed.tolist()
    np.testing.assert_array_equal(ws, es)
    df_hot = ctx.df.get(("text", "data"), 0)
    assert df_hot > r.doc_count // 4  # premise: 'data' really is hot
    # the hot term dominates full-eval decode volume; WAND must decode only
    # the few of its blocks that overlap surviving candidate intervals
    assert wand_decoded < full_decoded - df_hot // 2, (
        f"WAND decoded {wand_decoded} values vs full eval {full_decoded}; "
        f"the hot term alone is ~{2 * df_hot}"
    )


# ---- single-term block-max top-k (wand.single_term_top_k) ----

TERM_QUERIES = [
    "data",
    "query",
    "the",
    "xylophone42",
    "data^2",
    "(data)^0.5",
    "role:assistant",
    "role:(user)^3",
    "((data^2))^1.5",
]


@pytest.mark.parametrize("qs", TERM_QUERIES, ids=repr)
@pytest.mark.parametrize("k", [1, 10, 100])
def test_single_term_identical_to_eval(built, qs, k):
    """single_term_top_k == plain SegmentEval top-k, ranks AND scores, per
    segment, with Boost weights applied innermost-first like eval."""
    from lucille_ray.search.wand import single_term_top_k, term_parts

    engine = SearchEngine(built, parallel=False)
    q, reqs, ctx = engine.plan(qs)
    tp = term_parts(q, ctx)
    assert tp is not None, f"{qs!r} should be single-term eligible"
    args, weights = tp
    scorer = engine._scorers()[0]
    for r in scorer.readers:
        if r.doc_count == 0:
            continue
        td, ts = single_term_top_k(r, ctx, k=k, **args)
        for w in reversed(weights):
            ts = ts * w
        fresh = SegmentEval(r, ctx, collect_term_requests(q), query=q)
        ed, es = top_k(*fresh.eval(q), k)
        assert td.tolist() == ed.tolist(), f"{qs!r} k={k}: rank mismatch"
        np.testing.assert_array_equal(ts, es)


def test_single_term_engine_toggle_identical(built, tombstoned, monkeypatch):
    """An empty routing table pins the plain evaluator; answers must be
    bit-identical, on the index and on a copy with deletes in every
    segment."""
    for index_dir in (built, tombstoned(built)[0]):
        _toggle_identical(index_dir, TERM_QUERIES, monkeypatch)


def test_single_term_parts_shapes(built):
    from lucille_ray.query import parse
    from lucille_ray.search.wand import term_parts

    engine = SearchEngine(built, parallel=False)
    _q, _r, ctx = engine.plan("data")
    data = {"field": "text", "term": "data"}
    assert term_parts(parse("data"), ctx) == (data, ())
    assert term_parts(parse("data^2"), ctx) == (data, (2.0,))
    args, w = term_parts(parse("((data^2))^1.5"), ctx)
    assert args == data and w == (1.5, 2.0)
    # ctx must carry the query's own resolved df (plan does this)
    _q2, _r2, ctx_role = engine.plan("role:assistant")
    assert term_parts(parse("role:assistant"), ctx_role) == (
        {"field": "role", "term": "assistant"}, ()
    )
    from lucille_ray.query import nodes as qn

    # negative/zero total boost flips or collapses the order: fall back
    assert term_parts(qn.Boost(qn.Term("data"), -1.0), ctx) is None
    assert term_parts(qn.Boost(qn.Term("data"), 0.0), ctx) is None
    assert term_parts(parse("a.b"), ctx) is None  # analyzer splits: phrase shape
    assert term_parts(parse("data OR query"), ctx) is None
    assert term_parts(parse("+data"), ctx) is None  # UnaryPlus stays on eval


def test_single_term_skips_decodes_and_caches(built, block_decodes):
    """A hot term's repeat query is answered from the scorer's ``result``
    pool (zero block decodes), and any smaller k is served from the same
    entry; the executor itself keeps no answer, so calling it again
    decodes again."""
    from lucille_ray.search.wand import single_term_top_k

    engine = SearchEngine(built, parallel=False)
    q, reqs, ctx = engine.plan("data")
    scorer = engine._scorers()[0]
    for r in scorer.readers:
        r.cache = ReaderCache()
    d1, s1 = scorer.score(q, reqs, ctx, 10)
    assert d1.size == 10

    block_decodes.clear()
    d2, s2 = scorer.score(q, reqs, ctx, 10)
    assert block_decodes == [], "warm repeat must not decode"
    assert d2.tolist() == d1.tolist()
    np.testing.assert_array_equal(s2, s1)
    d3, s3 = scorer.score(q, reqs, ctx, 3)
    assert block_decodes == []
    assert d3.tolist() == d1.tolist()[:3]

    r = max(scorer.readers, key=lambda rr: rr.doc_count)
    single_term_top_k(r, ctx, "text", "data", 10)
    assert block_decodes, "the executor keeps no answer of its own"


def test_result_cache_identical_and_prefix(built, monkeypatch):
    """Engine answers with the per-reader result cache must be bit-identical
    to cache-off answers, repeats must not re-score, and a smaller k must be
    served as a prefix of the cached entry."""
    from lucille_ray.search import engine as E

    off = SearchEngine(built, parallel=False, result_cache=False)
    on = SearchEngine(built, parallel=False, result_cache=True)
    queries = ["data", "data OR query", "data AND query", '"data query"~2',
               "dat*", "role:assistant AND (data OR query)^1.5"]
    for qs in queries:
        a = off.search(qs, k=10, with_meta=False)
        b = on.search(qs, k=10, with_meta=False)
        assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist(), qs
        assert a["score"].to_pylist() == b["score"].to_pylist(), qs
        # repeat + smaller k stay identical through the cache
        b2 = on.search(qs, k=10, with_meta=False)
        assert b2["doc_id"].to_pylist() == b["doc_id"].to_pylist(), qs
        a3 = off.search(qs, k=3, with_meta=False)
        b3 = on.search(qs, k=3, with_meta=False)
        assert a3["doc_id"].to_pylist() == b3["doc_id"].to_pylist(), qs
        assert a3["score"].to_pylist() == b3["score"].to_pylist(), qs

    # repeat of a cached query must not call any scoring path at all
    scorer = on._scorers()[0]
    called = {"n": 0}
    real = E.SegmentEval.eval

    def counting(self, q):
        called["n"] += 1
        return real(self, q)

    monkeypatch.setattr(E.SegmentEval, "eval", counting)
    monkeypatch.setattr(
        "lucille_ray.search.wand.wand_top_k",
        lambda *a, **kw: (_ for _ in ()).throw(AssertionError("scored")),
    )
    t = on.search("data OR query", k=10, with_meta=False)
    assert t.num_rows > 0 and called["n"] == 0

    # a LARGER k than any cached entry recomputes (cannot be a prefix)
    monkeypatch.undo()  # let the real scoring paths run again
    t2 = on.search("data OR query", k=50, with_meta=False)
    a2 = off.search("data OR query", k=50, with_meta=False)
    assert t2["doc_id"].to_pylist() == a2["doc_id"].to_pylist()


@pytest.fixture(scope="module")
def skewed_union(ray_session, tmp_path_factory):
    """One rare high-impact term + five hot low-impact terms: the suffix-bound
    merge's early cut is guaranteed (after the rare term the remaining hot
    terms' summed max-score bound falls below the rare term's k-th score)."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    n = 4000
    rng = np.random.default_rng(20260819)
    fillers = ["alpha", "beta", "gamma", "delta"]
    texts = []
    for i in range(n):
        words = ["hoti%d" % j for j in range(5)]  # every hot term in every doc
        words += [fillers[i % 4]] * int(rng.integers(1, 4))
        if i % 200 == 0:
            words += ["rarex"] * 5  # 20 docs, tf 5: high idf, high bound
        texts.append(" ".join(words))
    t = pa.table(
        {
            "conv_id": pa.array([f"c{i // 8:06d}" for i in range(n)]),
            "turn_idx": pa.array([i % 8 for i in range(n)], pa.int32()),
            "role": pa.array(["user"] * n),
            "text": pa.array(texts),
            "tool": pa.array(["none"] * n),
            "ts": pa.array(
                [1_700_000_000_000_000 + i for i in range(n)], pa.timestamp("us")
            ),
        }
    )
    root = str(tmp_path_factory.mktemp("sufmerge"))
    data = os.path.join(root, "d.parquet")
    pq.write_table(t, data)
    idx = os.path.join(root, "idx")
    build_index(ray.data.read_parquet(data), idx, num_segments=1, batch_size=800)
    return idx


def test_suffix_merge_early_cut_identity(skewed_union, monkeypatch):
    """Engine-level: the wide skewed union answers bit-identically to the
    plain evaluator whichever internal merge strategy ran (VERDICT r04 #6)."""
    engine = SearchEngine(skewed_union, parallel=False, result_cache=False)
    for qs in (
        "rarex OR hoti0 OR hoti1 OR hoti2 OR hoti3 OR hoti4",
        "hoti0 OR hoti1 OR hoti2 OR hoti3 OR hoti4",
    ):
        for k in (1, 10, 37):
            a = engine.search(qs, k=k, with_meta=False)
            q, reqs, ctx = engine.plan(qs)
            r = engine._scorers()[0].readers[0]
            ed, es = top_k(
                *SegmentEval(r, ctx, collect_term_requests(q), query=q).eval(q), k
            )
            assert a["doc_id"].to_pylist() == ed.tolist(), (qs, k)
            np.testing.assert_array_equal(a["score"].to_numpy(), es)


def _classic_clause_order_merge(live, k, lo, span):
    """Reference: the classic dense clause-order merge, inlined."""
    sums = np.zeros(span)
    for d, s in live:
        sums[d - lo] += s
    cand = np.flatnonzero(sums)
    return top_k(cand + lo, sums[cand], k)


def test_suffix_merge_unit_early_cut_and_terminal():
    """Unit-level: _suffix_merge takes the early cut on a rare-anchor + hot-
    tail union and the terminal rem=0 path on a flat union; both return the
    classic clause-order merge's answer bit-for-bit (scores, ranks, ties)."""
    import lucille_ray.search.wand as W

    rng = np.random.default_rng(7)
    span, lo = 50_000, 100
    # part 0 (clause order): rare, high scores; parts 1..7: hot, low scores
    live = []
    rare_docs = np.sort(rng.choice(span, 40, replace=False)) + lo
    live.append((rare_docs.astype(np.int64), rng.uniform(8.0, 12.0, 40)))
    for _ in range(7):
        docs = np.sort(rng.choice(span, 30_000, replace=False)) + lo
        live.append((docs.astype(np.int64), rng.uniform(0.05, 0.2, docs.size)))
    for k in (1, 10, 200):
        got = W._suffix_merge(live, k, lo, span)
        assert got is not None
        if k <= 30:  # top-200 legitimately needs the hot tail: no early cut
            assert W.SUFFIX_MERGE_LAST["early"], "rare-anchor union must cut early"
        ref = _classic_clause_order_merge(live, k, lo, span)
        assert got[0].tolist() == ref[0].tolist(), k
        np.testing.assert_array_equal(got[1], ref[1])

    flat = live[1:]  # hot-only: bound never crosses -> terminal rem=0 path
    got = W._suffix_merge(flat, 10, lo, span)
    assert got is not None
    assert not W.SUFFIX_MERGE_LAST["early"]
    ref = _classic_clause_order_merge(flat, 10, lo, span)
    assert got[0].tolist() == ref[0].tolist()
    np.testing.assert_array_equal(got[1], ref[1])

    # explicit part_ubs (the wand_top_k block-max path) must agree too
    ubs = [float(s.max()) * 1.05 for _d, s in live]  # loose bounds stay valid
    got = W._suffix_merge(live, 10, lo, span, ubs)
    ref = _classic_clause_order_merge(live, 10, lo, span)
    assert got is not None and got[0].tolist() == ref[0].tolist()
    np.testing.assert_array_equal(got[1], ref[1])


def test_merge_top_k_negative_part_matches_classic_merge():
    """A negative-score part breaks the suffix merge's lower-bound argument
    (a partial sum is no longer a lower bound): _suffix_merge must decline
    and _merge_top_k answer through the classic clause-order merge. The
    negative part lands on the rare high scorers, so a suffix cut taken
    after the rare part would keep only them — or nothing."""
    import lucille_ray.search.wand as W

    rng = np.random.default_rng(11)
    span, lo = 20_000, 0
    rare = np.sort(rng.choice(span, 40, replace=False)).astype(np.int64)
    parts = [(rare, rng.uniform(8.0, 12.0, rare.size))]
    for _ in range(W.SUFFIX_MERGE_MIN_PARTS):
        docs = np.sort(rng.choice(span, 12_000, replace=False)).astype(np.int64)
        parts.append((docs, rng.uniform(0.05, 0.2, docs.size)))
    parts.append((rare, np.full(rare.size, -30.0)))  # sinks every rare doc
    results = dict(enumerate(parts))
    ubs = {i: float(s.max()) for i, (_d, s) in results.items()}
    matched = np.unique(np.concatenate([d for d, _s in parts])).size
    # the last k reaches into the negative docs: the k-th largest sum is
    # then negative and must not admit the zero (unmatched) slots
    for k in (1, 10, 100, matched - 20):
        assert W._suffix_merge(parts, k, lo, span, list(ubs.values())) is None
        ref = _classic_clause_order_merge(parts, k, lo, span)
        for got in (W._merge_top_k(results, k), W._merge_top_k(results, k, ubs=ubs)):
            assert got[0].tolist() == ref[0].tolist(), k
            np.testing.assert_array_equal(got[1], ref[1])
    top100 = _classic_clause_order_merge(parts, 100, lo, span)[0]
    assert not set(top100.tolist()) & set(rare.tolist())  # the premise


def test_single_term_expansion_routes_and_matches(built, monkeypatch):
    """An expansion resolving to exactly ONE index term routes through the
    single-term block-max path (term_parts) — the disjunction matcher
    declines it (< 2 parts), and the plain evaluator would pay a full
    decode + union. Answers must stay bit-identical to the pinned plain
    evaluator for every expansion kind, including outer boosts (weights
    applied in eval's innermost-first order)."""
    from lucille_ray.search.wand import term_parts

    QS = [
        "xylophone4*",
        "x?lophone42",
        "/xylophone4[2]/",
        "[xylophone42 TO xylophone42]",
        "(xylophone4*)^2.5",
    ]
    engine = SearchEngine(built, parallel=False, result_cache=False)
    routed = []
    for qs in QS:
        q, _reqs, ctx = engine.plan(qs)
        n_terms = sum(len(v) for v in ctx.expanded.values())
        if n_terms != 1:
            continue  # corpus-dependent; the identity check below still runs
        pt = term_parts(q, ctx)
        assert pt is not None, qs
        assert pt[0] == {"field": "text", "term": "xylophone42"}, qs
        routed.append(qs)
    assert routed, "no query expanded to exactly one term on this corpus"
    assert term_parts(*engine.plan("deploy*")[::2]) is None  # multi-term

    monkeypatch.setattr(engine_mod, "TOP_K_ROUTES", ())
    plain = SearchEngine(built, parallel=False, result_cache=False)
    base = {qs: plain.search(qs, k=10, with_meta=False) for qs in QS}
    monkeypatch.undo()
    fast = SearchEngine(built, parallel=False, result_cache=False)
    for qs in QS:
        assert fast.search(qs, k=10, with_meta=False).equals(base[qs]), qs
