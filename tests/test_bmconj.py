"""Block-max conjunction: rank+score identity with the plain evaluator, and
proof that θ-pruning actually skips anchor-block decodes."""

import os

import numpy as np
import pyarrow as pa
import pytest

from lucille_ray import transcripts as T
from lucille_ray.index.build import build_index
from lucille_ray.index.segment import ReaderCache
from lucille_ray.query.parser import parse
import lucille_ray.search.engine as engine_mod
from lucille_ray.search.bmconj import conj_parts_compound, conj_top_k_compound
from lucille_ray.search.engine import SearchEngine
from lucille_ray.search.eval import SegmentEval, collect_term_requests, top_k

AND_QUERIES = [
    "data AND query",
    "the AND data",  # hot AND hot
    "the AND data AND query",
    "data^2 AND query^0.5",
    "(data AND query)^1.5",
    "role:assistant AND role:user",  # disjoint postings: empty
    "xylophone42 AND data",  # rare AND hot
    "data AND nosuchterm",  # absent term: empty
    "the AND a AND data AND query",
    "(the AND data)^0.25",
    "the AND data AND NOT query",  # hot AND hot minus hot
    "data AND the AND -xylophone42",
    "data AND query AND NOT nosuchterm",
    "data AND query AND NOT role:user",
    "(data AND the AND NOT query)^2",
]


@pytest.fixture(scope="module")
def built(ray_session, tmp_path_factory):
    root = str(tmp_path_factory.mktemp("bmconj"))
    data_dir = os.path.join(root, "data")
    index_dir = os.path.join(root, "index")
    T.generate(5000, data_dir, num_files=2)
    build_index(T.read_transcripts(data_dir), index_dir, num_segments=2, batch_size=1000)
    return index_dir


def _one(term, boost=1.0, field="text"):
    """A single-term clause as conj_parts_compound returns it."""
    return (((field, term, boost),), ())


def test_conj_parts_shapes():
    assert conj_parts_compound(parse("a AND b")) is not None
    assert conj_parts_compound(parse("(a AND b)^2")) == (
        {"clauses": (_one("a"), _one("b")), "negs": ()}, (2.0,),
    )
    got = conj_parts_compound(parse("role:(a AND b)"))
    assert got[0]["clauses"][0] == _one("a", field="role")
    assert conj_parts_compound(parse("a AND b^3"))[0]["clauses"][1] == _one("b", 3.0)
    assert conj_parts_compound(parse("a OR b")) is None
    assert conj_parts_compound(parse('a AND "b c"')) is None  # phrase clause
    # 1 positive: no intersection to prune
    assert conj_parts_compound(parse("a AND -b")) is None
    assert conj_parts_compound(parse("a AND b AND -c")) == (
        {"clauses": (_one("a"), _one("b")), "negs": (("text", "c"),)}, (),
    )  # negated simple terms are handled by candidate exclusion
    assert conj_parts_compound(parse("a AND b AND NOT c AND -c")) == (
        {"clauses": (_one("a"), _one("b")), "negs": (("text", "c"),)}, (),
    )  # duplicate negatives dedupe
    assert conj_parts_compound(parse("-a AND -b")) is None  # pure negative: eval's EMPTY
    assert conj_parts_compound(parse('a AND NOT "b c"')) is None  # non-simple negative
    assert conj_parts_compound(parse("a AND +b")) is None  # UnaryPlus changes float order
    assert conj_parts_compound(parse("a AND a")) is None  # duplicate clause
    assert conj_parts_compound(parse("a AND b.c")) is None  # multi-token term
    assert conj_parts_compound(parse("a")) is None  # single term: plain path
    # non-positive boosts flip the bound direction (not parseable; direct node)
    from lucille_ray.query import nodes as qn

    neg = qn.And((qn.Term("a"), qn.Boost(qn.Term("b"), -2.0)))
    assert conj_parts_compound(neg) is None
    # NESTED clause boosts fall back: eval multiplies sequentially while the
    # block-max paths apply the clause boost once — (s*b1)*b2 != s*(b1*b2)
    assert conj_parts_compound(parse("a AND ((b^2))^3")) is None


@pytest.mark.parametrize("qs", AND_QUERIES, ids=repr)
@pytest.mark.parametrize("k", [3, 10, 50])
def test_conj_identical_to_eval(built, qs, k):
    """conj top-k == plain SegmentEval top-k, ranks AND scores, per segment."""
    engine = SearchEngine(built, parallel=False)
    q, reqs, ctx = engine.plan(qs)
    ps = conj_parts_compound(q)
    assert ps is not None, f"{qs!r} should be conjunction-eligible"
    args, scale = ps
    scorer = engine._scorers()[0]
    for r in scorer.readers:
        if r.doc_count == 0:
            continue
        cd, cs = conj_top_k_compound(r, ctx, k=k, **args)
        fresh = SegmentEval(r, ctx, collect_term_requests(q), query=q)
        ed, es = top_k(*fresh.eval(q), k)
        assert cd.tolist() == ed.tolist(), f"{qs!r} k={k}: rank mismatch"
        # eval(q) already applies the root boost; weight the conj side only
        for w in reversed(scale):
            cs = cs * w
        np.testing.assert_array_equal(cs, es)


def test_conj_engine_end_to_end_matches_oracle(built, ray_session):
    import pyarrow.parquet as pq

    from lucille_ray.search.oracle import BruteForceOracle

    data_dir = os.path.join(os.path.dirname(built), "data")
    oracle = BruteForceOracle(pq.read_table(data_dir))
    engine = SearchEngine(built, parallel=False)
    for qs in AND_QUERIES:
        got = engine.search(qs, k=10, with_meta=False)
        exp = oracle.search(qs, k=10)
        gp = list(zip(got["doc_id"].to_pylist(), got["score"].to_pylist()))
        assert len(gp) == len(exp), qs
        for (gd, gscore), (ed, escore) in zip(gp, exp):
            assert gd == ed, f"{qs!r}: rank differs"
            assert abs(gscore - escore) < 1e-9, qs


def test_conj_random_queries_property(built, ray_session):
    """Randomized conj-vs-eval identity: arbitrary term mixes (hot/rare/absent),
    arbitrary boosts, arbitrary k — ranks and scores must match exactly."""
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
        idxs=st.lists(st.integers(0, len(pool) - 1), min_size=2, max_size=5, unique=True),
        boosts=st.lists(st.sampled_from([1.0, 0.5, 2.0, 3.75]), min_size=5, max_size=5),
        k=st.integers(1, 40),
    )
    def check(idxs, boosts, k):
        clauses = []
        for j, i in enumerate(idxs):
            b = boosts[j]
            clauses.append(pool[i] if b == 1.0 else f"{pool[i]}^{b}")
        qs = " AND ".join(clauses)
        q, reqs, ctx = engine.plan(qs)
        ps = conj_parts_compound(q)
        assert ps is not None
        args, scale = ps
        cd, cs = conj_top_k_compound(r, ctx, k=k, **args)
        ev = SegmentEval(r, ctx, collect_term_requests(q), query=q)
        ed, es = top_k(*ev.eval(q), k)
        assert cd.tolist() == ed.tolist(), qs
        np.testing.assert_array_equal(cs, es)

    check()


@pytest.fixture(scope="module")
def spiked(ray_session, tmp_path_factory):
    """A corpus where two hot terms co-occur in every doc with tf=1, except 30
    'spike' docs in one narrow docid region where both have tf=8 — the block(s)
    holding spikes carry the top conjunction bounds, so θ clears every tf=1
    block's bound after the first chunk and the rest is never decoded."""
    import ray

    root = str(tmp_path_factory.mktemp("bmconj_spike"))
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


def test_conj_actually_skips_decodes(spiked, tombstoned, monkeypatch):
    """hot-AND-hot with small k: θ from the spike blocks must prune the rest —
    the anchor term is never fully decoded, also on a copy with deletes (the
    block bounds still hold, so the same bound applies)."""
    from lucille_ray.index import codec

    decoded_vals = {"n": 0}
    real = codec.decode_varints

    def counting(buf):
        out = real(buf)
        decoded_vals["n"] += out.size
        return out

    for index_dir in (spiked, tombstoned(spiked)[0]):
        engine = SearchEngine(index_dir, parallel=False)
        scorer = engine._scorers()[0]
        r = max(scorer.readers, key=lambda rr: rr.doc_count)
        q, reqs, ctx = engine.plan("alpha AND beta")
        args, scale = conj_parts_compound(q)
        for f in ("text", "role", "tool"):
            r.norms(f)  # pre-warm: norms decode is not what this test measures
        decoded_vals["n"] = 0
        with monkeypatch.context() as m:
            m.setattr("lucille_ray.index.codec.decode_varints", counting)
            r.cache = ReaderCache()
            cd, cs = conj_top_k_compound(r, ctx, k=10, **args)
        conj_decoded = decoded_vals["n"]
        # identity against the plain evaluator on the same segment
        ev = SegmentEval(r, ctx, collect_term_requests(q), query=q)
        ed, es = top_k(*ev.eval(q), 10)
        assert cd.tolist() == ed.tolist()
        np.testing.assert_array_equal(cs, es)
        df = ctx.df.get(("text", "alpha"), 0)
        assert df == r.doc_count  # the premise: both terms are everywhere
        # the plain conjunctive path decodes >= 2*df values (anchor docs+tfs
        # alone); θ-pruning must touch far less
        assert conj_decoded < df // 2, (
            f"decoded {conj_decoded} values; plain eval decodes >= {2 * df}"
        )


def test_conj_after_delete_routes_and_matches(
    spiked, ray_session, tmp_path_factory, monkeypatch
):
    """A segment with tombstones takes the block-max conjunction like any
    other; its answer holds no deleted doc and equals the plain
    evaluator's, ranks and scores."""
    import shutil

    from lucille_ray.index import delete_conversations
    from lucille_ray.search import bmconj

    idx = os.path.join(str(tmp_path_factory.mktemp("bmconj_del")), "index")
    shutil.copytree(spiked, idx)
    engine0 = SearchEngine(idx, parallel=False)
    before = engine0.search("alpha AND beta", k=10, with_meta=True)
    victims = list(dict.fromkeys(before["conv_id"].to_pylist()))[:3]
    engine0.shutdown()
    assert delete_conversations(idx, victims) > 0

    calls = []

    def counted(*a, **kw):
        calls.append(1)
        return bmconj.conj_top_k_compound(*a, **kw)

    monkeypatch.setattr(engine_mod, "TOP_K_ROUTES", tuple(
        (m, counted if ex is bmconj.conj_top_k_compound else ex)
        for m, ex in engine_mod.TOP_K_ROUTES))
    engine = SearchEngine(idx, parallel=False, result_cache=False)
    assert all(r.deleted is not None for r in engine._scorers()[0].readers)
    got = engine.search("alpha AND beta", k=10, with_meta=True)
    assert calls == [1]
    assert got.num_rows == 10
    assert not set(got["conv_id"].to_pylist()) & set(victims)
    monkeypatch.setattr(engine_mod, "TOP_K_ROUTES", ())
    assert engine.search("alpha AND beta", k=10, with_meta=True).equals(got)


def test_lr_bmconj_toggle_identical(built, tombstoned, ray_session, monkeypatch):
    """An empty routing table pins eligible conjunctions to the plain
    evaluator; answers (ranks AND scores) must be identical either way
    through the full engine, on the index and on a copy with deletes in
    every segment.

    result_cache=False is load-bearing: with the default per-reader result
    cache ON, the second (toggled-off) pass would be served from the cache and
    the plain evaluator would never run — a vacuous A/B (ADVICE r04)."""
    for index_dir in (built, tombstoned(built)[0]):
        engine = SearchEngine(index_dir, parallel=False, result_cache=False)
        on = {}
        for qs in AND_QUERIES:
            t = engine.search(qs, k=10, with_meta=False)
            on[qs] = (t["doc_id"].to_pylist(), t["score"].to_pylist())
        with monkeypatch.context() as m:
            m.setattr(engine_mod, "TOP_K_ROUTES", ())
            for qs in AND_QUERIES:
                t = engine.search(qs, k=10, with_meta=False)
                assert t["doc_id"].to_pylist() == on[qs][0], qs
                np.testing.assert_array_equal(t["score"].to_pylist(), on[qs][1])


def test_conj_randomized_full_engine_soak(built, ray_session, monkeypatch):
    """150 random conjunction shapes (hot/mid/rare/absent terms, clause boosts,
    Group/Boost/Field wrappers, random k) through the FULL engine with the
    block-max path toggled per call — ranks and scores must match bit-exactly.
    result_cache=False so the toggled-off arm really evaluates (ADVICE r04)."""
    import random

    engine = SearchEngine(built, parallel=False, result_cache=False)
    routes = engine_mod.TOP_K_ROUTES
    scorer = engine._scorers()[0]
    r = max(scorer.readers, key=lambda rr: rr.doc_count)
    terms, dfs = r.term_dict("text")
    order = np.argsort(-dfs)
    pool = (
        [str(terms[i]) for i in order[:10]]
        + [str(terms[i]) for i in order[len(order) // 2 : len(order) // 2 + 15]]
        + [str(terms[i]) for i in order[-15:]]
        + ["zzznope", "qqqmissing"]
    )
    rng = random.Random(20260818)
    for _ in range(150):
        ts = rng.sample(pool, rng.randint(2, 5))
        clauses = [
            t if (b := rng.choice([None, None, 0.5, 2.0, 3.75])) is None else f"{t}^{b}"
            for t in ts
        ]
        # negate a random tail subset, keeping at least two positive clauses
        # (fewer falls back to the plain path by design)
        for i in range(2, len(clauses)):
            if rng.random() < 0.25:
                clauses[i] = rng.choice(["NOT ", "-"]) + ts[i]
        qs = " AND ".join(clauses)
        wrap = rng.choice(["plain", "group", "boost", "field"])
        if wrap == "group":
            qs = f"({qs})"
        elif wrap == "boost":
            qs = f"({qs})^{rng.choice([0.5, 1.5, 2.0])}"
        elif wrap == "field":
            qs = f"text:({qs})"
        k = rng.randint(1, 50)
        monkeypatch.setattr(engine_mod, "TOP_K_ROUTES", routes)
        a = engine.search(qs, k=k, with_meta=False)
        monkeypatch.setattr(engine_mod, "TOP_K_ROUTES", ())
        b = engine.search(qs, k=k, with_meta=False)
        assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist(), (qs, k)
        assert a["score"].to_pylist() == b["score"].to_pylist(), (qs, k)


@pytest.fixture(scope="module")
def flat_conj(ray_session, tmp_path_factory):
    """Uniform corpus: both words once per doc, identical doc lengths — every
    anchor block's conjunction bound equals the shared max, so theta never
    prunes and the pass is complete."""
    import ray

    root = str(tmp_path_factory.mktemp("bmconj_flat"))
    index_dir = os.path.join(root, "index")
    n = 4000
    tab = pa.table(
        {
            "conv_id": pa.array([f"c{i // 5:05d}" for i in range(n)], pa.string()),
            "turn_idx": pa.array([i % 5 for i in range(n)], pa.int32()),
            "role": pa.array(["user"] * n, pa.string()),
            "text": pa.array(
                [f"data query w{i % 7} filler pad" for i in range(n)], pa.string()
            ),
            "tool": pa.array([""] * n, pa.string()),
            "ts": pa.array(
                [1_700_000_000_000_000 + i for i in range(n)], pa.timestamp("us")
            ),
        }
    )
    build_index(ray.data.from_arrow(tab), index_dir, num_segments=1, batch_size=1000)
    return index_dir


def test_conj_complete_pass_cached(flat_conj, block_decodes):
    """A flat-bound (hot x hot) conjunction takes every block in one round:
    a complete pass, exact vs the plain evaluator. Its answer is kept only
    in the scorer's ``result`` pool (as bmphrase's is): warm repeats at the
    same or a smaller k decode nothing and stay bit-identical."""
    engine = SearchEngine(flat_conj, parallel=False)
    q, reqs, ctx = engine.plan("data AND query")
    args, _scale = conj_parts_compound(q)
    scorer = engine._scorers()[0]
    (r,) = [rr for rr in scorer.readers if rr.doc_count]
    r.cache = ReaderCache()
    raw = r.raw_blocks_many("text", ["data", "query"])
    block_decodes.clear()
    d1, s1 = conj_top_k_compound(r, ctx, k=10, **args)
    for term, rb in raw.items():
        decoded = sum(n for got, n, _pos in block_decodes if got is rb)
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


COMPOUND_QUERIES = [
    "(deploy OR data)^2 AND query",
    "(deploy OR data) AND query",
    "(the OR data) AND query",  # hot-union AND hot
    "(deploy OR data OR join) AND query AND hash",
    "(deploy OR nosuchterm) AND data",
    "(nosucha OR nosuchb) AND data",  # clause matches nothing: empty
    "(deploy OR data)^2 AND query AND NOT join",
    "(deploy^3 OR data) AND query",
    "((deploy OR data))^0.5 AND role:assistant",
    "(deploy OR data) AND (jump OR test) AND query",
    "query AND (deploy OR data)",
    "tool:(bash OR python) AND data",
]


def test_conj_parts_compound_shapes():
    got = conj_parts_compound(parse("(deploy OR data)^2 AND query"))
    assert got is not None
    args, weights = got
    clauses, negs = args["clauses"], args["negs"]
    assert negs == () and weights == ()
    assert clauses[0] == (
        (("text", "deploy", 1.0), ("text", "data", 1.0)), (2.0,)
    )
    assert clauses[1] == ((("text", "query", 1.0),), ())
    # member boosts fold; clause Boost stays a cweight
    got = conj_parts_compound(parse("(deploy^3 OR data) AND query"))
    assert got[0]["clauses"][0][0][0] == ("text", "deploy", 3.0)
    # an all-simple conjunction is a compound one with one-term clauses
    assert conj_parts_compound(parse("a AND b")) == (
        {"clauses": (_one("a"), _one("b")), "negs": ()}, (),
    )
    # no single-term clause to anchor on
    assert conj_parts_compound(parse("(a OR b) AND (c OR d)")) is None
    # duplicate term across clauses / inside a clause falls back
    assert conj_parts_compound(parse("(a OR b) AND a")) is None
    assert conj_parts_compound(parse("(a OR a) AND b")) is None
    # non-simple member / nested member boost falls back
    assert conj_parts_compound(parse('("a b" OR c) AND d')) is None
    assert conj_parts_compound(parse("((a^2)^3 OR b) AND c")) is None
    # UnaryPlus changes eval's accumulation order
    assert conj_parts_compound(parse("(a OR b) AND +c")) is None
    # non-positive boosts flip bound direction (not parseable; build the AST)
    from lucille_ray.query import nodes as qn

    neg = qn.And((qn.Boost(qn.Or((qn.Term("a"), qn.Term("b"))), -2.0), qn.Term("c")))
    assert conj_parts_compound(neg) is None


@pytest.mark.parametrize("qs", COMPOUND_QUERIES, ids=repr)
@pytest.mark.parametrize("k", [3, 10, 50])
def test_compound_conj_identical_to_eval(built, qs, k):
    """Compound-clause conj_top_k_compound == plain SegmentEval, ranks AND
    scores."""
    engine = SearchEngine(built, parallel=False, result_cache=False)
    q, reqs, ctx = engine.plan(qs)
    got = conj_parts_compound(q)
    assert got is not None, f"{qs!r} should be compound-eligible"
    args, weights = got
    scorer = engine._scorers()[0]
    for r in scorer.readers:
        if r.doc_count == 0:
            continue
        res = conj_top_k_compound(r, ctx, k=k, **args)
        assert res is not None  # parse guarantees a single-term anchor clause
        cd, cs = res
        for w in reversed(weights):
            cs = cs * w
        fresh = SegmentEval(r, ctx, collect_term_requests(q), query=q)
        ed, es = fresh.eval(q)
        ed, es = top_k(ed, es, k)
        assert cd.tolist() == ed.tolist(), f"{qs!r} k={k}: rank mismatch"
        np.testing.assert_array_equal(cs, es)


def test_compound_conj_engine_toggle_identical(built, tombstoned, monkeypatch):
    """An empty routing table pins the plain evaluator; answers must be
    bit-identical, on the index and on a copy with deletes in every
    segment."""
    for index_dir in (built, tombstoned(built)[0]):
        with monkeypatch.context() as m:
            m.setattr(engine_mod, "TOP_K_ROUTES", ())
            plain = SearchEngine(index_dir, parallel=False, result_cache=False)
            base = {qs: plain.search(qs, k=10, with_meta=False)
                    for qs in COMPOUND_QUERIES}
        fast = SearchEngine(index_dir, parallel=False, result_cache=False)
        for qs in COMPOUND_QUERIES:
            assert fast.search(qs, k=10, with_meta=False).equals(base[qs]), qs
