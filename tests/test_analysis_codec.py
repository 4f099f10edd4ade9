"""Analyzer equivalence (scalar vs Arrow-vectorized) and posting codec round trips."""

import hashlib

import numpy as np
import pyarrow as pa
import pytest

from lucille_ray.analysis import arrow_tokenize, tokenize
from lucille_ray.index.codec import (
    decode_postings,
    decode_varints,
    delta_decode,
    delta_encode,
    encode_postings,
    encode_varints,
    int64_column,
)

TEXTS = [
    "The cat jumped over the lazy dog",
    "  leading and trailing  ",
    "",
    "punct: first.last@email.com / cats-effect!",
    "UPPER lower MiXeD 123abc 456",
    "unicode héllo wörld 🦖",
    None,
    "a",
    "...",
]


def test_tokenize_basic():
    assert tokenize("The cat jumped") == ["the", "cat", "jumped"]
    assert tokenize("first.last@email.com") == ["first", "last", "email", "com"]
    assert tokenize("") == []
    assert tokenize("...") == []


def test_arrow_tokenize_matches_scalar():
    arr = pa.array(TEXTS, pa.string())
    result = arrow_tokenize(arr).to_pylist()
    for text, toks in zip(TEXTS, result):
        assert toks == tokenize(text or "")


def test_varint_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(20):
        vals = rng.integers(0, 1 << 40, int(rng.integers(1, 400)))
        assert (decode_varints(encode_varints(vals)) == vals).all()
    assert decode_varints(b"").size == 0
    assert decode_varints(encode_varints(np.array([0]))).tolist() == [0]


def test_delta_round_trip_with_segments():
    rng = np.random.default_rng(11)
    vals = np.sort(rng.integers(0, 1000, 50))
    starts = np.array([0, 10, 11, 40])
    lengths = np.diff(np.concatenate([starts, [50]]))
    enc = delta_encode(vals.copy(), starts)
    assert (delta_decode(enc, starts, lengths) == vals).all()


@pytest.mark.parametrize("n", [1, 127, 128, 129, 1000])
def test_postings_round_trip(n):
    rng = np.random.default_rng(n)
    doc_ids = np.unique(rng.integers(0, n * 20, n)).astype(np.int64)
    tfs = rng.integers(1, 9, doc_ids.size)
    pos = np.concatenate(
        [np.sort(rng.choice(2000, int(t), replace=False)) for t in tfs]
    ).astype(np.int64)
    blocks = encode_postings(doc_ids, tfs, pos)
    assert all(b["n"] <= 128 for b in blocks)
    assert all(b["max_tf"] >= 1 for b in blocks)
    d2, t2, p2 = decode_postings(blocks, want_positions=True)
    assert (d2 == doc_ids).all()
    assert (t2 == tfs).all()
    assert (p2 == pos).all()
    d3, t3, p3 = decode_postings(blocks, want_positions=False)
    assert (d3 == doc_ids).all() and p3 is None


def test_int64_column_reads_sliced_children_like_to_numpy():
    """``int64_column`` (the scorer's integer read, which skips pyarrow's
    numpy conversion layer) equals ``to_numpy`` on sliced struct children of
    both block-metadata widths, empty arrays included, and refuses nulls."""
    structs = pa.StructArray.from_arrays(
        [pa.array(np.arange(50, dtype=np.int32) - 7),
         pa.array(np.arange(50, dtype=np.int64) * 3_000_000_000)],
        names=["n", "first_doc"],
    )
    for lo, n in [(0, 50), (11, 23), (49, 1), (20, 0)]:
        part = structs.slice(lo, n)
        for name in ("n", "first_doc"):
            child = part.field(name)
            got = int64_column(child)
            assert got.dtype == np.int64
            assert got.tolist() == child.to_numpy(zero_copy_only=False).tolist()
    offsets = pa.array([[1, 2], [], [3]], pa.list_(pa.int32())).slice(1).offsets
    assert int64_column(offsets).tolist() == [2, 2, 3]
    with pytest.raises(ValueError):
        int64_column(pa.array([1, None], pa.int32()))


@pytest.mark.parametrize("n", [1, 127, 128, 129, 1000])
def test_postings_min_dl_exact_per_block(n):
    """min_dl stored per block is the exact min over that block's own docs
    (dls aligned with doc_ids); without dls it is 0 = unknown."""
    rng = np.random.default_rng(n + 7)
    doc_ids = np.unique(rng.integers(0, n * 20, n)).astype(np.int64)
    tfs = rng.integers(1, 9, doc_ids.size)
    dls = rng.integers(1, 500, doc_ids.size).astype(np.int64)
    blocks = encode_postings(doc_ids, tfs, None, dls=dls)
    at = 0
    for b in blocks:
        assert b["min_dl"] == int(dls[at: at + b["n"]].min())
        at += b["n"]
    assert all(b["min_dl"] == 0 for b in encode_postings(doc_ids, tfs, None))


def _golden_cases():
    """Fixed encoder inputs: 1, 128 and 129 postings, multi-byte doc gaps and
    positions, a norms-style list (no positions, dl = 0 docs), dls given and
    absent."""
    i = np.arange(129, dtype=np.int64)
    docs = 7 + np.cumsum(1 + (i * 37) % 300)
    tfs = 1 + i % 4
    pos = np.concatenate([j * 40 + 130 * np.arange(t) for j, t in enumerate(tfs)])
    dls = 3 + (i * 11) % 500
    n128 = int(tfs[:128].sum())
    k = np.arange(200, dtype=np.int64)
    one = (np.array([300]), np.array([2]), np.array([5, 1000]))
    return {
        "one": (*one, None),
        "one_dls": (*one, np.array([17])),
        "128": (docs[:128], tfs[:128], pos[:n128], None),
        "129_dls": (docs, tfs, pos, dls),
        "norms": (1000 + k, (k * 7) % 13, None, None),
    }


#: sha256 of ``repr([tuple(block.values()) ...])`` of each case's blocks, as
#: the per-list encoder wrote them before the columnar encoder replaced it
GOLDEN_BLOCKS = {
    "one": "6188040e49ec4e6dfe45b5a2a673edf6dbe5c4d532743aedde27a680e50f4820",
    "one_dls": "0364074d5444c92e5e87f9bf6e93afe636e706ba71c72f15e0daff46ab3bc4a7",
    "128": "4c28fd78dfcae1b9eefb15ca92c9ce6c1f439eff30a0029c587f42260d8bec99",
    "129_dls": "670e71b6136dada284a5487305ec1e5a718db45f7b64c7ad74116008e1cc089b",
    "norms": "1b28b1e82df348f9c43d88d3b16b85c42cfe3f12dd139f322a80e91328a19ad2",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_BLOCKS))
def test_encode_postings_golden_bytes(name):
    """The stored block bytes never change (INDEX_FORMAT_VERSION 3 indexes
    stay readable and re-encoding stays bit-identical)."""
    doc_ids, tfs, pos, dls = _golden_cases()[name]
    blocks = encode_postings(doc_ids, tfs, pos, dls=dls)
    digest = hashlib.sha256(
        repr([tuple(b.values()) for b in blocks]).encode()
    ).hexdigest()
    assert digest == GOLDEN_BLOCKS[name]
    if name.startswith("one"):
        assert blocks == [{
            "n": 1, "max_tf": 2, "min_dl": 17 if dls is not None else 0,
            "first_doc": 300, "last_doc": 300,
            "docs": bytes.fromhex("ac02"), "tfs": bytes.fromhex("02"),
            "pos": bytes.fromhex("05e307"),
        }]


def _synthetic_turns(n_turns: int, vocab: int, seed: int) -> pa.Table:
    rng = np.random.default_rng(seed)
    words = np.array([f"w{j}x" for j in range(vocab)])
    texts = [
        " ".join(words[rng.integers(0, vocab, int(rng.integers(3, 40)))])
        for _ in range(n_turns)
    ]
    return pa.table({
        "doc_id": pa.array(np.arange(n_turns, dtype=np.int64)),
        "role": pa.array(rng.choice(["user", "assistant"], n_turns)),
        "text": pa.array(texts),
        "tool": pa.array(["none"] * n_turns),
    })


def test_batch_encode_work_does_not_grow_with_terms(ray_session, monkeypatch):
    """Guard against per-term encoding coming back: the varint passes one
    tokenize-encode batch and one purge merge make stay a small constant per
    field, however many distinct terms the batch holds."""
    from lucille_ray.analysis import INDEXED_FIELDS
    from lucille_ray.index import codec
    from lucille_ray.index.build import DEFAULT_RANGE_WIDTH, _is_norms_row, _TokenizeEncode
    from lucille_ray.index.compact import _merge_sorted_batch

    calls = []
    real = codec._encode_varints_np
    monkeypatch.setattr(
        codec, "_encode_varints_np", lambda v: calls.append(1) or real(v)
    )
    turns = _synthetic_turns(600, 3000, seed=5)
    turns = turns.append_column("seg", pa.array(np.zeros(turns.num_rows, np.int32)))
    out = _TokenizeEncode(INDEXED_FIELDS, DEFAULT_RANGE_WIDTH)(turns)
    assert out.num_rows >= 1000  # one row per distinct (field, term)
    # per field: docs/tfs/positions for the term rows, docs/tfs for the norms row
    assert len(calls) <= 5 * len(INDEXED_FIELDS)

    calls.clear()
    rows = out.drop_columns(["seg"]).filter(pa.compute.invert(_is_norms_row(out))).sort_by(
        [("field", "ascending"), ("term", "ascending"), ("bucket", "ascending")])
    merged = _merge_sorted_batch(rows, deleted=np.arange(0, 600, 7, dtype=np.int64))
    assert merged.num_rows >= 1000
    # every term row re-encodes on the purge path: one call for all of them
    assert len(calls) <= 5


def test_jsonl_and_csv_sources_normalize_to_schema(ray_session, tmp_path):
    """JSONL and CSV ingest produce the identical table parquet does, and an
    index built from the JSONL source answers queries identically."""
    import csv as csv_mod
    import json

    import pandas as pd

    from lucille_ray import transcripts as T
    from lucille_ray.index.build import build_index
    from lucille_ray.search import SearchEngine

    pq_dir = str(tmp_path / "pq")
    T.generate(2000, pq_dir, num_files=2)
    base = T.read_transcripts(pq_dir).to_pandas()

    # JSONL: ts as ISO string; sparse null tools stay null
    jdir = tmp_path / "jsonl"; jdir.mkdir()
    with open(jdir / "part0.jsonl", "w") as f:
        for r in base.to_dict("records"):
            r["ts"] = pd.Timestamp(r["ts"]).isoformat()
            f.write(json.dumps(r) + "\n")
    got_j = T.read_transcripts_jsonl(str(jdir)).to_pandas()

    # CSV
    cdir = tmp_path / "csv"; cdir.mkdir()
    with open(cdir / "part0.csv", "w", newline="") as f:
        wr = csv_mod.writer(f)
        wr.writerow(base.columns.tolist())
        for r in base.itertuples(index=False):
            wr.writerow(list(r))
    got_c = T.read_transcripts_csv(str(cdir)).to_pandas()

    key = ["conv_id", "turn_idx"]
    canon = lambda df: df.sort_values(key, kind="stable").reset_index(drop=True)
    for got in (got_j, got_c):
        a, b = canon(base), canon(got)
        assert list(a.columns) == list(b.columns)
        pd.testing.assert_frame_equal(a[["conv_id", "turn_idx", "role", "text", "ts"]],
                                      b[["conv_id", "turn_idx", "role", "text", "ts"]])

    # end-to-end: index built from the JSONL source ranks identically
    idx_a = str(tmp_path / "idx_pq"); idx_b = str(tmp_path / "idx_jsonl")
    build_index(T.read_transcripts(pq_dir), idx_a, num_segments=2, batch_size=1024)
    build_index(T.read_transcripts_jsonl(str(jdir)), idx_b, num_segments=2, batch_size=1024)
    ea, eb = SearchEngine(idx_a), SearchEngine(idx_b)
    for q in ("data", "data AND query", '"lazy evaluation"', "deploy*"):
        ta = ea.search(q, k=10, with_meta=True)
        tb = eb.search(q, k=10, with_meta=True)
        assert ta.equals(tb)
