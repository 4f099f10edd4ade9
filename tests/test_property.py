"""Property-based tests (hypothesis): parse<->print round trips on the surfaces the
reference guarantees, codec round trips, analyzer-path equivalence."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import given, settings, strategies as st

from lucille_ray.analysis import arrow_tokenize, tokenize
from lucille_ray.index.codec import (
    BLOCK_STRUCT,
    POSTINGS_SCHEMA,
    RawBlocks,
    decode_postings,
    decode_varints,
    encode_postings,
    encode_runs,
    encode_varints,
    pack_rows,
    sort_postings,
    unpack_rows,
)
from lucille_ray.query import Phrase, Term, parse, print_query

# Term round trips hold for chars the printer can represent: it escapes exactly
# luceneSpecial, so space and smart quotes (parser-special but NOT printer-escaped)
# cannot round-trip — a faithful reference asymmetry (QueryPrinter.scala:143-147)
_term_chars = st.characters(
    min_codepoint=0x20, max_codepoint=0x2FFF, exclude_characters=' "“”'
)
# ... and terms starting with a reserved operator token cannot round-trip
# either: "OR"/"AND" prefixes fail the parse outright and "NOT..." parses as
# Not(Term(rest)) — same behavior verified on the reference grammar
# (QueryParser.scala infix/NOT tokens take precedence over term)
_terms = st.text(_term_chars, min_size=1, max_size=20).filter(
    lambda s: not s.startswith(("OR", "AND", "NOT"))
)

# Phrase bodies: printer escapes quotes/backslash; smart quotes are escaped on
# print AND accepted escaped by the parser, so only sub-0x20 chars are off-limits
_phrase_chars = st.characters(min_codepoint=0x20, max_codepoint=0x2FFF)
_phrases = st.text(_phrase_chars, min_size=1, max_size=30)


@settings(max_examples=200, deadline=None)
@given(_terms)
def test_term_print_parse_round_trip(s):
    # Terms consisting only of whitespace can't exist (parser strips); printer
    # escapes specials including the space via backslash
    q = Term(s)
    printed = print_query(q)
    assert parse(printed) == q


@settings(max_examples=200, deadline=None)
@given(_phrases)
def test_phrase_print_parse_round_trip(s):
    q = Phrase(s)
    printed = print_query(q)
    assert parse(printed) == q


@settings(max_examples=100, deadline=None)
@given(st.lists(st.from_regex(r"[a-z][a-z0-9]{0,8}", fullmatch=True), min_size=1, max_size=6),
       st.sampled_from([" OR ", " AND ", " "]))
def test_parse_print_parse_idempotent(words, op):
    s = op.join(words)
    q1 = parse(s)
    q2 = parse(print_query(q1))
    assert q1 == q2


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=(1 << 50)), max_size=300))
def test_varint_round_trip(vals):
    arr = np.array(vals, dtype=np.uint64)
    assert decode_varints(encode_varints(arr)).tolist() == vals


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_postings_round_trip(data):
    n = data.draw(st.integers(min_value=1, max_value=400))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    doc_ids = np.unique(rng.integers(0, 1 << 40, n)).astype(np.int64)
    tfs = rng.integers(1, 12, doc_ids.size)
    pos = np.concatenate(
        [np.sort(rng.choice(5000, int(t), replace=False)) for t in tfs]
    ).astype(np.int64)
    blocks = encode_postings(doc_ids, tfs, pos)
    d, t, p = decode_postings(blocks, want_positions=True)
    assert (d == doc_ids).all() and (t == tfs).all() and (p == pos).all()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_encode_runs_matches_per_list_encoding(data):
    """k posting lists encoded in one ``encode_runs`` call equal each list
    encoded alone, and round-trip through RawBlocks with positions."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    k = data.draw(st.integers(1, 8))
    lists = []
    for _ in range(k):
        n = int(data.draw(st.sampled_from([0, 1, 2, 127, 128, 129, 300])))
        doc_ids = np.unique(rng.integers(0, 1 << 30, n)).astype(np.int64)
        tfs = rng.integers(1, 6, doc_ids.size)
        pos = np.concatenate(
            [np.sort(rng.choice(5000, int(t), replace=False)) for t in tfs] + [[]]
        ).astype(np.int64)
        dls = rng.integers(0, 1000, doc_ids.size)
        lists.append((doc_ids, tfs, pos, dls))
    docs, tfs, pos, dls = (np.concatenate([lst[j] for lst in lists]) for j in range(4))
    starts = np.cumsum([0] + [lst[0].size for lst in lists[:-1]])
    enc = encode_runs(docs, tfs, starts, pos, dls)
    assert enc.to_pylist() == [encode_postings(*lst[:3], dls=lst[3]) for lst in lists]
    d, t, p = RawBlocks(enc.flatten()).decode(want_positions=True)
    assert (d == docs).all() and (t == tfs).all() and (p == pos).all()


class _DocNorms:
    """Norms of any doc id, a function of the id: ``norms[docs]``."""

    def __getitem__(self, docs):
        return 1 + np.asarray(docs) % 997


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_pack_unpack_rows_round_trip(data):
    """``unpack_rows(pack_rows(rows))`` with the docs' norms, its blocks
    made the ``blocks`` column again, equals ``rows`` (and any slice of
    them) for postings rows of ``encode_runs`` blocks whose ``bucket`` is
    their block 0's first doc and whose ``min_dl`` is the least norm of
    their docs: one-posting, one-block and multi-block rows, norms rows (no
    positions), doc gaps up to 2^40, and rows whose blocks overlap in doc
    range, with first docs ascending or not: compaction keeps pieces of
    interleaved input as they are, and a span it re-cuts can end after the
    next block starts. Every block's first doc comes back from its ``docs``
    payload alone; a one-posting row stores no header, its ``max_tf`` comes
    back from its one tf and its ``min_dl`` from the norms (0 without)."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    sizes = data.draw(st.lists(st.sampled_from([1, 1, 2, 127, 128, 129, 300, 700]),
                               min_size=1, max_size=6))
    gap = data.draw(st.sampled_from([1, 1000, 1 << 40]))
    positional = data.draw(st.booleans())
    overlap = data.draw(st.booleans())
    by_first = data.draw(st.booleans())
    runs = [np.cumsum(rng.integers(1, gap + 1, n)) + int(rng.integers(0, gap))
            for n in sizes for _ in range(2 if overlap else 1)]
    docs = np.concatenate([np.zeros(0, np.int64), *runs]).astype(np.int64)
    tfs = rng.integers(1, 6, docs.size)
    pos = np.concatenate([np.zeros(0, np.int64)] + [
        np.sort(rng.choice(5000, int(t), replace=False)) for t in tfs])
    starts = np.cumsum([0] + [r.size for r in runs[:-1]]).astype(np.int64)
    enc = encode_runs(docs, tfs, starts, pos if positional else None,
                      _DocNorms()[docs])
    flat = enc.flatten()
    loff = enc.offsets.to_numpy().astype(np.int64)
    if overlap:  # each row: the blocks of two runs, by first doc or not
        loff = loff[::2]
        if by_first:
            firsts = flat.field("first_doc").to_numpy()
            flat = flat.take(pa.array(np.concatenate([np.zeros(0, np.int64)] + [
                loff[i] + np.argsort(firsts[loff[i]: loff[i + 1]], kind="stable")
                for i in range(loff.size - 1)])))
    blocks = pa.ListArray.from_arrays(pa.array(loff, pa.int32()), flat)
    per_block = [(b[0]["first_doc"], sum(x["n"] for x in b)) for b in blocks.to_pylist()]
    rows = pa.table({
        "field": pa.array(["text"] * len(blocks)),
        "term": pa.array([f"t{i:03d}" for i in range(len(blocks))]),
        "bucket": pa.array([f for f, _ in per_block], pa.int64()),
        "df": pa.array([n for _, n in per_block], pa.int64()),
        "blocks": blocks,
    }, schema=POSTINGS_SCHEMA)

    def round_trip(stored, norms={"text": _DocNorms()}):
        out, blocks, offsets = unpack_rows(stored, norms)
        return out.append_column("blocks", blocks.list_array(offsets))

    stored = pack_rows(rows)
    assert stored.column_names == ["field", "term", "df", "hdr", "docs", "tfs", "pos"]
    single = stored["df"].to_numpy() == 1
    assert (pc.binary_length(stored["hdr"]).to_numpy() == 0).tolist() == single.tolist()
    assert round_trip(stored).equals(rows)
    bare = round_trip(stored, None)["blocks"].combine_chunks()
    min_dl = bare.flatten().field("min_dl").to_numpy()
    want = rows["blocks"].combine_chunks().flatten().field("min_dl").to_numpy().copy()
    want[loff[:-1][single]] = 0
    assert min_dl.tolist() == want.tolist()
    lo = data.draw(st.integers(0, rows.num_rows))
    part = rows.slice(lo, data.draw(st.integers(0, rows.num_rows - lo)))
    assert round_trip(pack_rows(part)).equals(part)
    assert round_trip(pack_rows(rows).slice(lo, part.num_rows)).equals(part)


@pytest.mark.parametrize("fault,error", [
    ("no_blocks", "row holds no blocks"),
    ("bucket_not_first_doc", "bucket is not its first block's first_doc"),
    ("first_doc_not_in_docs", "first_doc is not the first varint of its docs"),
    ("last_below_first", "last_doc is below its first_doc"),
])
def test_pack_rows_refuses_rows_a_reader_could_not_recover(fault, error):
    """``pack_rows`` raises on a row without blocks, a ``bucket`` that is
    not the row's block 0's first doc, a block whose ``first_doc`` is not
    the first varint of its ``docs`` and a ``last_doc`` below ``first_doc``:
    the stored rows keep none of these, so a reader would read other
    values back."""
    docs = np.arange(5, 5 + 300, 2, dtype=np.int64)  # two rows: 1 and 2 blocks
    starts = np.array([0, 20], np.int64)
    blocks = encode_runs(docs, np.ones(docs.size, np.int64), starts)
    flat, loff = blocks.flatten(), blocks.offsets
    bucket = [int(docs[0]), int(docs[20])]
    meta = {f: flat.field(f).to_numpy().copy() for f in ("first_doc", "last_doc")}
    if fault == "no_blocks":
        loff = pa.array([0, 0, 3], pa.int32())
        bucket = [0, int(docs[0])]
    elif fault == "bucket_not_first_doc":
        bucket[1] += 1
    elif fault == "first_doc_not_in_docs":
        meta["first_doc"][2] -= 1  # block 1 of row 1, the bucket unchanged
    else:
        meta["last_doc"][1] = meta["first_doc"][1] - 1
    flat = pa.StructArray.from_arrays(
        [pa.array(meta[f.name], f.type) if f.name in meta else flat.field(f.name)
         for f in BLOCK_STRUCT], fields=list(BLOCK_STRUCT))
    rows = pa.table({
        "field": pa.array(["text"] * 2),
        "term": pa.array(["a", "b"]),
        "bucket": pa.array(bucket, pa.int64()),
        "df": pa.array([20, docs.size - 20], pa.int64()),
        "blocks": pa.ListArray.from_arrays(loff, flat),
    }, schema=POSTINGS_SCHEMA)
    with pytest.raises(ValueError, match=error):
        pack_rows(rows)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sort_postings_permutation_invariant(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    n = data.draw(st.integers(2, 100))
    doc_ids = np.unique(rng.integers(0, 10000, n)).astype(np.int64)
    tfs = rng.integers(1, 5, doc_ids.size)
    pos = np.concatenate([np.sort(rng.choice(100, int(t), replace=False)) for t in tfs]).astype(np.int64)
    perm = rng.permutation(doc_ids.size)
    # build the permuted ragged layout, then sort back
    offs = np.zeros(doc_ids.size + 1, np.int64)
    np.cumsum(tfs, out=offs[1:])
    p_perm = np.concatenate([pos[offs[i]: offs[i + 1]] for i in perm])
    d2, t2, p2 = sort_postings(doc_ids[perm], tfs[perm], p_perm)
    assert (d2 == doc_ids).all() and (t2 == tfs).all() and (p2 == pos).all()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.text(max_size=40), max_size=20))
def test_arrow_tokenize_matches_scalar(texts):
    arr = pa.array(texts, pa.string())
    assert arrow_tokenize(arr).to_pylist() == [tokenize(t) for t in texts]
