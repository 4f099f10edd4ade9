"""Property-based tests (hypothesis): parse<->print round trips on the surfaces the
reference guarantees, codec round trips, analyzer-path equivalence."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import given, settings, strategies as st

from lucille_ray.analysis import arrow_tokenize, tokenize
from lucille_ray.index.codec import (
    RawBlocks,
    decode_postings,
    decode_varints,
    encode_postings,
    encode_runs,
    encode_varints,
    pack_rows,
    sort_postings,
    strip_one_posting_headers,
    take_blocks,
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
    rb, offsets = encode_runs(docs, tfs, starts, pos, dls)
    got = _block_tuples(rb)
    assert [got[a:b] for a, b in zip(offsets[:-1], offsets[1:])] == [
        [tuple(b.values()) for b in encode_postings(*lst[:3], dls=lst[3])]
        for lst in lists]
    d, t, p = rb.decode(want_positions=True)
    assert (d == docs).all() and (t == tfs).all() and (p == pos).all()


def _block_tuples(rb: RawBlocks) -> list:
    """Each block of ``rb`` as ``(n, max_tf, min_dl, first_doc, last_doc,
    docs, tfs, pos)``, its payloads as bytes."""
    meta = zip(*(a.tolist() for a in (rb.ns, rb.max_tf, rb.min_dl, rb.firsts, rb.lasts)))
    payloads = zip(*([vals[a:b].tobytes() for a, b in zip(offs[:-1], offs[1:])]
                     for vals, offs in (rb.docs, rb.tfs, rb.pos)))
    return [(*m, *p) for m, p in zip(meta, payloads)]


class _DocNorms:
    """Norms of any doc id, a function of the id: ``norms[docs]``."""

    def __getitem__(self, docs):
        return 1 + np.asarray(docs) % 997


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_pack_unpack_rows_round_trip(data):
    """``unpack_rows(pack_rows(rows))`` gives back the rows, their blocks
    and their block offsets, with the docs' norms also once the writer
    stripped the one-posting rows' headers (and any slice of them), for
    rows of ``encode_runs`` blocks whose ``min_dl`` is the least norm of
    their docs: one-posting, one-block and multi-block rows, norms rows (no
    positions), doc gaps up to 2^40, and rows whose blocks overlap in doc
    range, with first docs ascending or not: compaction keeps pieces of
    interleaved input as they are, and a span it re-cuts can end after the
    next block starts. Every block's first doc comes back from its ``docs``
    payload alone; every packed row keeps its header, and a stripped
    one-posting row gets its ``max_tf`` back from its one tf and its
    ``min_dl`` from the norms (0 without)."""
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
    rb, loff = encode_runs(docs, tfs, starts, pos if positional else None,
                           _DocNorms()[docs])
    if overlap:  # each row: the blocks of two runs, by first doc or not
        loff = loff[::2]
        if by_first:
            rb = take_blocks([rb], np.concatenate([np.zeros(0, np.int64)] + [
                loff[i] + np.argsort(rb.firsts[loff[i]: loff[i + 1]], kind="stable")
                for i in range(loff.size - 1)]))
    n = loff.size - 1
    keys = pa.table({"field": pa.array(["text"] * n),
                     "term": pa.array([f"t{i:03d}" for i in range(n)])})
    df = np.add.reduceat(rb.ns, loff[:-1])
    blocks = _block_tuples(rb)

    def round_trip(stored, norms={"text": _DocNorms()}):
        out, got, offsets = unpack_rows(stored, norms)
        return out.to_pydict(), _block_tuples(got), offsets.tolist()

    def want(lo, hi):
        return ({"field": ["text"] * (hi - lo), "term": keys["term"].to_pylist()[lo:hi],
                 "df": df[lo:hi].tolist()},
                blocks[loff[lo]: loff[hi]], (loff[lo: hi + 1] - loff[lo]).tolist())

    packed = pack_rows(keys, rb, loff)
    assert packed.column_names == ["field", "term", "df", "hdr", "docs", "tfs", "pos"]
    assert (pc.binary_length(packed["hdr"]).to_numpy() > 0).all()
    stored = strip_one_posting_headers(packed)
    single = df == 1
    assert (pc.binary_length(stored["hdr"]).to_numpy() == 0).tolist() == single.tolist()
    assert round_trip(packed, None) == round_trip(packed) == round_trip(stored) == want(0, n)
    min_dl = np.array([b[2] for b in round_trip(stored, None)[1]])
    expect = rb.min_dl.copy()
    expect[loff[:-1][single]] = 0
    assert min_dl.tolist() == expect.tolist()
    lo = data.draw(st.integers(0, n))
    hi = data.draw(st.integers(lo, n))
    part = take_blocks([rb], np.arange(loff[lo], loff[hi]))
    assert round_trip(pack_rows(keys.slice(lo, hi - lo), part, loff[lo: hi + 1] - loff[lo])
                      ) == want(lo, hi)
    assert round_trip(stored.slice(lo, hi - lo)) == want(lo, hi)


@pytest.mark.parametrize("fault,error", [
    ("no_blocks", "row holds no blocks"),
    ("first_doc_not_in_docs", "first_doc is not the first varint of its docs"),
    ("last_below_first", "last_doc is below its first_doc"),
])
def test_pack_rows_refuses_rows_a_reader_could_not_recover(fault, error):
    """``pack_rows`` raises on a row without blocks, a block whose
    ``first_doc`` is not the first varint of its ``docs`` and a
    ``last_doc`` below ``first_doc``: the packed rows keep none of these,
    so a reader would read other values back."""
    docs = np.arange(5, 5 + 300, 2, dtype=np.int64)  # two rows: 1 and 2 blocks
    starts = np.array([0, 20], np.int64)
    rb, loff = encode_runs(docs, np.ones(docs.size, np.int64), starts)
    if fault == "no_blocks":
        loff = np.array([0, 0, 3], np.int64)
    elif fault == "first_doc_not_in_docs":
        rb.firsts[2] -= 1  # block 1 of row 1
    else:
        rb.lasts[1] = rb.firsts[1] - 1
    keys = pa.table({"field": pa.array(["text"] * 2), "term": pa.array(["a", "b"])})
    with pytest.raises(ValueError, match=error):
        pack_rows(keys, rb, loff)


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
