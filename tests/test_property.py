"""Property-based tests (hypothesis): parse<->print round trips on the surfaces the
reference guarantees, codec round trips, analyzer-path equivalence."""

import numpy as np
import pyarrow as pa
from hypothesis import given, settings, strategies as st

from lucille_ray.analysis import arrow_tokenize, tokenize
from lucille_ray.index.codec import (
    RawBlocks,
    decode_postings,
    decode_varints,
    encode_postings,
    encode_runs,
    encode_varints,
    sort_postings,
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
