"""Posting-list compression: delta-gap + varint blocks with per-block max-tf
metadata (block-max WAND style; north_star requires exactly this layout).

A posting list for one ``(field, term, doc-range-bucket)`` key is stored as
fixed-size blocks of up to :data:`BLOCK_SIZE` documents:

* ``docs``  — doc_id gaps (first absolute within block), varint
* ``tfs``   — term frequencies, varint
* ``pos``   — within-document token positions, delta-encoded per document then
  varint; document boundaries are implied by ``tfs`` (tf_i positions per doc)
* metadata — ``n`` (docs in block), ``max_tf`` (block-max for WAND-style pruning),
  ``first_doc``/``last_doc`` (range pruning without decode), ``min_dl`` (a
  lower bound, at least 1, on the lengths of the block's posting docs, for
  BM25 block upper bounds: their least norm where the writer holds their
  norms, and where a re-cut block's doc lacks one there, the ``min_dl`` of
  the block it came from; the build's norms rows, which never reach a
  committed segment, store 0)

Postings have one in-memory form and one Arrow form. In memory, the blocks
of many rows are one :class:`RawBlocks` (numpy metadata, ``(bytes,
offsets)`` payload views) beside the rows' block offsets: row ``i`` holds
blocks ``offsets[i]`` to ``offsets[i + 1]``. :func:`encode_runs` makes
that form, the window merge and compaction (``compact._merge_sorted_batch``)
take and return it, and every reader unpacks to it. As Arrow, in the build's
Ray Data stream and on disk, a row is packed (:func:`pack_rows`): it keeps
``field``, ``term`` and ``df`` and packs its blocks into four binaries (as
Lucene's postings format keeps each block's impacts inline with the block,
and writes each doc id once, in the doc stream):

* ``hdr``  — one varint stream: ``nb`` (blocks in the row); per block
  ``max_tf``, ``min_dl`` and ``last_doc - first_doc``; then, only when
  ``nb > 1``, per block ``n`` and its ``docs``/``tfs``/``pos`` byte
  lengths. A one-block row takes ``n`` from ``df`` and its payload lengths
  from the row's;
* ``docs``, ``tfs``, ``pos`` — the row's blocks' payloads end to end.

The writer stores a one-posting row (``df`` 1, 60% of the rows of the
benchmark's serve index) with an empty ``hdr``
(:func:`strip_one_posting_headers`): its one block's ``max_tf`` is its one
tf, its span is 0, and its ``min_dl`` is its doc's norm, which the readers
that hold the norms fill in (:func:`unpack_rows`), a bound never looser than
a stored one. Every row of the build's stream keeps its header: a window
merge may hold a one-posting row without the norms of its doc, and then
re-cuts its block at the ``min_dl`` the header carries.

A block's ``first_doc`` is stored once, as the first (absolute) varint of
its ``docs`` payload: :func:`varints_at` gathers it, and a row's block 0's
``first_doc`` (its bucket) with it (:func:`row_order`, the sort before
unpacking).

:func:`pack_rows` and :func:`unpack_rows` each make one varint pass over a
whole header column; the payloads of packed and unpacked rows are views over
the same bytes, not copies.

There is one encoder, :func:`encode_runs`: it takes all of a batch's posting
lists laid end to end and encodes them in one delta pass and one varint pass
per column. The build and compaction call it once per batch (never per
term); :func:`encode_postings` is its one-list form returning block dicts.
Readers decode through :class:`RawBlocks`, one varint pass per column over
the selected blocks.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

BLOCK_SIZE = 128

#: the names of a block's metadata (:func:`encode_postings`' dict keys)
_META = ("n", "max_tf", "min_dl", "first_doc", "last_doc")
_PAYLOADS = ("docs", "tfs", "pos")
#: the packed columns of a row's blocks, the ones :func:`unpack_rows` reads
BLOCK_COLUMNS = ("df", "hdr", *_PAYLOADS)


def _encode_varints_np(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized LEB128 varint encode -> (byte array, bytes-per-value):
    one pass writes every value's first byte, and the further bytes go
    through the multi-byte minority alone (as in :func:`decode_varints`)."""
    v = np.ascontiguousarray(values, dtype=np.uint64)
    if v.size == 0:
        return np.empty(0, dtype=np.uint8), np.empty(0, dtype=np.int64)
    nbytes = np.ones(v.size, dtype=np.int64)
    live = np.flatnonzero(v >= 128)
    rest = v[live] >> np.uint64(7)
    while live.size:
        nbytes[live] += 1
        more = rest >= 128
        live, rest = live[more], rest[more] >> np.uint64(7)
    starts = np.cumsum(nbytes) - nbytes
    out = np.empty(int(starts[-1] + nbytes[-1]), dtype=np.uint8)
    out[starts] = (v & np.uint64(0x7F)).astype(np.uint8) | (
        (nbytes > 1).astype(np.uint8) << 7)
    live = np.flatnonzero(nbytes > 1)
    for j in range(1, int(nbytes.max())):
        out[starts[live] + j] = ((v[live] >> np.uint64(7 * j)) & np.uint64(0x7F)).astype(
            np.uint8) | ((nbytes[live] > j + 1).astype(np.uint8) << 7)
        live = live[nbytes[live] > j + 1]
    return out, nbytes


def encode_varints(values: np.ndarray) -> bytes:
    """LEB128-style varint encoding of a non-negative integer array, vectorized."""
    out, _ = _encode_varints_np(values)
    return out.tobytes()


def decode_varints(buf) -> np.ndarray:
    """Inverse of :func:`encode_varints` (accepts bytes or a uint8 ndarray view);
    returns int64 array.

    Fast paths for the distribution posting lists actually have: hot terms'
    doc gaps / tfs / position deltas are overwhelmingly single-byte, so the
    all-single-byte case is one cast and the mixed case touches only the
    multi-byte minority in the per-byte loop."""
    b = buf if isinstance(buf, np.ndarray) else np.frombuffer(buf, dtype=np.uint8)
    if b.size == 0:
        return np.empty(0, dtype=np.int64)
    cont = b >= 128
    if not cont.any():
        return b.astype(np.int64)  # every value is a single byte
    ends = np.flatnonzero(~cont)
    starts = np.empty(ends.size, dtype=np.int64)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    out = b[ends].astype(np.int64)  # right for every single-byte value
    # the multi-byte MINORITY (block-start absolutes, long doc lengths, big
    # gaps) goes through the per-byte gather; posting streams are dominated
    # by single-byte deltas, so its temporaries stay small
    multi = ends > starts
    out[multi] = varints_at(b, starts[multi], ends[multi] + 1)
    return out


def delta_encode(values: np.ndarray, seg_starts: Optional[np.ndarray] = None) -> np.ndarray:
    """First-order deltas; values at ``seg_starts`` stay absolute (segment resets)."""
    v = np.asarray(values, dtype=np.int64)
    if v.size == 0:
        return v
    d = np.empty_like(v)
    d[0] = v[0]
    np.subtract(v[1:], v[:-1], out=d[1:])
    if seg_starts is not None and seg_starts.size:
        d[seg_starts] = v[seg_starts]
    return d


def delta_decode(deltas: np.ndarray, seg_starts: Optional[np.ndarray] = None,
                 seg_lengths: Optional[np.ndarray] = None) -> np.ndarray:
    """Inverse of :func:`delta_encode` (cumsum with per-segment resets)."""
    d = np.asarray(deltas, dtype=np.int64)
    if d.size == 0:
        return d
    c = np.cumsum(d)
    if seg_starts is None or not seg_starts.size:
        return c
    # subtract, within each segment, the running total accumulated before it
    prior = c[seg_starts] - d[seg_starts]
    return c - np.repeat(prior, seg_lengths)


def take_postings(
    doc_ids: np.ndarray, tfs: np.ndarray, pos: Optional[np.ndarray], order: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Reorder a postings triple by ``order``, gathering the ragged per-doc
    position slices along."""
    if pos is not None:
        starts = np.zeros(doc_ids.size, dtype=np.int64)
        np.cumsum(tfs[:-1], out=starts[1:])
        lens = tfs[order]
        out_off = np.zeros(lens.size, dtype=np.int64)
        np.cumsum(lens[:-1], out=out_off[1:])
        gather = np.repeat(starts[order] - out_off, lens) + np.arange(
            int(lens.sum()), dtype=np.int64
        )
        pos = pos[gather]
    return doc_ids[order], tfs[order], pos


def sort_postings(
    doc_ids: np.ndarray, tfs: np.ndarray, pos: Optional[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Doc-sort a postings triple, gathering the ragged per-doc position slices
    along (no-op when already sorted)."""
    if doc_ids.size < 2 or (np.diff(doc_ids) > 0).all():
        return doc_ids, tfs, pos
    return take_postings(doc_ids, tfs, pos, np.argsort(doc_ids, kind="stable"))


def chunk_starts(
    run_starts: np.ndarray, run_len: np.ndarray, size: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Cut each run ``[run_starts[i], run_starts[i] + run_len[i])`` into
    chunks of at most ``size`` -> (chunk start indices, chunks per run)."""
    nchunks = -(-run_len // size)
    first = np.cumsum(nchunks) - nchunks
    within = np.arange(int(nchunks.sum()), dtype=np.int64) - np.repeat(first, nchunks)
    return np.repeat(run_starts, nchunks) + size * within, nchunks


def _varint_view(data: np.ndarray, value_len: np.ndarray,
                 bounds: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(bytes, offsets)`` view whose i-th element is the byte span of
    values ``bounds[i]:bounds[i + 1]`` of a varint stream (``data`` with
    per-value byte lengths ``value_len``)."""
    boff = np.zeros(value_len.size + 1, dtype=np.int64)
    np.cumsum(value_len, out=boff[1:])
    return data, boff[bounds]


def encode_runs(
    docs: np.ndarray, tfs: np.ndarray, run_starts: np.ndarray,
    pos: Optional[np.ndarray] = None, dls: Optional[np.ndarray] = None,
) -> Tuple["RawBlocks", np.ndarray]:
    """Encode many doc-sorted posting lists laid end to end -> ``(blocks,
    offsets)``: every list's blocks as one :class:`RawBlocks`, list ``i``
    holding blocks ``offsets[i]`` to ``offsets[i + 1]``.

    List ``i`` is ``docs[run_starts[i]:run_starts[i + 1]]`` (the last runs to
    the end; ``run_starts`` ascending, equal starts give empty lists), with
    aligned ``tfs``. ``pos`` (optional) is the flat concatenation of every
    posting's positions, ``tfs[j]`` of them per posting. ``dls`` (optional,
    aligned with ``docs``) is each posting doc's field length, or a lower
    bound on it; when given, every block stores the min over ITS OWN
    postings' values as ``min_dl``, else ``min_dl`` is 0.

    Block boundaries restart at every run start; all heavy work is one delta
    pass and one varint pass per column over the whole batch, and block
    metadata comes from ``reduceat`` over block starts (no per-run or
    per-block Python)."""
    docs = np.asarray(docs, dtype=np.int64)
    tfs = np.asarray(tfs, dtype=np.int64)
    n = docs.size
    run_starts = np.asarray(run_starts, dtype=np.int64)
    run_len = np.diff(np.append(run_starts, n))
    block_starts, run_nb = chunk_starts(run_starts, run_len, BLOCK_SIZE)
    block_ends = np.minimum(block_starts + BLOCK_SIZE, np.repeat(run_starts + run_len, run_nb))
    nblocks = block_starts.size
    list_offsets = np.zeros(run_nb.size + 1, dtype=np.int64)
    np.cumsum(run_nb, out=list_offsets[1:])
    bounds = np.append(block_starts, n)  # blocks tile [0, n) in order

    if nblocks:
        max_tf = np.maximum.reduceat(tfs, block_starts)
        if dls is not None:
            min_dl = np.minimum.reduceat(np.asarray(dls, dtype=np.int64), block_starts)
        else:
            min_dl = np.zeros(nblocks, dtype=np.int64)
    else:
        max_tf = min_dl = np.zeros(0, dtype=np.int64)

    doc_view = _varint_view(*_encode_varints_np(delta_encode(docs, block_starts)), bounds)
    tf_view = _varint_view(*_encode_varints_np(tfs), bounds)
    if pos is not None:
        pos_offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(tfs, out=pos_offsets[1:])
        pos_deltas = delta_encode(pos, pos_offsets[:-1])
        pos_view = _varint_view(*_encode_varints_np(pos_deltas), pos_offsets[bounds])
    else:  # every block's pos payload is empty
        pos_view = (np.empty(0, np.uint8), np.zeros(bounds.size, np.int64))
    blocks = RawBlocks(block_ends - block_starts, max_tf, min_dl, docs[block_starts],
                       docs[block_ends - 1], doc_view, tf_view, pos_view)
    return blocks, list_offsets


def encode_postings(
    doc_ids: np.ndarray, tfs: np.ndarray, positions: Optional[np.ndarray],
    dls: Optional[np.ndarray] = None,
) -> List[dict]:
    """doc-sorted postings -> list of block dicts (``n``, ``max_tf``,
    ``min_dl``, ``first_doc``, ``last_doc``, and the ``docs``, ``tfs`` and
    ``pos`` payload bytes; one posting list through :func:`encode_runs`).

    ``positions`` is the flat concatenation of per-document position lists; the
    per-document counts are exactly ``tfs``. ``dls`` as in :func:`encode_runs`.
    """
    rb, _ = encode_runs(doc_ids, tfs, np.zeros(1, np.int64), positions, dls)
    meta = zip(*(a.tolist() for a in (rb.ns, rb.max_tf, rb.min_dl, rb.firsts, rb.lasts)))
    payloads = zip(*([vals[a:b].tobytes() for a, b in zip(offs[:-1].tolist(), offs[1:].tolist())]
                     for vals, offs in (rb.docs, rb.tfs, rb.pos)))
    return [dict(zip((*_META, *_PAYLOADS), (*m, *p))) for m, p in zip(meta, payloads)]


def _bin_view(arr: pa.Array) -> Tuple[np.ndarray, np.ndarray]:
    """(flat uint8 values, int64 offsets) zero-copy view of a Binary array
    (slice offsets respected)."""
    bufs = arr.buffers()
    offs = np.frombuffer(bufs[1], dtype=np.int32)[
        arr.offset: arr.offset + len(arr) + 1
    ].astype(np.int64)
    vals = (
        np.frombuffer(bufs[2], dtype=np.uint8)
        if bufs[2] is not None
        else np.empty(0, np.uint8)
    )
    return vals, offs


def int64_column(arr: pa.Array) -> np.ndarray:
    """int64 copy of a null-free signed-integer Array, read from its data
    buffer (slice offset respected). ``to_numpy`` goes through pyarrow's
    conversion layer, which retries its lazy pandas import on every call in
    a process that refuses pandas — a scorer actor (search/engine.py)."""
    if arr.null_count or not pa.types.is_signed_integer(arr.type):
        raise ValueError(
            f"expected a null-free signed integer column, got {arr.type} "
            f"with {arr.null_count} nulls"
        )
    if not len(arr):
        return np.empty(0, np.int64)
    vals = np.frombuffer(arr.buffers()[1], dtype=f"<i{arr.type.bit_width // 8}")
    return vals[arr.offset: arr.offset + len(arr)].astype(np.int64)


def numeric_array(values: np.ndarray) -> pa.Array:
    """Arrow array over a 1-d numeric numpy array's data buffer, the inverse
    of :func:`int64_column`. ``pa.array`` (and ``pa.scalar``) first try
    pyarrow's lazy pandas import, which loads pandas into a process that
    never needed it."""
    values = np.ascontiguousarray(values)
    return pa.Array.from_buffers(
        pa.from_numpy_dtype(values.dtype), values.size,
        [None, pa.py_buffer(values)],
    )


def seg_parts(rows: pa.Table):
    """``(segment, rows)`` for each segment of ``rows``' ``seg`` column (the
    new segment a build row belongs to), in ascending segment order; rows
    keep their order."""
    seg = rows["seg"].to_numpy(zero_copy_only=False)
    if seg.size and (seg == seg[0]).all():
        yield int(seg[0]), rows
        return
    for s in np.unique(seg):
        yield int(s), rows.filter(pa.array(seg == s))


def with_seg(rows: pa.Table, seg: int) -> pa.Table:
    """``rows`` with a ``seg`` column holding ``seg``."""
    return rows.append_column(
        "seg", numeric_array(np.full(rows.num_rows, seg, np.int32))
    )


#: up to this many values :func:`varints_at` reads byte by byte: a read of a
#: few rows gathers a few varints, and each vectorized pass costs more than
#: that whole loop (about 1 us a value against 12 us a call, one vCPU)
_FEW_VARINTS = 16

_TORN = "a postings payload does not start with a whole varint"


def varints_at(buf: np.ndarray, at: np.ndarray, end: np.ndarray) -> np.ndarray:
    """The varint that starts at each byte offset ``at`` of ``buf``: one
    gather of every first byte, then one per further byte of the values
    still going; raises unless each ends before its ``end``."""
    at = np.asarray(at, np.int64)
    if at.size <= _FEW_VARINTS:
        return _few_varints_at(buf, at, end)
    if (at >= end).any():
        raise ValueError(_TORN)
    b = buf[at]
    out = (b & 0x7F).astype(np.int64)
    live = np.flatnonzero(b >= 128)  # the multi-byte minority
    pos = at[live]
    for shift in range(7, 64, 7):
        if not live.size:
            return out
        pos = pos + 1
        if (pos >= end[live]).any():
            raise ValueError(_TORN)
        b = buf[pos]
        out[live] |= (b & 0x7F).astype(np.int64) << shift
        live, pos = live[b >= 128], pos[b >= 128]
    raise ValueError(_TORN)


def _few_varints_at(buf: np.ndarray, at: np.ndarray, end: np.ndarray) -> np.ndarray:
    """:func:`varints_at` for a few values, one byte at a time."""
    out = np.empty(at.size, np.int64)
    for i, (p, e) in enumerate(zip(at.tolist(), np.asarray(end).tolist())):
        v = 0
        for shift in range(0, 64, 7):
            if p >= e:
                raise ValueError(_TORN)
            b = int(buf[p])
            v |= (b & 0x7F) << shift
            if b < 128:
                break
            p += 1
        else:
            raise ValueError(_TORN)
        out[i] = v
    return out


def row_order(rows: pa.Table, keys: Sequence[str]) -> pa.Array:
    """Indices that stably sort stored postings rows by their ``keys``
    columns and then by ``bucket``, each row's first varint of ``docs`` (its
    block 0's ``first_doc``): the order readers unpack rows in, found
    without unpacking."""
    vals, offs = _bin_view(_one_array(rows["docs"]))
    bucket = varints_at(vals, offs[:-1], offs[1:])
    return pc.sort_indices(
        rows.select(list(keys)).append_column("bucket", numeric_array(bucket)),
        sort_keys=[(k, "ascending") for k in (*keys, "bucket")],
    )


def varint_counts(view: Tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Number of varints in each element of a ``(bytes, offsets)`` view of
    varint streams (the bytes below 128 end a varint)."""
    vals, offs = view
    ends = np.zeros(offs[-1] - offs[0] + 1, np.int64)
    np.cumsum(vals[offs[0]: offs[-1]] < 128, out=ends[1:])
    return np.diff(ends[offs - offs[0]])


def _one_array(col: pa.ChunkedArray) -> pa.Array:
    """A table column as one Array (a one-chunk column without a copy)."""
    return col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()


def _binary_over(vals: np.ndarray, offsets: np.ndarray) -> pa.Array:
    """Binary array over the bytes ``vals`` with element boundaries
    ``offsets`` (absolute in ``vals``): no byte moves."""
    if offsets[-1] > np.iinfo(np.int32).max:
        raise ValueError("posting payload exceeds 2 GiB in one batch")
    return pa.BinaryArray.from_buffers(
        pa.binary(), offsets.size - 1,
        [None, pa.py_buffer(offsets.astype(np.int32)), pa.py_buffer(vals)],
    )


def pack_rows(keys: pa.Table, blocks: "RawBlocks", offsets: np.ndarray) -> pa.Table:
    """Rows in memory (``keys``, one row per row of postings, and their
    ``blocks``: row ``i`` holds blocks ``offsets[i]`` to ``offsets[i + 1]``,
    the offsets running from 0 to ``blocks.count``) -> packed rows: the
    ``keys`` columns, then ``df``, ``hdr``, ``docs``, ``tfs`` and ``pos``
    (module docstring; every row keeps its header). One varint pass builds
    every header; the payload columns are views over the blocks' bytes.
    Raises where a reader could not recover the rows: a row without blocks,
    a ``first_doc`` that is not the first varint of its block's ``docs``
    and a ``last_doc`` below its ``first_doc``."""
    rb, loff = blocks, np.asarray(offsets, np.int64)
    nb = np.diff(loff)
    if (nb < 1).any():
        raise ValueError("a postings row holds no blocks")
    rows_of = np.repeat(np.arange(nb.size), nb)
    in_row = np.arange(rb.count) - loff[:-1][rows_of]
    span = rb.lasts - rb.firsts
    docs, doffs = rb.docs
    if (varints_at(docs, doffs[:-1], doffs[1:]) != rb.firsts).any():
        raise ValueError("a postings block's first_doc is not the first varint of its docs")
    if (span < 0).any():
        raise ValueError("a postings block's last_doc is below its first_doc")

    multi = nb > 1
    nvals = 1 + 3 * nb + 4 * nb * multi
    vstart = np.cumsum(nvals) - nvals
    vals = np.empty(int(nvals.sum()), np.int64)
    vals[vstart] = nb
    at = vstart[rows_of] + 1 + 3 * in_row
    for k, v in enumerate((rb.max_tf, rb.min_dl, span)):
        vals[at + k] = v
    m = multi[rows_of]
    at = (vstart[rows_of] + 1 + 3 * nb[rows_of] + 4 * in_row)[m]
    vals[at] = rb.ns[m]
    payload = []
    for k, (data, offs) in enumerate((rb.docs, rb.tfs, rb.pos), 1):
        vals[at + k] = np.diff(offs)[m]
        payload.append(_binary_over(data, offs[loff]))
    hdr = _binary_over(*_varint_view(*_encode_varints_np(vals), np.append(vstart, vals.size)))
    df = np.add.reduceat(rb.ns, loff[:-1]) if nb.size else np.zeros(0, np.int64)
    out = keys
    for name, arr in zip(BLOCK_COLUMNS, (numeric_array(df), hdr, *payload)):
        out = out.append_column(name, arr)
    return out


def strip_one_posting_headers(rows: pa.Table) -> pa.Table:
    """Packed rows as the writer stores them: each one-posting row's header
    emptied (its ``max_tf``, ``min_dl`` and span are its tf, its doc's norm
    and 0, which the readers fill in)."""
    vals, offs = _bin_view(_one_array(rows["hdr"]))
    lens = np.diff(offs)
    lens[int64_column(_one_array(rows["df"])) == 1] = 0
    kept = np.repeat(lens > 0, np.diff(offs))  # per header byte
    hdr = _binary_over(vals[offs[0]: offs[-1]][kept], np.append(0, np.cumsum(lens)))
    return rows.set_column(rows.schema.get_field_index("hdr"), "hdr", hdr)


#: the header values a one-posting row reads: nb 1; max_tf, min_dl and
#: span 0 (its max_tf and min_dl are filled in from its payload and norms)
_ONE_POSTING_HDR = np.array([1, 0, 0, 0], np.int64)


def headerless(rows: pa.Table) -> np.ndarray:
    """True for each stored postings row whose header is empty (the writer
    leaves exactly the one-posting rows' empty)."""
    _, offs = _bin_view(_one_array(rows["hdr"]))
    return np.diff(offs) == 0


def _varint_streams(arr: pa.Array) -> Tuple[np.ndarray, np.ndarray]:
    """(every varint of a binary array of varint streams, its elements end
    to end; the number of varints in each element), from one scan for the
    bytes that end a varint."""
    vals, offs = _bin_view(arr)
    b = vals[offs[0]: offs[-1]]
    ends = np.flatnonzero(b < 128)
    starts = np.empty_like(ends)
    starts[:1] = 0
    starts[1:] = ends[:-1] + 1
    return (varints_at(b, starts, ends + 1),
            np.diff(np.searchsorted(ends, offs - offs[0])))


def unpack_rows(rows: pa.Table, norms=None, doc_base: int = 0
                ) -> Tuple[pa.Table, "RawBlocks", np.ndarray]:
    """Packed postings rows -> ``(rows, blocks, offsets)``: the rows without
    ``hdr`` and the payload columns; every row's blocks, in row order, as
    one :class:`RawBlocks` whose payloads are views over the rows' buffers;
    and the block offsets of the rows (row ``i`` holds blocks ``offsets[i]``
    to ``offsets[i + 1]``). One varint pass decodes every header and one
    gather (:func:`varints_at`) reads every block's ``first_doc``, and one
    more each one-posting row's tf, its ``max_tf``.

    A row without a header is a one-posting row (``verify.py`` checks that
    its ``df`` is 1); it stores no ``min_dl``: given ``norms`` ({field: its
    norms from ``doc_base``}, as a segment reader holds them, for every
    field among the rows; with more than one field the rows need their
    ``field`` column), its block takes its doc's norm, an exact bound;
    without, 0. Raises when a row's header disagrees with its payload
    bytes."""
    vals, nvals = _varint_streams(_one_array(rows["hdr"]))
    df = int64_column(_one_array(rows["df"]))
    single = nvals == 0
    # a one-posting row reads the header appended here, then its max_tf and
    # min_dl are filled in below
    vals = np.concatenate((vals, _ONE_POSTING_HDR))
    vstart = np.cumsum(nvals) - nvals
    vstart[single] = vals.size - _ONE_POSTING_HDR.size
    nb = vals[vstart]
    if (nb < 1).any():
        raise ValueError("a postings row header holds no blocks")
    views = [_bin_view(_one_array(rows[name])) for name in _PAYLOADS]
    loff = np.zeros(nb.size + 1, np.int64)
    np.cumsum(nb, out=loff[1:])
    rows_of = np.repeat(np.arange(nb.size), nb)
    in_row = np.arange(int(loff[-1])) - loff[:-1][rows_of]
    at = vstart[rows_of] + 1 + 3 * in_row
    max_tf, min_dl, span = vals[at[:, None] + np.arange(3)].T
    one = loff[:-1][single]  # the blocks of the one-posting rows
    if one.size:  # its tfs payload is its one tf: one byte below 128
        tfs, toffs = views[1]
        at, end = toffs[:-1][single], toffs[1:][single]
        tf = tfs[at]
        max_tf[one] = tf if (end - at == 1).all() and (tf < 128).all() else (
            varints_at(tfs, at, end))
    # n and payload lengths: a one-block row's are its df and row lengths
    m = nb[rows_of] > 1
    at = vstart[rows_of] + 1 + 3 * nb[rows_of] + 4 * in_row
    extra = vals[at[m][:, None] + np.arange(4)].T
    ns = np.repeat(df, nb)
    ns[m] = extra[0]
    offs = np.stack([o for _, o in views])
    lens = np.repeat(np.diff(offs, axis=1), nb, axis=1)
    lens[:, m] = extra[1:]
    boffs = np.zeros((len(views), lens.shape[1] + 1), np.int64)
    np.cumsum(lens, axis=1, out=boffs[:, 1:])
    boffs += offs[:, :1]
    if not np.array_equal(boffs[:, loff], offs):
        raise ValueError("postings row headers disagree with their payload bytes")
    firsts = varints_at(views[0][0], boffs[0, :-1], boffs[0, 1:])
    if norms and one.size:
        if len(norms) == 1:  # every row is of its one field
            (arr,) = norms.values()
            min_dl[one] = arr[firsts[one] - doc_base]
        else:
            fields = pc.dictionary_encode(_one_array(rows["field"]))
            code = int64_column(fields.indices)[single]
            for c, field in enumerate(fields.dictionary.to_pylist()):
                at = one[code == c]
                min_dl[at] = norms[field][firsts[at] - doc_base]
    blocks = RawBlocks(ns, max_tf, min_dl, firsts, firsts + span,
                       *((v, b) for (v, _), b in zip(views, boffs)))
    return rows.drop_columns(["hdr", *_PAYLOADS]), blocks, loff


class RawBlocks:
    """Zero-copy view over UNDECODED posting blocks: a term's (the blocks of
    its rows, in bucket order), or those of many rows laid end to end, the
    in-memory postings form (module docstring).

    Replaces the list-of-dict representation: materializing tens of thousands
    of Python block dicts (``to_pylist``) and re-joining their payload bytes
    dominated cold hot-term lookups. Here the metadata are int64 numpy
    arrays (``ns``, ``max_tf``, ``min_dl``, ``firsts``, ``lasts``) and each
    payload (``docs``, ``tfs``, ``pos``) a ``(bytes, offsets)`` view, block
    ``k``'s bytes ``offsets[k]`` to ``offsets[k + 1]`` (absolute, blocks end
    to end); decode slices the shared byte buffers directly (a single slice
    for a full decode; per-run slices for a selective one).

    ``nbytes`` counts the metadata arrays plus this term's own payload byte
    ranges. Sibling views from one multi-term read share that read's payload
    buffers, which stay alive while any of them does."""

    __slots__ = (
        "count", "ns", "max_tf", "min_dl", "firsts", "lasts", "docs", "tfs", "pos",
    )

    def __init__(self, ns, max_tf, min_dl, firsts, lasts, docs, tfs, pos):
        self.count = ns.size
        self.ns, self.max_tf, self.min_dl = ns, max_tf, min_dl
        self.firsts, self.lasts = firsts, lasts
        self.docs, self.tfs, self.pos = docs, tfs, pos

    def slice(self, lo: int, hi: int) -> "RawBlocks":
        """Blocks ``lo`` to ``hi``: metadata copied, payloads still views."""
        return RawBlocks(
            *(a[lo:hi].copy() for a in (self.ns, self.max_tf, self.min_dl,
                                        self.firsts, self.lasts)),
            *((v, o[lo: hi + 1].copy()) for v, o in (self.docs, self.tfs, self.pos)))

    def __len__(self) -> int:
        return self.count

    @property
    def nbytes(self) -> int:
        meta = (self.ns, self.max_tf, self.min_dl, self.firsts, self.lasts)
        views = (self.docs, self.tfs, self.pos)
        return sum(a.nbytes for a in meta) + sum(
            offs.nbytes + (int(offs[-1] - offs[0]) if offs.size else 0)
            for _vals, offs in views
        )

    @staticmethod
    def _gather(view: Tuple[np.ndarray, np.ndarray], sel: Optional[np.ndarray]) -> np.ndarray:
        vals, offs = view
        if offs.size <= 1:
            return np.empty(0, np.uint8)
        if sel is None:
            return vals[offs[0]: offs[-1]]
        if not sel.size:
            return np.empty(0, np.uint8)
        # concatenate per-RUN slices (selected blocks are usually contiguous)
        run_breaks = np.flatnonzero(np.diff(sel) != 1)
        run_starts = np.concatenate([[0], run_breaks + 1])
        run_ends = np.concatenate([run_breaks, [sel.size - 1]])
        pieces = [
            vals[offs[sel[a]]: offs[sel[b] + 1]]
            for a, b in zip(run_starts, run_ends)
        ]
        return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)

    def decode(
        self, want_positions: bool = False, keep: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """(doc_ids, tfs, flat positions|None) for all blocks, or only those
        where ``keep`` (a boolean mask over blocks) is True."""
        return self.decode_blocks(None if keep is None else np.flatnonzero(keep), want_positions)

    def decode_blocks(
        self, sel: Optional[np.ndarray], want_positions: bool = False
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """(doc_ids, tfs, flat positions|None) of the blocks ``sel`` (block
        indices, concatenated in the given order; None = all blocks)."""
        ns = self.ns if sel is None else self.ns[sel]
        if ns.size == 0 or int(ns.sum()) == 0:
            return (
                np.empty(0, np.int64),
                np.empty(0, np.int64),
                np.empty(0, np.int64) if want_positions else None,
            )
        block_starts = np.zeros(ns.size, dtype=np.int64)
        np.cumsum(ns[:-1], out=block_starts[1:])
        doc_deltas = decode_varints(self._gather(self.docs, sel))
        doc_ids = delta_decode(doc_deltas, block_starts, ns)
        tfs = decode_varints(self._gather(self.tfs, sel))
        pos = None
        if want_positions:
            doc_pos_starts = np.zeros(tfs.size, dtype=np.int64)
            np.cumsum(tfs[:-1], out=doc_pos_starts[1:])
            pos_deltas = decode_varints(self._gather(self.pos, sel))
            pos = delta_decode(pos_deltas, doc_pos_starts, tfs.astype(np.int64))
        return doc_ids, tfs, pos


def take_blocks(parts: Sequence[RawBlocks], sel: np.ndarray) -> RawBlocks:
    """Blocks ``sel`` (indices into ``parts``' blocks laid end to end) as
    one :class:`RawBlocks` whose payloads hold their bytes end to end in
    that order: the metadata gathered by the numpy index, each payload's
    bytes by one ``take`` over a binary view of them."""
    meta = (np.concatenate([getattr(p, a) for p in parts])[sel]
            for a in ("ns", "max_tf", "min_dl", "firsts", "lasts"))
    index = numeric_array(np.asarray(sel, np.int64))
    views = []
    for name in _PAYLOADS:
        arrs = [_binary_over(*getattr(p, name)) for p in parts]
        arr = arrs[0] if len(arrs) == 1 else pa.concat_arrays(arrs)
        views.append(_bin_view(arr.take(index)))
    return RawBlocks(*meta, *views)


def decode_postings(
    blocks, want_positions: bool = False
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """blocks (a sequence of dicts, as :func:`encode_postings` returns) ->
    (doc_ids, tfs, flat_positions|None), decoded through :class:`RawBlocks`."""
    blocks = list(blocks)
    meta = (np.array([b[k] for b in blocks], np.int64) for k in _META)
    views = []
    for name in _PAYLOADS:
        lens = np.array([len(b[name]) for b in blocks], np.int64)
        offs = np.zeros(lens.size + 1, np.int64)
        np.cumsum(lens, out=offs[1:])
        views.append((np.frombuffer(b"".join(b[name] for b in blocks), np.uint8), offs))
    return RawBlocks(*meta, *views).decode(want_positions)
