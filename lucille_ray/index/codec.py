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

Rows are written from their in-memory form, where a row's blocks are one
``list<BLOCK_STRUCT>`` cell (:data:`POSTINGS_SCHEMA`): the build, the window
merge and compaction's output work on that form. Readers take the blocks of
the rows they read as one :class:`RawBlocks` (numpy metadata, payload views)
instead. On disk a row keeps ``field``, ``term``,
``bucket``, ``df`` and ``total_tf`` and packs its blocks into four binaries
(as Lucene's postings format keeps each block's impacts inline with the
block):

* ``hdr``  — one varint stream: ``nb`` (blocks in the row); per block
  ``max_tf``, ``min_dl``, the zigzag of ``first_doc`` minus the previous
  block's (the first block's minus ``bucket``: 0 as the writers cut rows) and
  ``last_doc - first_doc``; then, only when ``nb > 1``, per block ``n`` and
  its ``docs``/``tfs``/``pos`` byte lengths. A one-block row takes ``n`` from
  ``df`` and its payload lengths from the row's;
* ``docs``, ``tfs``, ``pos`` — the row's blocks' payloads end to end.

:func:`pack_rows` (the writer's, from the in-memory form) and
:func:`unpack_rows` (every reader's, to :class:`RawBlocks`) each make one
varint pass over a whole column; the unpacked blocks' payloads are offsets
over the stored row buffers, not copies.

There is one encoder, :func:`encode_runs`: it takes all of a batch's posting
lists laid end to end and encodes them in one delta pass and one varint pass
per column, building the Arrow ``list<BLOCK_STRUCT>`` column from buffers.
The build and compaction call it once per batch (never per term);
:func:`encode_postings` is its one-list form returning block dicts. Readers
decode through :class:`RawBlocks`, one varint pass per column over the
selected blocks.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
import pyarrow as pa

BLOCK_SIZE = 128

BLOCK_STRUCT = pa.struct(
    [
        ("n", pa.int32()),
        ("max_tf", pa.int32()),
        ("min_dl", pa.int32()),
        ("first_doc", pa.int64()),
        ("last_doc", pa.int64()),
        ("docs", pa.binary()),
        ("tfs", pa.binary()),
        ("pos", pa.binary()),
    ]
)

POSTINGS_SCHEMA = pa.schema(
    [
        ("field", pa.string()),
        ("term", pa.string()),
        ("bucket", pa.int64()),
        ("df", pa.int64()),
        ("total_tf", pa.int64()),
        ("blocks", pa.list_(BLOCK_STRUCT)),
    ]
)

_META = ("n", "max_tf", "min_dl", "first_doc", "last_doc")
_PAYLOADS = ("docs", "tfs", "pos")
#: the stored columns :func:`unpack_rows` reads the blocks from
_BLOCK_SOURCES = ("bucket", "df", "hdr", *_PAYLOADS)


def _encode_varints_np(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized LEB128 varint encode -> (byte array, bytes-per-value)."""
    v = np.ascontiguousarray(values, dtype=np.uint64)
    if v.size == 0:
        return np.empty(0, dtype=np.uint8), np.empty(0, dtype=np.int64)
    nbytes = np.ones(v.size, dtype=np.int64)
    tmp = v >> np.uint64(7)
    while tmp.any():
        nbytes += tmp > 0
        tmp >>= np.uint64(7)
    total = int(nbytes.sum())
    out = np.zeros(total, dtype=np.uint8)
    starts = np.zeros(v.size, dtype=np.int64)
    np.cumsum(nbytes[:-1], out=starts[1:])
    max_b = int(nbytes.max())
    for j in range(max_b):
        mask = nbytes > j
        chunk = ((v[mask] >> np.uint64(7 * j)) & np.uint64(0x7F)).astype(np.uint8)
        cont = (nbytes[mask] > j + 1).astype(np.uint8) << 7
        out[starts[mask] + j] = chunk | cont
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
    lengths = ends - starts + 1
    out = np.zeros(ends.size, dtype=np.int64)
    single = lengths == 1
    out[single] = b[starts[single]]
    # the multi-byte MINORITY (block-start absolutes, long doc lengths, big
    # gaps) goes through the per-byte loop; posting streams are dominated by
    # single-byte deltas, so the 64-bit temporaries stay small
    multi = np.flatnonzero(~single)
    if multi.size:
        m_starts = starts[multi]
        m_lengths = lengths[multi]
        acc = np.zeros(multi.size, dtype=np.uint64)
        for j in range(int(m_lengths.max())):
            mask = m_lengths > j
            acc[mask] |= (
                b[m_starts[mask] + j].astype(np.uint64) & np.uint64(0x7F)
            ) << np.uint64(7 * j)
        out[multi] = acc.astype(np.int64)
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


def _binary_column(data: np.ndarray, value_len: np.ndarray, bounds: np.ndarray) -> pa.Array:
    """Binary array whose i-th element is the byte span of values
    ``bounds[i]:bounds[i + 1]`` of a varint stream (``data`` with per-value
    byte lengths ``value_len``), built straight from buffers."""
    boff = np.zeros(value_len.size + 1, dtype=np.int64)
    np.cumsum(value_len, out=boff[1:])
    offsets = boff[bounds]
    if offsets[-1] > np.iinfo(np.int32).max:
        raise ValueError("posting payload exceeds 2 GiB in one encode batch")
    return pa.BinaryArray.from_buffers(
        pa.binary(), bounds.size - 1,
        [None, pa.py_buffer(offsets.astype(np.int32)), pa.py_buffer(data)],
    )


def encode_runs(
    docs: np.ndarray, tfs: np.ndarray, run_starts: np.ndarray,
    pos: Optional[np.ndarray] = None, dls: Optional[np.ndarray] = None,
) -> pa.ListArray:
    """Encode many doc-sorted posting lists laid end to end -> one
    ``list<BLOCK_STRUCT>`` element per list.

    List ``i`` is ``docs[run_starts[i]:run_starts[i + 1]]`` (the last runs to
    the end; ``run_starts`` ascending, equal starts give empty lists), with
    aligned ``tfs``. ``pos`` (optional) is the flat concatenation of every
    posting's positions, ``tfs[j]`` of them per posting. ``dls`` (optional,
    aligned with ``docs``) is each posting doc's field length, or a lower
    bound on it; when given, every block stores the min over ITS OWN
    postings' values as ``min_dl``, else ``min_dl`` is 0.

    Block boundaries restart at every run start; all heavy work is one delta
    pass and one varint pass per column over the whole batch, block metadata
    comes from ``reduceat`` over block starts, and the Arrow column is built
    from buffers (no per-run or per-block Python)."""
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

    doc_col = _binary_column(*_encode_varints_np(delta_encode(docs, block_starts)), bounds)
    tf_col = _binary_column(*_encode_varints_np(tfs), bounds)
    if pos is not None:
        pos_offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(tfs, out=pos_offsets[1:])
        pos_deltas = delta_encode(pos, pos_offsets[:-1])
        pos_col = _binary_column(*_encode_varints_np(pos_deltas), pos_offsets[bounds])
    else:  # every block's pos payload is empty
        no_values = np.empty(0, dtype=np.int64)
        pos_col = _binary_column(no_values.astype(np.uint8), no_values, np.zeros_like(bounds))
    blocks = pa.StructArray.from_arrays(
        [
            pa.array(block_ends - block_starts, pa.int32()),
            pa.array(max_tf, pa.int32()),
            pa.array(min_dl, pa.int32()),
            pa.array(docs[block_starts], pa.int64()),
            pa.array(docs[block_ends - 1], pa.int64()),
            doc_col,
            tf_col,
            pos_col,
        ],
        fields=list(BLOCK_STRUCT),
    )
    return pa.ListArray.from_arrays(pa.array(list_offsets, pa.int32()), blocks)


def encode_postings(
    doc_ids: np.ndarray, tfs: np.ndarray, positions: Optional[np.ndarray],
    dls: Optional[np.ndarray] = None,
) -> List[dict]:
    """doc-sorted postings -> list of block dicts matching :data:`BLOCK_STRUCT`
    (one posting list through :func:`encode_runs`).

    ``positions`` is the flat concatenation of per-document position lists; the
    per-document counts are exactly ``tfs``. ``dls`` as in :func:`encode_runs`.
    """
    return encode_runs(doc_ids, tfs, np.zeros(1, np.int64), positions, dls).to_pylist()[0]


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


def stored_columns(columns) -> List[str]:
    """The stored columns to read for the in-memory ``columns``, in order
    and without repeats: ``blocks`` needs ``bucket``, ``df``, ``hdr`` and
    the three payloads."""
    return list(dict.fromkeys(
        c for name in columns
        for c in (_BLOCK_SOURCES if name == "blocks" else (name,))
    ))


def varint_counts(arr: pa.Array) -> np.ndarray:
    """Number of varints in each element of a binary array of varint
    streams (the bytes below 128 end a varint)."""
    vals, offs = _bin_view(arr)
    ends = np.zeros(offs[-1] - offs[0] + 1, np.int64)
    np.cumsum(vals[offs[0]: offs[-1]] < 128, out=ends[1:])
    return np.diff(ends[offs - offs[0]])


def _one_array(col: pa.ChunkedArray) -> pa.Array:
    """A table column as one Array (a one-chunk column without a copy)."""
    return col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()


def _binary_over(vals: np.ndarray, offsets: np.ndarray) -> pa.Array:
    """Binary array over the bytes ``vals`` with element boundaries
    ``offsets`` (absolute in ``vals``): no byte moves."""
    return pa.BinaryArray.from_buffers(
        pa.binary(), offsets.size - 1,
        [None, pa.py_buffer(offsets.astype(np.int32)), pa.py_buffer(vals)],
    )


def pack_rows(rows: pa.Table) -> pa.Table:
    """In-memory postings rows (a ``blocks`` column beside ``bucket`` and
    ``df``) -> the stored rows: ``blocks`` replaced by ``hdr``, ``docs``,
    ``tfs`` and ``pos`` (module docstring). One varint pass builds every
    header; the payload columns reuse the blocks' byte buffers. Raises on a
    block whose ``last_doc`` is below its ``first_doc`` and on a one-block
    row whose ``n`` is not its ``df`` (a reader could not recover either)."""
    lists = _one_array(rows["blocks"])
    loff = int64_column(lists.offsets)
    loff -= loff[0]
    nb = np.diff(loff)
    rb = RawBlocks(lists.flatten())
    rows_of = np.repeat(np.arange(nb.size), nb)
    in_row = np.arange(rb.count) - loff[:-1][rows_of]
    bucket = int64_column(_one_array(rows["bucket"]))
    df = int64_column(_one_array(rows["df"]))
    prev = np.empty(rb.count, np.int64)
    prev[1:] = rb.firsts[:-1]
    prev[in_row == 0] = bucket[nb > 0]
    span = rb.lasts - rb.firsts
    multi = nb > 1
    if (span < 0).any():
        raise ValueError("a postings block's last_doc is below its first_doc")
    if (rb.ns[in_row == 0][~multi[nb > 0]] != df[nb == 1]).any():
        raise ValueError("a one-block postings row's n is not its df")

    nvals = 1 + 4 * nb + 4 * nb * multi
    vstart = np.cumsum(nvals) - nvals
    vals = np.empty(int(nvals.sum()), np.int64)
    vals[vstart] = nb
    at = vstart[rows_of] + 1 + 4 * in_row
    # zigzag: a span compaction re-cuts can end past the next block's first doc
    gap = rb.firsts - prev
    zigzag = (gap << 1) ^ (gap >> 63)
    for k, v in enumerate((rb.max_tf, rb.min_dl, zigzag, span)):
        vals[at + k] = v
    m = multi[rows_of]
    at = (at + 4 * nb[rows_of])[m]
    vals[at] = rb.ns[m]
    payload = []
    for k, (data, offs) in enumerate((rb._docs, rb._tfs, rb._pos), 1):
        vals[at + k] = np.diff(offs)[m]
        payload.append(_binary_over(data, offs[loff]))
    hdr = _binary_column(*_encode_varints_np(vals), np.append(vstart, vals.size))
    out = rows.drop_columns(["blocks"])
    for name, arr in zip(("hdr", *_PAYLOADS), (hdr, *payload)):
        out = out.append_column(name, arr)
    return out


def unpack_rows(rows: pa.Table) -> Tuple[pa.Table, "RawBlocks", np.ndarray]:
    """Stored postings rows -> ``(rows, blocks, offsets)``: the rows without
    ``hdr`` and the payload columns; every row's blocks, in row order, as one
    :class:`RawBlocks` whose payloads are views over the stored row buffers;
    and the block offsets of the rows (row ``i`` holds blocks ``offsets[i]``
    to ``offsets[i + 1]``; :meth:`RawBlocks.list_array` makes them the
    in-memory ``blocks`` column). One varint pass decodes every header;
    raises when a row's header disagrees with its payload bytes."""
    hdr = _one_array(rows["hdr"])
    hdr_bytes, hoff = _bin_view(hdr)
    vals = decode_varints(hdr_bytes[hoff[0]: hoff[-1]])
    nvals = varint_counts(hdr)
    vstart = np.cumsum(nvals) - nvals
    nb = vals[vstart]
    bucket = int64_column(_one_array(rows["bucket"]))
    ns = int64_column(_one_array(rows["df"]))
    views = [_bin_view(_one_array(rows[name])) for name in _PAYLOADS]
    loff = np.zeros(nb.size + 1, np.int64)
    np.cumsum(nb, out=loff[1:])
    rows_of = np.repeat(np.arange(nb.size), nb)
    at = vstart[rows_of] + 1 + 4 * (np.arange(int(loff[-1])) - loff[:-1][rows_of])
    max_tf, min_dl, zz, span = vals[at[:, None] + np.arange(4)].T
    has = nb > 0
    firsts = (zz >> 1) ^ -(zz & 1)  # zigzag
    firsts[loff[:-1][has]] += bucket[has]
    firsts = delta_decode(firsts, loff[:-1][has], nb[has])
    # n and payload lengths: a one-block row's are its df and row lengths
    m = nb[rows_of] > 1
    extra = vals[(at + 4 * nb[rows_of])[m][:, None] + np.arange(4)].T
    ns = np.repeat(ns, nb)
    ns[m] = extra[0]
    offs = np.stack([o for _, o in views])
    lens = np.repeat(np.diff(offs, axis=1), nb, axis=1)
    lens[:, m] = extra[1:]
    boffs = np.zeros((len(views), lens.shape[1] + 1), np.int64)
    np.cumsum(lens, axis=1, out=boffs[:, 1:])
    boffs += offs[:, :1]
    if not np.array_equal(boffs[:, loff], offs):
        raise ValueError("postings row headers disagree with their payload bytes")
    blocks = RawBlocks.from_arrays(
        ns, max_tf, min_dl, firsts, firsts + span,
        *((v, b) for (v, _), b in zip(views, boffs)))
    return rows.drop_columns(["hdr", *_PAYLOADS]), blocks, loff


class RawBlocks:
    """Zero-copy view over one term's UNDECODED posting blocks (the flattened
    ``blocks`` struct children of its rows, in bucket order).

    Replaces the list-of-dict representation: materializing tens of thousands
    of Python block dicts (``to_pylist``) and re-joining their payload bytes
    dominated cold hot-term lookups. Here metadata columns are numpy views and
    payload decode slices the shared byte buffers directly (a single slice for
    a full decode; per-run slices for a selective one).

    ``nbytes`` counts the metadata arrays plus this term's own payload byte
    ranges. Sibling views from one multi-term read share that read's payload
    buffers, which stay alive while any of them does."""

    __slots__ = (
        "count", "ns", "max_tf", "min_dl", "firsts", "lasts", "_docs", "_tfs", "_pos",
    )

    def __init__(self, struct_arr: pa.Array):
        if isinstance(struct_arr, pa.ChunkedArray):
            struct_arr = struct_arr.combine_chunks()
        self._set(*(int64_column(struct_arr.field(f)) for f in _META),
                  *(_bin_view(struct_arr.field(f)) for f in _PAYLOADS))

    def _set(self, ns, max_tf, min_dl, firsts, lasts, docs, tfs, pos) -> None:
        self.count = ns.size
        self.ns, self.max_tf, self.min_dl = ns, max_tf, min_dl
        self.firsts, self.lasts = firsts, lasts
        self._docs, self._tfs, self._pos = docs, tfs, pos

    @classmethod
    def from_arrays(cls, *arrays) -> "RawBlocks":
        """Blocks from their int64 ``n``, ``max_tf``, ``min_dl``,
        ``first_doc`` and ``last_doc`` arrays and their ``docs``, ``tfs``
        and ``pos`` (bytes, absolute offsets) payload views."""
        rb = cls.__new__(cls)
        rb._set(*arrays)
        return rb

    def slice(self, lo: int, hi: int) -> "RawBlocks":
        """Blocks ``lo`` to ``hi``: metadata copied, payloads still views."""
        return RawBlocks.from_arrays(
            *(a[lo:hi].copy() for a in (self.ns, self.max_tf, self.min_dl,
                                        self.firsts, self.lasts)),
            *((v, o[lo: hi + 1].copy()) for v, o in (self._docs, self._tfs, self._pos)))

    def list_array(self, offsets: np.ndarray) -> pa.ListArray:
        """These blocks as a ``list<BLOCK_STRUCT>`` array whose list ``i``
        holds blocks ``offsets[i]`` to ``offsets[i + 1]``; the payloads stay
        views over the same bytes."""
        blocks = pa.StructArray.from_arrays(
            [*(numeric_array(a.astype(np.int32)) for a in (self.ns, self.max_tf, self.min_dl)),
             numeric_array(self.firsts), numeric_array(self.lasts),
             *(_binary_over(*v) for v in (self._docs, self._tfs, self._pos))],
            fields=list(BLOCK_STRUCT),
        )
        return pa.ListArray.from_arrays(numeric_array(offsets.astype(np.int32)), blocks)

    def __len__(self) -> int:
        return self.count

    @property
    def nbytes(self) -> int:
        meta = (self.ns, self.max_tf, self.min_dl, self.firsts, self.lasts)
        views = (self._docs, self._tfs, self._pos)
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
        doc_deltas = decode_varints(self._gather(self._docs, sel))
        doc_ids = delta_decode(doc_deltas, block_starts, ns)
        tfs = decode_varints(self._gather(self._tfs, sel))
        pos = None
        if want_positions:
            doc_pos_starts = np.zeros(tfs.size, dtype=np.int64)
            np.cumsum(tfs[:-1], out=doc_pos_starts[1:])
            pos_deltas = decode_varints(self._gather(self._pos, sel))
            pos = delta_decode(pos_deltas, doc_pos_starts, tfs.astype(np.int64))
        return doc_ids, tfs, pos


def decode_postings(
    blocks, want_positions: bool = False
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """blocks (a sequence of dicts matching :data:`BLOCK_STRUCT`, as
    :func:`encode_postings` returns) -> (doc_ids, tfs, flat_positions|None),
    decoded through :class:`RawBlocks`."""
    return RawBlocks(pa.array(list(blocks), BLOCK_STRUCT)).decode(want_positions)
