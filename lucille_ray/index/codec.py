"""Posting-list compression: delta-gap + varint blocks with per-block max-tf
metadata (block-max WAND style; north_star requires exactly this layout).

A posting list for one ``(field, term, doc-range-bucket)`` key is stored as
fixed-size blocks of up to :data:`BLOCK_SIZE` documents:

* ``docs``  — doc_id gaps (first absolute within block), varint
* ``tfs``   — term frequencies, varint
* ``pos``   — within-document token positions, delta-encoded per document then
  varint; document boundaries are implied by ``tfs`` (tf_i positions per doc)
* metadata — ``n`` (docs in block), ``max_tf`` (block-max for WAND-style pruning),
  ``first_doc``/``last_doc`` (range pruning without decode), ``min_dl`` (exact
  minimum doc length among the block's posting docs, for tight BM25 block
  upper bounds; 0 = unknown, readers fall back to a windowed norms minimum)

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
    aligned with ``docs``) is each posting doc's field length; when given,
    every block stores the exact min over ITS OWN docs — strictly tighter than
    any range-window bound a reader could derive — else ``min_dl`` is 0.

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
        self.count = len(struct_arr)
        self.ns = int64_column(struct_arr.field("n"))
        self.max_tf = int64_column(struct_arr.field("max_tf"))
        if struct_arr.type.get_field_index("min_dl") >= 0:
            self.min_dl = int64_column(struct_arr.field("min_dl"))
        else:  # pre-v3 segment: unknown — readers fall back to windowed norms
            self.min_dl = np.zeros(self.count, dtype=np.int64)
        self.firsts = int64_column(struct_arr.field("first_doc"))
        self.lasts = int64_column(struct_arr.field("last_doc"))
        self._docs = _bin_view(struct_arr.field("docs"))
        self._tfs = _bin_view(struct_arr.field("tfs"))
        self._pos = _bin_view(struct_arr.field("pos"))

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
    """blocks (sequence of dict-likes) -> (doc_ids, tfs, flat_positions|None).

    One vectorized varint pass per column over the concatenated block payloads
    (the per-block loop only joins bytes)."""
    if not blocks:
        return (
            np.empty(0, np.int64),
            np.empty(0, np.int64),
            np.empty(0, np.int64) if want_positions else None,
        )
    ns = np.fromiter((blk["n"] for blk in blocks), dtype=np.int64, count=len(blocks))
    block_starts = np.zeros(ns.size, dtype=np.int64)
    np.cumsum(ns[:-1], out=block_starts[1:])
    doc_deltas = decode_varints(b"".join(blk["docs"] for blk in blocks))
    doc_ids = delta_decode(doc_deltas, block_starts, ns)
    tfs = decode_varints(b"".join(blk["tfs"] for blk in blocks))
    pos = None
    if want_positions:
        doc_pos_starts = np.zeros(tfs.size, dtype=np.int64)
        np.cumsum(tfs[:-1], out=doc_pos_starts[1:])
        pos_deltas = decode_varints(b"".join(blk["pos"] for blk in blocks))
        pos = delta_decode(pos_deltas, doc_pos_starts, tfs.astype(np.int64))
    return doc_ids, tfs, pos
