"""Ray-Data-native inverted-index build over transcript turns.

``build_index`` and ``append_index`` write new segments the same way, in two
Ray Data executions (both stream with backpressure; no full materialization,
no copy of the corpus):

Phase 0 — doc ids (one narrow pass over the input, no shuffle)
  batch-level partial conversation counts -> driver prefix-sums conversation
  base offsets (:func:`_conv_offsets`). Doc ids are dense and follow the stable
  ``(conv_id, turn_idx)`` order (north_rule invariant); segments are contiguous
  doc-id ranges cut on conversation boundaries, and their ``[lo, hi)`` bounds
  are fixed here, before any segment is written: a build publishes them in its
  commit up front, an append in its own publish afterwards. Each segment keeps
  its doc metadata in ``convmap.parquet``, one ``(conv_id, base, cnt)`` row per
  conversation (doc_id = base + turn_idx), written from the offsets the driver
  already holds.

Phase 1 — postings, ONE execution for every segment of the write
  (:func:`_write_segments`): ``map_batches`` attaches ``doc_id = conv_base +
  turn_idx`` (conv->base broadcast via ``ray.put``) and ``seg``, the segment
  whose committed ``lo`` is the last at or below the doc id -> when the write
  has more than one segment, a sort by doc id (Ray samples its boundaries,
  one partition per input block), so that a batch holds consecutive docs,
  of one segment but at a segment boundary, whatever the input order -> each
  batch tokenizes with Arrow kernels, groups its postings with one numpy
  lexsort and encodes all of its posting lists per field in one
  ``codec.encode_runs`` call (:class:`_TokenizeEncode`, per segment part of
  the batch) -> windows of those pieces are merged locally, per segment
  (:func:`_piece_merge_batch`) ->
  :class:`~.writer.PostingsSink` routes each segment's term rows to its
  postings directory and its norms rows to a staging directory beside it.
  After the execution each segment is finished in order: its norms files (or
  a field's one constant norm) and ``stats.json`` from the staged norms
  rows, its doc map, its manifest.
  ``compact_index`` consolidates each term's pieces after the build.

Resume: the checkpoint unit is the segment, and a segment with a complete
MANIFEST.json is never rebuilt. A re-run over a commit whose segments are all
complete returns at once, with no pass over the input. Otherwise it re-runs
Phase 0, raises ``ValueError`` ("input changed since the build's commit") when
the doc count or any segment's bounds differ from the commit, wipes the
pending segments' directories and runs Phase 1 over the rows of the pending
segments only. Segments of one execution finish together: every segment of a
write is in flight at once, so a driver crash before their manifests loses
all of them.

Skew strategy: a term's postings are split across one piece per tokenize batch
(doc-id range) *by construction* — no single task ever merges a whole hot
posting list (stopword-like tokens in chat data). Because pieces follow doc-id
ranges, a term's rows concatenate back into a doc-sorted posting list with (at
most) a cheap re-sort at decode time. This replaces hash-salting + re-merge with
something strictly better.

Scale notes (100 TB / 10^12 turns): the conv-base broadcast is
O(#conversations) — beyond driver memory the ``ranged`` doc-id mode swaps Phase 0
for a range-partitioned sort + per-partition offsets pass and attaches bases by
a distributed join, everything else unchanged. The input is read twice (a
two-column scan, then the postings pass) and never copied to disk; a write of
one segment has no all-to-all exchange in driver mode, and a write of several
has one, the doc-id sort (one partition per input block).

This build has no counterpart in the reference (a pure parser library — SURVEY.md
§4); semantics come from Lucene's documented behavior for the parsed AST.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import shutil
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..analysis import INDEXED_FIELDS, arrow_tokenize
from . import commit
from .codec import (BLOCK_SIZE, RawBlocks, encode_runs, int64_column, pack_rows,
                    row_order, seg_parts, sort_postings, unpack_rows, with_seg)

DEFAULT_RANGE_WIDTH = 1 << 17  # docs per posting bucket (128k)

#: reserved pseudo-term whose "postings" carry per-doc field lengths (norms)
#: through the build's Ray Data stream: doc_ids = every doc of the piece, tfs
#: = dl. The analyzer can never produce it (it only emits [a-z0-9]+ runs).
#: :func:`_finish_segment` turns them into the segment's norms files.
NORMS_TERM = "\x00dl"

#: directory in an uncommitted segment that holds its staged norms rows;
#: :func:`_finish_segment` removes it before the manifest lands
_NORMS_STAGING = "norms.staging"

_THREADS_LIMITED = False


def _limit_worker_threads() -> None:
    """Pin per-task kernel thread pools to 1 CPU inside Ray workers.

    Arrow compute sizes its pools to the *machine's* cores, not the Ray CPU
    allocation — N concurrent tasks would otherwise each fan out machine-wide,
    oversubscribing the node and silently breaking the 1-task == 1-CPU
    accounting that cluster scaling relies on."""
    global _THREADS_LIMITED
    if _THREADS_LIMITED:
        return
    try:
        pa.set_cpu_count(1)
        pa.set_io_thread_count(2)
    except Exception:
        pass
    _THREADS_LIMITED = True

MANIFEST_FILE = commit.MANIFEST_FILE
#: per-segment doc map, one file: one (conv_id, base, cnt) row per
#: conversation, sorted by base, covering exactly the segment's doc range
CONVMAP_FILE = "convmap.parquet"


def norms_file(field: str) -> str:
    """A segment's norms of ``field``: per-doc lengths, dense over its doc
    range, in the narrowest unsigned dtype that holds them. A field whose
    docs all have one length ``c`` has no such file: its ``stats.json``
    entry holds ``"norm": c`` beside ``total_dl`` (Lucene's constant norms)."""
    return f"norms_{field}.npy"


# ---------------------------------------------------------------------------
# Phase 0 — doc-id assignment
# ---------------------------------------------------------------------------


def _conv_partial_counts(batch: pa.Table) -> pa.Table:
    """One partial row per conv RUN in the batch (cnt / max turn / turn sum).

    Run-length segmentation, not a hash group_by: transcripts arrive in
    (conv_id, turn_idx) order, so a conv is 1 run and the output is sorted —
    the tree-merge's sorted fast path then never sorts. A conv split across
    runs (unordered input) just emits multiple mergeable partial rows; the
    merge sums them, so correctness never depends on the ordering. The
    previous per-batch polars group_by was ~16 CPU-seconds of the 10M build
    (the docID phase's scaling-limiting term)."""
    _limit_worker_threads()
    conv = batch["conv_id"].combine_chunks()
    n = len(conv)
    if n == 0:
        # keep the SOURCE conv_id type (large_string sources would otherwise
        # schema-mismatch non-empty partials in the merge concat)
        return pa.table(
            {
                "conv_id": pa.array([], conv.type),
                "cnt": pa.array([], pa.int64()),
                "mx": pa.array([], pa.int64()),
                "sm": pa.array([], pa.int64()),
            }
        )
    turn = batch["turn_idx"].to_numpy(zero_copy_only=False).astype(np.int64)
    if n == 1:
        starts = np.zeros(1, dtype=np.int64)
    else:
        neq = pa.compute.not_equal(
            conv.slice(1), conv.slice(0, n - 1)
        ).to_numpy(zero_copy_only=False)
        starts = np.concatenate(([0], np.flatnonzero(neq) + 1)).astype(np.int64)
    cnt = np.diff(np.append(starts, n)).astype(np.int64)
    return pa.table(
        {
            "conv_id": conv.take(pa.array(starts)),
            "cnt": pa.array(cnt),
            "mx": pa.array(np.maximum.reduceat(turn, starts)),
            "sm": pa.array(np.add.reduceat(turn, starts)),
        }
    )


def _validate_turn_density(
    convs, counts: np.ndarray, max_turn: np.ndarray, turn_sum: np.ndarray
) -> None:
    """turn_idx must be exactly {0..n-1} per conversation: the max check catches
    truncation, the sum check catches duplicated/missing indices that keep the
    same max (e.g. [0,0,2]) — those would mint duplicate doc_ids and only
    surface later as a confusing norms error at query time.

    ``convs`` may be a list OR an Arrow array; it is only indexed on failure
    (materializing millions of conv ids into Python was 10-20% of build time)."""
    ok = (max_turn + 1 == counts) & (turn_sum == counts * (counts - 1) // 2)
    if not ok.all():
        bad = convs[int(np.argmax(~ok))]
        if hasattr(bad, "as_py"):
            bad = bad.as_py()
        raise ValueError(
            f"turn_idx must be dense+unique 0..n-1 per conversation; violated by {bad!r}"
        )


def _merge_conv_partials(tables: List[pa.Table]) -> pa.Table:
    """Sort + segment-reduce per-batch conv partials into one conv-sorted table
    with ONE row per conv (cnt/sm summed, mx maxed). The merge is associative,
    so it runs identically as a tree-reduce leaf/root task or on the driver —
    sort + numpy reduceat measured ~15x faster than Ray's generic string-key
    groupby shuffle and ~2x an Arrow hash group_by for the same result."""
    parts = pa.concat_tables(tables)
    if parts.num_rows == 0:
        return parts
    conv_col = parts["conv_id"].combine_chunks()
    n = len(conv_col)
    # sorted fast path: ordered input yields sorted per-block partials whose
    # concat (block order) is already globally sorted — the O(n log n)
    # sort_indices + take was the tree root's ~1 s fixed tail at 10M
    if n > 1 and not pa.compute.all(
        pa.compute.less_equal(conv_col.slice(0, n - 1), conv_col.slice(1))
    ).as_py():
        order = pa.compute.sort_indices(parts["conv_id"])
        parts = parts.take(order)
        conv_col = parts["conv_id"].combine_chunks()
    if n == 1:
        starts = np.zeros(1, dtype=np.int64)
    else:
        neq = pa.compute.not_equal(
            conv_col.slice(1), conv_col.slice(0, n - 1)
        ).to_numpy(zero_copy_only=False)
        starts = np.concatenate(([0], np.flatnonzero(neq) + 1)).astype(np.int64)
    cnt_all = parts["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
    mx_all = parts["mx"].to_numpy(zero_copy_only=False).astype(np.int64)
    sm_all = parts["sm"].to_numpy(zero_copy_only=False).astype(np.int64)
    return pa.table(
        {
            "conv_id": conv_col.take(pa.array(starts)),
            "cnt": pa.array(np.add.reduceat(cnt_all, starts)),
            "mx": pa.array(np.maximum.reduceat(mx_all, starts)),
            "sm": pa.array(np.add.reduceat(sm_all, starts)),
        }
    )


def _merge_conv_partials_task(*tables) -> pa.Table:
    _limit_worker_threads()
    return _merge_conv_partials(list(tables))


#: tree-reduce fanout for the conv-partials merge; also the ref-count bound
#: under which the merge just runs on the driver (task overhead > work)
CONV_MERGE_FANOUT = 8

_MERGE_TASK = None  # lazily-created ray.remote wrapper (module import is ray-free)


def _conv_offsets(ds) -> Tuple[List[str], np.ndarray, np.ndarray]:
    """Conversation -> turn count (+ density/uniqueness validation).

    Pre-aggregated per batch (one partial row per conv per batch), then
    tree-reduced in Ray tasks (fanout :data:`CONV_MERGE_FANOUT`) down to a
    single conv-sorted table — the driver never sorts the O(sum partial rows)
    concat (~0.9 s serial at 10M turns, the build's residual Amdahl term; every
    serial driver second costs the wide level 4x the ratio damage of the narrow
    one). Driver memory stays O(#convs) for the final map; past
    ``DOCID_DRIVER_MAX_ROWS`` input rows, ``build_index`` switches to the
    range-partitioned :func:`_docmap_ranged` path instead."""
    import ray

    # narrow the scan to 2 columns. select_columns does NOT push into
    # ReadParquet (verified on this Ray version: the projected stream still
    # decodes + ships the text payload, ~2.5x the cost), so when the dataset
    # is a plain parquet read we re-read the source with columns= instead.
    # CONTRACT: _lucille_parquet_src is set ONLY by read_transcripts, directly
    # on the untransformed read of that exact path (transforms return new
    # Dataset objects, so the tag cannot leak through a map/filter); the
    # source files must not change between this counts scan and the docmap
    # scan that consumes `ds`, or doc_ids desync — see read_transcripts.
    src = getattr(ds, "_lucille_parquet_src", None)
    if src is not None:
        import ray.data

        narrow = ray.data.read_parquet(src, columns=["conv_id", "turn_idx"])
    else:
        narrow = ds.select_columns(["conv_id", "turn_idx"])
    refs = narrow.map_batches(
        _conv_partial_counts, batch_format="pyarrow", batch_size=65536
    ).materialize().to_arrow_refs()  # no Limit[1] schema probe
    if len(refs) > CONV_MERGE_FANOUT:
        global _MERGE_TASK
        if _MERGE_TASK is None:
            _MERGE_TASK = ray.remote(num_cpus=1)(_merge_conv_partials_task)
        while len(refs) > 1:
            refs = [
                _MERGE_TASK.remote(*refs[i : i + CONV_MERGE_FANOUT])
                for i in range(0, len(refs), CONV_MERGE_FANOUT)
            ]
        merged = ray.get(refs[0])
    else:
        merged = _merge_conv_partials(ray.get(refs))
    if merged.num_rows == 0:
        empty = np.zeros(0, dtype=np.int64)
        return pa.array([], pa.string()), empty, empty.copy()
    counts = merged["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
    max_turn = merged["mx"].to_numpy(zero_copy_only=False).astype(np.int64)
    turn_sum = merged["sm"].to_numpy(zero_copy_only=False).astype(np.int64)
    convs = merged["conv_id"].combine_chunks()  # stays Arrow; no Python list
    _validate_turn_density(convs, counts, max_turn, turn_sum)
    bases = np.zeros(len(convs), dtype=np.int64)
    np.cumsum(counts[:-1], out=bases[1:])
    return convs, bases, counts


_CONV_MAP_CACHE: Dict[str, dict] = {}


def _attach_seg(batch: pa.Table, doc_id: np.ndarray, segments) -> pa.Table:
    """``batch`` with ``doc_id`` and ``seg`` columns, only the rows whose doc
    lies in one of ``segments`` (non-empty ``(number, lo, hi)``, ascending):
    a row's segment is the one whose committed ``lo`` is the last at or below
    its doc id, and the rows of segments not written are dropped."""
    num, lo, hi = (np.array(c, dtype=np.int64) for c in zip(*segments))
    i = np.maximum(np.searchsorted(lo, doc_id, side="right") - 1, 0)
    out = batch.append_column("doc_id", pa.array(doc_id)).append_column(
        "seg", pa.array(num[i].astype(np.int32))
    )
    keep = (doc_id >= lo[i]) & (doc_id < hi[i])
    return out if keep.all() else out.filter(pa.array(keep))


def _assign_doc_ids(batch: pa.Table, conv_map_ref, segments) -> pa.Table:
    """Attach doc_id/seg (:func:`_attach_seg`). The conv->base table is
    broadcast as an Arrow table (``ray.get`` of it is zero-copy from local
    plasma); per WORKER PROCESS it is converted ONCE into a sorted numpy
    unicode array + base vector, so the per-batch lookup is a vectorized
    ``np.searchsorted`` (the previous per-row Python dict loop was the docmap
    hot path; a pickled dict per task before that measured 123us/row)."""
    _limit_worker_threads()
    import ray

    key = conv_map_ref.hex()
    lookup = _CONV_MAP_CACHE.get(key)
    if lookup is None:
        tbl = ray.get(conv_map_ref)
        conv_sorted = tbl["conv_id"].combine_chunks().to_numpy(
            zero_copy_only=False
        ).astype(str)  # sorted by construction (_conv_offsets sorts)
        base_sorted = tbl["base"].to_numpy().astype(np.int64)
        _CONV_MAP_CACHE.clear()  # one build at a time; don't hold stale maps
        lookup = _CONV_MAP_CACHE[key] = (conv_sorted, base_sorted)
    conv_sorted, base_sorted = lookup
    convs = batch["conv_id"].to_numpy(zero_copy_only=False).astype(conv_sorted.dtype)
    turn = batch["turn_idx"].to_numpy(zero_copy_only=False).astype(np.int64)
    idx = np.searchsorted(conv_sorted, convs)
    idx = np.clip(idx, 0, conv_sorted.size - 1)
    if not (conv_sorted[idx] == convs).all():
        missing = convs[conv_sorted[idx] != convs][0]
        raise ValueError(f"conv_id {missing!r} not present in the offsets map")
    return _attach_seg(batch, base_sorted[idx] + turn, segments)


#: past this many input rows, build_index switches from the driver conv-map
#: merge (O(#conversations) driver memory) to the fully distributed
#: range-partitioned path
DOCID_DRIVER_MAX_ROWS = 50_000_000


def _conv_block_stats(tbl: pa.Table) -> Tuple[int, int]:
    """Validate one sorted conv-count block and return (n_convs, total_turns)."""
    counts = tbl["sum(cnt)"].to_numpy().astype(np.int64)
    max_turn = tbl["max(mx)"].to_numpy().astype(np.int64)
    turn_sum = tbl["sum(sm)"].to_numpy().astype(np.int64)
    _validate_turn_density(tbl["conv_id"], counts, max_turn, turn_sum)
    return tbl.num_rows, int(counts.sum())


def _conv_block_bases(tbl: pa.Table, block_base: int) -> pa.Table:
    """One sorted conv-count block + its global base -> (conv_id, base, cnt)."""
    counts = tbl["sum(cnt)"].to_numpy().astype(np.int64)
    bases = np.full(counts.size, block_base, dtype=np.int64)
    np.cumsum(counts[:-1], out=bases[1:])
    bases[1:] += block_base
    return pa.table(
        {
            "conv_id": tbl["conv_id"],
            "base": pa.array(bases),
            "cnt": pa.array(counts),
        }
    )


def _seg_bounds_partial(
    tbl: pa.Table, seg_target: int, num_segments: int
) -> List[Tuple[int, int, int]]:
    """Per-segment (seg, lo, hi) partials from one (conv_id, base, cnt) block."""
    base = tbl["base"].to_numpy()
    cnt = tbl["cnt"].to_numpy()
    seg = np.minimum(base // seg_target, num_segments - 1)
    out = []
    for s in np.unique(seg):
        m = seg == s
        out.append((int(s), int(base[m].min()), int((base[m] + cnt[m]).max())))
    return out


def _assign_from_base(batch: pa.Table, segments) -> pa.Table:
    """Post-join doc-id assignment (:func:`_attach_seg`): rows already carry
    the conversation base."""
    _limit_worker_threads()
    base = batch["base"].to_numpy(zero_copy_only=False).astype(np.int64)
    turn = batch["turn_idx"].to_numpy(zero_copy_only=False).astype(np.int64)
    keep = [c for c in batch.column_names if c not in ("base", "cnt")]
    return _attach_seg(batch.select(keep), base + turn, segments)


def _docmap_ranged(ds):
    """Fully distributed conversation-offset assignment (no O(#convs) driver
    state): per-batch partial counts -> distributed groupby(conv_id) sum ->
    range-partitioned sort(conv_id) -> per-block totals (driver holds only
    O(#blocks) integers) -> per-block prefixed base tables left IN the object
    store. Returns (conv_bases_ds, base_refs, total_docs, n_convs).

    The caller joins the input against conv_bases_ds on conv_id (distributed
    hash join) instead of broadcasting a driver dict — the 10^12-turn path the
    docstring of :func:`_conv_offsets` promises."""
    import ray
    import ray.data
    from ray.data.aggregate import Max, Sum

    agg = (
        ds.select_columns(["conv_id", "turn_idx"])  # prune text off the scan
        .map_batches(_conv_partial_counts, batch_format="pyarrow",
                     batch_size=65536)
        .groupby("conv_id")
        .aggregate(Sum("cnt"), Max("mx"), Sum("sm"))
    )
    sorted_counts = agg.sort("conv_id").materialize()
    refs = sorted_counts.to_arrow_refs()
    stats_task = ray.remote(num_cpus=0.5)(_conv_block_stats)
    stats = ray.get([stats_task.remote(r) for r in refs])
    totals = np.array([s[1] for s in stats], dtype=np.int64)
    n_convs = int(sum(s[0] for s in stats))
    total_docs = int(totals.sum())
    block_bases = np.zeros(len(refs), dtype=np.int64)
    if len(refs) > 1:
        np.cumsum(totals[:-1], out=block_bases[1:])
    base_task = ray.remote(num_cpus=0.5)(_conv_block_bases)
    base_refs = [
        base_task.remote(r, int(b)) for r, b in zip(refs, block_bases)
    ]
    conv_ds = ray.data.from_arrow_refs(base_refs)
    return conv_ds, base_refs, total_docs, n_convs


# ---------------------------------------------------------------------------
# Per-segment doc maps (CONVMAP_FILE)
# ---------------------------------------------------------------------------


def _driver_conv_maps(
    convs, bases: np.ndarray, counts: np.ndarray, seg_target: int, nseg: int,
    base0: int = 0,
) -> Tuple[List[pa.Table], List[List[int]]]:
    """Per-segment doc maps and ``[lo, hi)`` doc bounds from the driver's
    conversation offsets (``bases`` relative to ``base0``): a conversation
    belongs to the ``seg_target``-wide slot its base falls in, so every
    segment is a contiguous run of conversations (``[0, 0]`` when empty)."""
    seg_of_conv = np.minimum(bases // seg_target, nseg - 1)
    cut = np.searchsorted(seg_of_conv, np.arange(nseg + 1))
    conv_str = pa.compute.cast(convs, pa.string())
    maps, bounds = [], []
    for s in range(nseg):
        a, b = int(cut[s]), int(cut[s + 1])
        maps.append(
            pa.table(
                {
                    "conv_id": conv_str.slice(a, b - a),
                    "base": pa.array(bases[a:b] + base0, pa.int64()),
                    "cnt": pa.array(counts[a:b], pa.int64()),
                }
            )
        )
        bounds.append(
            [int(bases[a]) + base0, int(bases[b - 1] + counts[b - 1]) + base0]
            if b > a else [0, 0]
        )
    return maps, bounds


def _write_ranged_conv_map(base_refs: list, path: str, lo: int, hi: int) -> None:
    """Ranged mode, one Ray task per segment: the rows of each object-store
    base table in ``base_refs`` (those the segment overlaps, in order) whose
    base lies in ``[lo, hi)``, streamed into the segment's one doc-map file,
    one base table in memory at a time. The tables are sorted by conv_id with
    increasing bases (:func:`_docmap_ranged`), so the file is sorted by base."""
    import ray

    schema = pa.schema([("conv_id", pa.string()), ("base", pa.int64()),
                        ("cnt", pa.int64())])
    with pq.ParquetWriter(path, schema) as writer:
        for ref in base_refs:  # (conv_id, base, cnt), see _conv_block_bases
            tbl = ray.get(ref)
            base = tbl["base"]
            sub = tbl.filter(pa.compute.and_(pa.compute.greater_equal(base, lo),
                                             pa.compute.less(base, hi)))
            del tbl
            if sub.num_rows:
                writer.write_table(pa.table(
                    [pa.compute.cast(sub["conv_id"], pa.string()),
                     sub["base"], sub["cnt"]], schema=schema,
                ))


# ---------------------------------------------------------------------------
# Phase 1 — tokenize -> encoded posting pieces (vectorized)
# ---------------------------------------------------------------------------


def _posting_rows(
    field: str, terms: Sequence[str], docs: np.ndarray, tfs: np.ndarray,
    run_starts: np.ndarray, pos: Optional[np.ndarray], dls: Optional[np.ndarray],
) -> pa.Table:
    """Packed posting rows of one field, one per doc-sorted run of ``docs``
    (term ``terms[i]`` starts at ``run_starts[i]``), encoded in one
    :func:`~.codec.encode_runs` call."""
    keys = pa.table({"field": pa.array([field] * run_starts.size, pa.string()),
                     "term": pa.array(terms, pa.string())})
    return pack_rows(keys, *encode_runs(docs, tfs, run_starts, pos, dls))


class _TokenizeEncode:
    """Shuffle-free postings build: each batch emits its *final* encoded
    posting rows, packed (``codec.pack_rows``), for each segment part of the
    batch separately (every row, the norms row included, holds the docs of
    one segment, named by its ``seg`` column).

    Works because posting rows of one term only need to concatenate back in
    doc-id order at read time — the reader doc-sorts on decode when pieces
    interleave (rare). Hot terms are spread across every batch by construction,
    so there is no skewed merge task and no all-to-all exchange at all; the only
    cost is one posting row per (term, batch) instead of one per term.
    ``_piece_merge_batch`` (in-build, window-local) and ``compact_index``
    (post-build, global sort-merge) consolidate the pieces."""

    def __init__(self, fields: Sequence[str], range_width: int):
        self.fields = tuple(fields)
        self.range_width = range_width

    def __call__(self, batch: pa.Table) -> pa.Table:
        _limit_worker_threads()
        parts = [with_seg(self._encode(rows), s) for s, rows in seg_parts(batch)]
        if not parts:
            none = np.empty(0, np.int64)
            return with_seg(_posting_rows("", [], none, none, none, None, None), 0)
        return pa.concat_tables(parts)

    def _encode(self, batch: pa.Table) -> pa.Table:
        doc_np = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        parts = []
        for field in self.fields:
            toks = arrow_tokenize(batch[field])
            flat = toks.flatten()
            n_tok = len(flat)
            counts = pa.compute.list_value_length(toks).to_numpy(
                zero_copy_only=False
            ).astype(np.int64)
            # norms ride along as a reserved-term posting row: every doc of the
            # batch (dl=0 included), tfs = field length — no extra tokenize pass
            nd, ndl, _ = sort_postings(doc_np, counts, None)
            parts.append(
                _posting_rows(
                    field, [NORMS_TERM], nd, ndl,
                    np.zeros(1, np.int64), None, None,
                )
            )
            if n_tok == 0:
                continue
            offsets = np.zeros(counts.size + 1, dtype=np.int64)
            np.cumsum(counts, out=offsets[1:])
            doc_rep = np.repeat(doc_np, counts)
            pos = np.arange(n_tok, dtype=np.int64) - np.repeat(offsets[:-1], counts)

            # dictionary-encode terms (C), map codes to sorted-term ranks, then one
            # stable lexsort by (rank, doc) — token order inside a (term, doc) run
            # stays ascending, so positions need no further sorting
            denc = flat.dictionary_encode()
            codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
            dict_terms = np.asarray(denc.dictionary.to_pylist(), dtype=object)
            term_order = np.argsort(dict_terms, kind="stable")
            rank_of_code = np.empty(dict_terms.size, dtype=np.int64)
            rank_of_code[term_order] = np.arange(dict_terms.size, dtype=np.int64)
            ranks = rank_of_code[codes]
            order = np.lexsort((doc_rep, ranks))
            r_s, d_s, p_s = ranks[order], doc_rep[order], pos[order]

            # run = one (term, doc); group = one (term, range-bucket)
            newrun = np.empty(n_tok, dtype=bool)
            newrun[0] = True
            newrun[1:] = (r_s[1:] != r_s[:-1]) | (d_s[1:] != d_s[:-1])
            run_starts = np.flatnonzero(newrun)
            nruns = run_starts.size
            tf = np.diff(np.append(run_starts, n_tok))
            run_docs = d_s[run_starts]
            run_ranks = r_s[run_starts]
            # exact per-posting doc length (for per-block min_dl): one
            # vectorized lookup against the batch's sorted (doc, dl) arrays
            run_dls = ndl[np.searchsorted(nd, run_docs)]
            run_buckets = run_docs // self.range_width
            newgrp = np.empty(nruns, dtype=bool)
            newgrp[0] = True
            newgrp[1:] = (run_ranks[1:] != run_ranks[:-1]) | (
                run_buckets[1:] != run_buckets[:-1]
            )
            grp_starts = np.flatnonzero(newgrp)
            parts.append(
                _posting_rows(
                    field, dict_terms[term_order[run_ranks[grp_starts]]],
                    run_docs, tf, grp_starts, p_s, run_dls,
                )
            )
        return pa.concat_tables(parts)


class _SparseDls:
    """Doc-length lookup over a sparse (sorted docs, dls) pair.

    Quacks like the dense per-segment norms array compaction hands to
    ``compact._reencode_spans`` (``arr[doc_ids]``): docs absent from the window
    map to dl=0, and a posting of such a doc takes its source block's stored
    ``min_dl`` instead."""

    __slots__ = ("docs", "dls")

    def __init__(self, docs: np.ndarray, dls: np.ndarray):
        self.docs, self.dls = docs, dls

    def __getitem__(self, doc_arr: np.ndarray) -> np.ndarray:
        if self.docs.size == 0:
            return np.zeros(len(doc_arr), np.int64)
        idx = np.clip(np.searchsorted(self.docs, doc_arr), 0, self.docs.size - 1)
        return np.where(self.docs[idx] == doc_arr, self.dls[idx], 0)


def _is_norms_row(rows: pa.Table) -> pa.ChunkedArray:
    """Mask of the norms rows among postings rows ``rows``."""
    return pa.compute.equal(rows["term"], pa.scalar(NORMS_TERM, pa.string()))


def _decode_norms(rows: pa.Table, blocks: RawBlocks, offsets: np.ndarray) -> dict:
    """field -> :class:`_SparseDls` decoded from the NORMS_TERM rows among
    unpacked postings rows (``codec.unpack_rows``): a merge window's or a
    segment's staged rows. Each tokenize piece carries a norms row covering
    exactly its docs, so a window of whole pieces resolves every doc its
    term rows reference; a doc whose norms row landed in a neighbouring
    window counts at its source block's ``min_dl`` when its block is
    re-cut."""
    is_norms = _is_norms_row(rows).to_numpy(zero_copy_only=False)
    nb = np.diff(offsets)
    sel = np.flatnonzero(np.repeat(is_norms, nb))
    docs, dls, _ = blocks.decode_blocks(sel)
    field = np.repeat(np.asarray(rows["field"].to_pylist(), dtype=object), nb)[sel]
    field = np.repeat(field, blocks.ns[sel])
    out: dict = {}
    for f in set(field.tolist()):
        out[f] = _SparseDls(*sort_postings(docs[field == f], dls[field == f], None)[:2])
    return out


#: in-build merge engages only when at least this fraction of a window's
#: blocks are undersized fragments: merging buys nothing on low-fragmentation
#: windows (long runs of full blocks — e.g. hot terms over big batches) and
#: its row materialization cost measured a 22% 8-cpu build-throughput hit on
#: such a corpus (BASELINE.md); heavy-tailed real vocabularies sit far above
#: this threshold and merge every window
PIECE_MERGE_MIN_FRAG = 0.25

#: in-build merge window (piece rows); 0 writes raw per-batch pieces. The
#: merge stage's task count is ``total_piece_rows / window``: too large a
#: window starves CPUs on small-vocabulary corpora (a 262144 window measured
#: 2-3 merge tasks per 10M-turn segment and dragged 2→8-cpu build scaling to
#: 0.63), while a window below one tokenize batch's row count merges nothing
PIECE_MERGE_ROWS = 65_536


def _piece_merge_batch(batch: pa.Table) -> pa.Table:
    """In-build piece compaction (shuffle-free): locally sort each segment's
    part of a window of tokenize-encode piece rows by (field, term, bucket)
    and merge each term's adjacent undersized fragments with the same
    LSM-style block-preserving merge full compaction uses
    (``compact._merge_sorted_batch``). Segments merge apart, so no row ever
    mixes two segments' docs. Norms rows pass through unmerged: the sink
    stages them for :func:`_finish_segment`.

    Bounds pieces-per-term by ``ceil(segment_rows / window_rows)`` instead of
    ``ceil(segment_docs / batch_docs)`` — at a 2.5M-doc segment with 4k-doc
    tokenize batches that is ~600 piece rows (each trailing an undersized
    fragment block) collapsing to a handful — while keeping the build's
    zero-all-to-all property: the merge only ever sees rows already on this
    worker. Output rows stay (field, term)-clustered, so parquet row-group
    min/max stats prune term lookups even before full compaction.

    Merge POLICY (LSM-style): a peek at the window's per-block posting
    counts (from its rows' ``df``) decides whether merging pays;
    barely-fragmented windows pass through untouched. Every row of the
    window, the merged ones too, keeps its header (``codec`` module
    docstring)."""
    _limit_worker_threads()
    parts = [
        with_seg(_merge_pieces(rows.drop_columns(["seg"])), s)
        for s, rows in seg_parts(batch)
    ]
    return pa.concat_tables(parts) if parts else batch


def _merge_pieces(batch: pa.Table) -> pa.Table:
    if batch.num_rows <= 1:
        return batch
    # every row is a tokenize-encode piece: ceil(df / BLOCK_SIZE) blocks,
    # each full but its last
    df = int64_column(batch["df"].combine_chunks())
    if (df % BLOCK_SIZE > 0).sum() < PIECE_MERGE_MIN_FRAG * (-(-df // BLOCK_SIZE)).sum():
        return batch
    from .compact import _merge_sorted_batch

    is_norms = _is_norms_row(batch)
    norms = batch.filter(is_norms)
    terms = batch.filter(pa.compute.invert(is_norms))
    merged = _merge_sorted_batch(
        *unpack_rows(terms.take(row_order(terms, ["field", "term"]))),
        norms=_decode_norms(*unpack_rows(norms)),
    )
    return pa.concat_tables([pack_rows(*merged), norms])


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------


def _segment_dir(index_dir: str, seg: int) -> str:
    """Directory of new segment number ``seg``."""
    return commit.segment_dir(index_dir, commit.segment_name(seg))


def read_manifest(seg_dir: str) -> Optional[dict]:
    """The segment's manifest when it is complete, else None."""
    try:
        with open(os.path.join(seg_dir, MANIFEST_FILE)) as f:
            manifest = json.load(f)
    except (json.JSONDecodeError, OSError):
        return None
    return manifest if manifest.get("status") == "complete" else None


def segment_complete(index_dir: str, seg: int) -> bool:
    return read_manifest(_segment_dir(index_dir, seg)) is not None


def _driver_doc_ids(ds, num_segments: int, batch_size: Optional[int],
                    base0: int = 0) -> tuple:
    """The doc-id pass over ``ds``, doc ids starting at ``base0``: (doc count,
    per-segment ``[lo, hi)`` bounds, per-segment doc map writers
    ``write(path)``, ``assign``). ``assign(segments)`` is ``ds`` with
    ``doc_id`` and ``seg`` attached, only the rows of ``segments`` (see
    :func:`_attach_seg`). Offsets come from the driver; the conv->base table
    is broadcast to :func:`_assign_doc_ids`."""
    import ray

    convs, bases, counts = _conv_offsets(ds)
    total = int(counts.sum())
    nseg = max(1, min(num_segments, len(convs)))
    maps, bounds = _driver_conv_maps(
        convs, bases, counts, -(-total // nseg), nseg, base0
    )
    conv_map_ref = ray.put(
        pa.table({"conv_id": convs, "base": pa.array(bases + base0)})
    )

    def assign(segments):
        return ds.map_batches(
            _assign_doc_ids, fn_args=(conv_map_ref, segments),
            batch_format="pyarrow", batch_size=batch_size,
        )

    return total, bounds, [functools.partial(pq.write_table, m) for m in maps], assign


def _ranged_doc_ids(ds, num_segments: int, batch_size: Optional[int]) -> tuple:
    """:func:`_driver_doc_ids` from the range-partitioned offsets
    (:func:`_docmap_ranged`): the bounds come from per-block partials and the
    bases reach the rows by a distributed hash join; the driver never holds
    the conversation map."""
    import ray

    conv_ds, base_refs, total, n_convs = _docmap_ranged(ds)
    nseg = max(1, min(num_segments, n_convs))
    seg_target = -(-total // nseg) if total else 1  # ceil
    bounds_task = ray.remote(num_cpus=0.5)(_seg_bounds_partial)
    partials = ray.get([bounds_task.remote(r, seg_target, nseg) for r in base_refs])
    spans: Dict[int, List[Tuple[int, int]]] = {}
    for part in partials:
        for s, lo, hi in part:
            spans.setdefault(s, []).append((lo, hi))
    bounds = [
        [min(lo for lo, _ in spans[s]), max(hi for _, hi in spans[s])]
        if s in spans else [0, 0]
        for s in range(nseg)
    ]
    task = ray.remote(num_cpus=0.5)(_write_ranged_conv_map)
    writers = [
        lambda path, s=s: ray.get(task.remote(
            [base_refs[i] for i, part in enumerate(partials)
             if any(p[0] == s for p in part)], path, *bounds[s],
        ))
        for s in range(nseg)
    ]

    def assign(segments):
        return ds.join(
            conv_ds, join_type="inner", num_partitions=max(8, nseg * 2),
            on=("conv_id",),
        ).map_batches(
            _assign_from_base, fn_args=(segments,),
            batch_format="pyarrow", batch_size=batch_size,
        )

    return total, bounds, writers, assign


def build_index(
    ds,
    index_dir: str,
    *,
    fields: Sequence[str] = INDEXED_FIELDS,
    num_segments: int = 2,
    range_width: int = DEFAULT_RANGE_WIDTH,
    batch_size: Optional[int] = 4096,
    resume: bool = True,
) -> dict:
    """Build (or resume building) an index over a transcripts Dataset.

    Returns the index meta dict. Re-running with ``resume=True`` skips segments
    whose manifest is complete — the checkpoint/resume contract of north_rule
    (see the module docstring); a resume keeps the commit's fields, range
    width and segment count.

    Conversation base offsets come from per-batch partial counts merged on the
    driver and broadcast via ``ray.put`` (O(#conversations) driver memory) or,
    past ``DOCID_DRIVER_MAX_ROWS`` input rows (``ds.count()`` is metadata-cheap
    for parquet reads), from the fully distributed ``ranged`` path:
    groupby(conv_id) -> sort(conv_id) -> per-block prefix offsets in the object
    store -> distributed hash join of the input against the base table; the
    driver holds O(#blocks) integers only — the 10^12-turn path.

    Each tokenize task emits final encoded posting pieces for its doc range;
    there is no all-to-all exchange. Posting lists are piecewise; the reader
    concatenates (and rarely re-sorts) on decode, and ``compact_index``
    consolidates them for serving.
    """
    os.makedirs(index_dir, exist_ok=True)
    t_start = time.time()
    metrics: Dict[str, object] = {}
    meta = commit.read(index_dir) if resume and commit.exists(index_dir) else None
    pending = None if meta is None else [
        k for k, s in enumerate(meta["segments"])
        # a segment no longer under its build name was compacted: complete
        if s.name == commit.segment_name(k) and not segment_complete(index_dir, k)
    ]
    if pending != []:
        if meta is not None:
            fields, range_width = meta["fields"], meta["range_width"]
            num_segments = len(meta["segments"])
        try:
            ranged = ds.count() > DOCID_DRIVER_MAX_ROWS
        except Exception:
            ranged = False
        t0 = time.time()
        total_docs, bounds, conv_maps, assign = (
            _ranged_doc_ids if ranged else _driver_doc_ids
        )(ds, num_segments, batch_size)
        metrics["conv_offsets_sec"] = round(time.time() - t0, 3)
        metrics["docid_mode"] = "ranged" if ranged else "driver"
        if meta is None:
            # the build's commit names its segments up front: each one is a
            # checkpoint/resume unit that a re-run builds until it is complete
            meta = commit.publish(index_dir, {
                "fields": list(fields),
                "range_width": range_width,
                "total_docs": total_docs,
                "analyzer": "lower+[a-z0-9]",
                "generation": 0,
                "next_segment": len(bounds),
                "segments": [
                    commit.Segment(commit.segment_name(k), lo, hi)
                    for k, (lo, hi) in enumerate(bounds)
                ],
            })
            pending = list(range(len(bounds)))
        elif total_docs != meta["total_docs"] or bounds != [
            [s.lo, s.hi] for s in meta["segments"]
        ]:
            raise ValueError(
                f"input changed since the build's commit: {index_dir} holds "
                f"{meta['total_docs']} docs in segments "
                f"{[[s.lo, s.hi] for s in meta['segments']]}, the input now "
                f"gives {total_docs} in {bounds}; rebuild with resume=False"
            )
        metrics.update(_write_segments(
            index_dir, assign,
            [(k, *bounds[k], conv_maps[k]) for k in pending],
            fields=fields, range_width=range_width, batch_size=batch_size,
        ))

    meta["build_seconds"] = round(time.time() - t_start, 3)
    # per-phase wall (doc ids, each segment's finish); the per-operator Ray
    # Data stats live in the first segment's stage_stats.txt
    metrics["total_sec"] = meta["build_seconds"]
    try:
        with open(os.path.join(index_dir, "build_metrics.json"), "w") as fh:
            json.dump(metrics, fh, indent=1)
    except OSError:
        pass
    return meta


def append_index(
    ds,
    index_dir: str,
    *,
    num_segments: int = 1,
    batch_size: Optional[int] = 4096,
) -> dict:
    """Incremental ingest: index new conversations into an EXISTING index as
    fresh segments — a Lucene-style commit-point append, no rebuild.

    Contract:

    * the appended Dataset holds WHOLE conversations (turn_idx dense 0..n-1 per
      conv — validated) whose conv_ids are new to the index; re-appending an
      existing conversation duplicates it, exactly like Lucene addDocument
      (no global membership check — at 10^11 conversations that test IS the
      docmap; dedup upstream or compact with a tombstone pass).
    * appended docs get ids starting at the committed ``total_docs``, in sorted
      conv order within the batch. Existing doc ids never change.
    * the COMMIT (``commit.publish``) comes after every new segment's
      manifest is complete: one atomic rewrite of the commit that adds the
      new segment directories, numbered from the commit's ``next_segment``.
      A failure anywhere before it leaves the index serving exactly the
      previous commit (readers open only the segments the commit names); a
      re-run rebuilds the same directories from scratch and the commit's
      sweep deletes any other leftover. BM25 global stats (df, avgdl) pick
      up the new segments on the next engine plan — scores naturally shift
      with the corpus, as they must.
    """
    meta = commit.read(index_dir)
    base0 = int(meta["total_docs"])
    seg0 = int(meta["next_segment"])
    total_new, bounds, conv_maps, assign = _driver_doc_ids(
        ds, num_segments, batch_size, base0
    )
    if total_new == 0:
        return meta
    _write_segments(
        index_dir, assign,
        [(seg0 + s, lo, hi, conv_maps[s]) for s, (lo, hi) in enumerate(bounds)],
        fields=meta["fields"], range_width=meta["range_width"],
        batch_size=batch_size,
    )
    return commit.publish(index_dir, dict(
        meta,
        total_docs=base0 + total_new,
        next_segment=seg0 + len(bounds),
        segments=meta["segments"] + [
            commit.Segment(commit.segment_name(seg0 + s), lo, hi)
            for s, (lo, hi) in enumerate(bounds)
        ],
    ))


def _write_segments(
    index_dir: str,
    assign: Callable,
    segments: Sequence[Tuple[int, int, int, Callable[[str], None]]],
    *,
    fields: Sequence[str],
    range_width: int,
    batch_size: Optional[int],
) -> Dict[str, float]:
    """Write new segments ``(number, lo, hi, write_conv_map)`` in ONE Ray Data
    execution — ``assign`` (doc ids) -> for several segments, a sort by doc
    id -> :class:`_TokenizeEncode` ->
    :func:`_piece_merge_batch` -> :class:`~.writer.PostingsSink` (norms rows
    to each segment's staging directory) — then finish each in order
    (:func:`_finish_segment`). Returns
    ``{"segment_<number>_sec": seconds from the execution's start to the
    segment's manifest}``."""
    from .writer import PostingsSink

    t0 = time.time()
    postings, staging = {}, {}
    for seg, lo, hi, _ in segments:
        seg_dir = _segment_dir(index_dir, seg)
        # a half-written segment is wiped so the writes never add to stale
        # part files
        if os.path.isdir(seg_dir):
            shutil.rmtree(seg_dir)
        os.makedirs(seg_dir)
        if lo < hi:
            postings[seg] = os.path.join(seg_dir, "postings.parquet")
            staging[seg] = os.path.join(seg_dir, _NORMS_STAGING)
    stage_stats = ""
    if postings:
        written = [(seg, lo, hi) for seg, lo, hi, _ in segments if lo < hi]
        rows = assign(written).select_columns(["doc_id", "seg", *fields])
        if len(written) > 1:
            # without it, a batch of an input out of doc-id order (a ranged
            # build's hash join, interleaved conversations) holds rows of
            # every segment, and each piece and each write task's file is
            # cut that many ways
            rows = rows.sort("doc_id")
        rows = rows.map_batches(
            _TokenizeEncode(fields, range_width),
            batch_format="pyarrow",
            batch_size=batch_size,
        )
        if PIECE_MERGE_ROWS:
            rows = rows.map_batches(
                _piece_merge_batch, batch_format="pyarrow",
                batch_size=PIECE_MERGE_ROWS,
            )
        rows.write_datasink(PostingsSink(postings, staging, _is_norms_row))
        try:
            # per-stage execution stats (task counts, wall/cpu per operator) —
            # the corroborating evidence for scaling claims (BASELINE.md)
            stage_stats = rows.stats()
        except Exception:
            pass
    # the execution's stats go to the first segment it wrote, and only there,
    # so a report sums each operator once
    first = next(iter(postings), None)
    seconds = {}
    for seg, lo, hi, write_conv_map in segments:
        _finish_segment(index_dir, seg, lo, hi, fields, write_conv_map,
                        stage_stats if seg == first else "")
        seconds[f"segment_{seg}_sec"] = round(time.time() - t0, 3)
    return seconds


def _finish_segment(
    index_dir: str,
    seg: int,
    lo: int,
    hi: int,
    fields: Sequence[str],
    write_conv_map: Callable[[str], None],
    stage_stats: str,
) -> None:
    """Commit segment ``seg``'s manifest once its postings are written: from
    its staged norms rows (no extra pass over the input), each field's norms
    file (:func:`norms_file`; none for a field whose docs all have one
    length, whose ``stats.json`` entry holds it as ``norm``) and
    ``stats.json``; then its doc map and
    ``stage_stats``. The staging directory is gone before the manifest
    lands. Raises when a field's norms rows do not cover exactly the docs
    ``[lo, hi)`` its bounds say."""
    seg_dir = _segment_dir(index_dir, seg)
    if lo == hi:
        _write_manifest(index_dir, seg, 0, 0, fields, empty=True)
        return
    staging = os.path.join(seg_dir, _NORMS_STAGING)
    staged = [pq.ParquetFile(os.path.join(staging, name)).read()
              for name in sorted(os.listdir(staging))]
    norms = _decode_norms(*unpack_rows(pa.concat_tables(staged))) if staged else {}
    stats = {"segment": seg, "doc_base": lo, "doc_count": hi - lo, "fields": {}}
    for f in fields:
        docs, dls = (norms[f].docs, norms[f].dls) if f in norms else ([], [])
        if not np.array_equal(docs, np.arange(lo, hi)):
            raise ValueError(
                f"segment {seg} holds {len(docs)} docs, but its bounds [{lo}, "
                f"{hi}) say otherwise (norms of {f}): the input changed while "
                "it was indexed"
            )
        stats["fields"][f] = {"total_dl": int(dls.sum())}
        if (dls == dls[0]).all():
            stats["fields"][f]["norm"] = int(dls[0])
        else:
            np.save(os.path.join(seg_dir, norms_file(f)), _narrowest_uint(dls))
    shutil.rmtree(staging)
    with open(os.path.join(seg_dir, "stats.json"), "w") as fh:
        json.dump(stats, fh, indent=1)

    postings_path = os.path.join(seg_dir, "postings.parquet")
    n_terms = sum(
        pq.read_metadata(os.path.join(postings_path, f)).num_rows
        for f in os.listdir(postings_path) if f.endswith(".parquet")
    )
    if stage_stats:
        with open(os.path.join(seg_dir, "stage_stats.txt"), "w") as fh:
            fh.write(stage_stats)
    write_conv_map(os.path.join(seg_dir, CONVMAP_FILE))
    _write_manifest(index_dir, seg, hi - lo, n_terms, fields)


def _narrowest_uint(a: np.ndarray) -> np.ndarray:
    """``a`` (non-negative ints) in the narrowest of uint8/16/32 that holds its
    max — the norms files' storage dtype; int64 beyond uint32."""
    mx = int(a.max()) if a.size else 0
    for dt in (np.uint8, np.uint16, np.uint32):
        if mx <= np.iinfo(dt).max:
            return a.astype(dt)
    return a.astype(np.int64)


def _write_manifest(
    index_dir: str,
    seg: int,
    n_docs: int,
    n_posting_rows: int,
    fields: Sequence[str],
    empty: bool = False,
) -> None:
    seg_dir = _segment_dir(index_dir, seg)
    manifest = {
        "segment_id": commit.segment_name(seg),
        "status": "complete",
        "empty": empty,
        "doc_count": int(n_docs),
        "posting_rows": int(n_posting_rows),
        "fields": list(fields),
        "completed_at": time.time(),
        "checksum": hashlib.sha256(
            f"{seg}:{n_docs}:{n_posting_rows}".encode()
        ).hexdigest()[:16],
    }
    tmp = os.path.join(seg_dir, MANIFEST_FILE + ".tmp")
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=1)
    os.replace(tmp, os.path.join(seg_dir, MANIFEST_FILE))  # atomic publish
