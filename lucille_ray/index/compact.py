"""Segment compaction: merge the per-batch posting *pieces* written by the
shuffle-free build into one consolidated row per ``(field, term)``.

This gives the best of both worlds at scale: the build streams with zero
all-to-all, then compaction — a sort-merge by ``(field, term)`` over the
already block-compressed postings (a small fraction of input volume) — writes
the read-optimal serving layout into a NEW segment directory, published by
one commit (``commit.py``). Compaction is optional, idempotent, and
per-segment resumable: a completed directory of a failed run is reused.
"""

from __future__ import annotations

import json
import os
import shutil
from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from . import commit
from .build import CONVMAP_FILE, MANIFEST_FILE, NORMS_TERM, _limit_worker_threads, read_manifest
from .codec import BLOCK_SIZE, RawBlocks, chunk_starts, encode_runs, take_postings
from .segment import live_mask


#: max blocks per consolidated posting row (~32k postings, a few hundred KB):
#: a hot term's postings split across multiple doc-ordered rows (bucket = first
#: doc of the chunk) so one row cell can never grow to tens of MB — row-group
#: predicate pushdown then reads a bounded byte volume per term lookup instead
#: of a whole segment's postings for one hot term
ROW_BLOCK_CAP = 256
#: rows per sorted merge batch (and per read block of a segment's postings)
MERGE_BATCH_ROWS = 2048
#: sorted doc ids every purge in a segment's lineage removed, written into
#: the new directory of each compaction that carries any
PURGED_FILE = "purged.npy"


def purged_ids(seg_dir: str) -> np.ndarray:
    """Doc ids earlier compactions purged from ``seg_dir``: not live, and no
    later delete or purge may count them again."""
    path = os.path.join(seg_dir, PURGED_FILE)
    return np.load(path) if os.path.exists(path) else np.empty(0, np.int64)


def _reencode_spans(
    raw: RawBlocks, sel: np.ndarray, span_nb: np.ndarray, span_field: np.ndarray,
    want_pos: bool, norms, doc_base: int, deleted,
) -> tuple:
    """Decode the blocks ``sel`` of ``raw`` (span-major: span ``i`` is the next
    ``span_nb[i]`` of them) in one pass, doc-sort the spans whose docs
    interleave, drop tombstoned docs (``deleted``, the purge path), and
    re-encode every span as full blocks in one :func:`encode_runs` call, with
    exact min_dl when norms are at hand (``span_field`` names each span's
    field). Returns (one block list per span, total_tf per span)."""
    nspans = span_nb.size
    docs, tfs, pos = raw.decode_blocks(sel, want_positions=want_pos)
    span_len = np.add.reduceat(raw.ns[sel], np.cumsum(span_nb) - span_nb)
    post_span = np.repeat(np.arange(nspans), span_len)
    down = np.flatnonzero(docs[1:] < docs[:-1]) + 1
    down = down[post_span[down] == post_span[down - 1]]
    if down.size:
        unsorted = np.zeros(nspans, bool)
        unsorted[post_span[down]] = True
        idx = np.flatnonzero(unsorted[post_span])
        order = np.arange(docs.size)
        order[idx] = idx[np.lexsort((docs[idx], post_span[idx]))]
        docs, tfs, pos = take_postings(docs, tfs, pos, order)
    if deleted is not None:
        keep = live_mask(deleted, docs)
        if pos is not None:
            pos = pos[np.repeat(keep, tfs)]
        docs, tfs, post_span = docs[keep], tfs[keep], post_span[keep]
    span_starts = np.searchsorted(post_span, np.arange(nspans))
    tf_cum = np.zeros(tfs.size + 1, np.int64)
    np.cumsum(tfs, out=tf_cum[1:])
    span_ttf = tf_cum[np.append(span_starts[1:], tfs.size)] - tf_cum[span_starts]
    dls = None
    if norms is not None and want_pos:
        dls = np.zeros(docs.size, np.int64)
        post_field = span_field[post_span]
        for field in np.unique(span_field):
            arr = norms.get(field)
            at = np.flatnonzero(post_field == field)
            if arr is not None and at.size:
                dls[at] = arr[docs[at] - doc_base]
    return encode_runs(docs, tfs, span_starts, pos, dls), span_ttf


def _merge_sorted_batch(
    batch: pa.Table, *, norms_ref=None, norms=None, doc_base: int = 0,
    deleted_ref=None,
) -> pa.Table:
    """One batch of the (field, term, bucket)-sorted piece stream -> merged
    rows, one (or a few, for hot terms past ROW_BLOCK_CAP) per (field, term)
    run present in the batch.

    Blocks are self-contained (each starts with an absolute doc id), so almost
    every block is copied VERBATIM — an LSM-style block-preserving merge.
    The verbatim path never touches payload bytes at the Python layer: the
    batch's ``blocks`` column is viewed through :class:`RawBlocks` (numpy
    metadata views over the flattened struct children), the output block
    sequence is assembled as an int64 index vector, and ONE Arrow ``take``
    gathers the surviving blocks in C. Only spans of >=2 ADJACENT undersized
    piece-tail blocks decode + re-encode (merging splinters into full blocks),
    as does every block of a tombstoned segment (the purge moment, where
    deleted docs physically leave and per-row df/total_tf re-derive from what
    remains; NORMS rows are exempt — the norms array must stay dense over
    maxDoc). All of a batch's spans decode in one pass and re-encode in one
    :func:`encode_runs` call per payload kind (positional term rows, norms
    rows). Blocks whose doc RANGES overlap (the few batches Ray assembled
    from tails of different doc-sorted input files) are kept as-is: every
    reader path either doc-sorts on decode or checks block ranges elementwise.

    Runs that straddle a batch boundary simply merge into one row per side —
    the reader concatenates a term's rows in bucket order (doc-sorting on the
    rare interleave), so partial merges are exactly as correct as full ones
    and compaction needs only ONE all-to-all (the sort) instead of the
    groupby-shuffle + re-sort pair. Each run's summed piece ``total_tf`` lands
    on its first output row (per-row total_tf is consumed nowhere; this keeps
    the per-(field, term) aggregate exact without decoding any tf stream).

    ``norms_ref`` (an ObjectRef to {field: per-doc dl array}) lets re-encoded
    blocks carry an exact per-block ``min_dl`` even though the merged block
    boundaries differ from the build-time pieces'; it is fetched zero-copy
    from the object store once per task."""
    import pyarrow.compute as pc

    _limit_worker_threads()
    if batch.num_rows == 0:
        return batch
    if norms is None and norms_ref is not None:
        import ray

        norms = ray.get(norms_ref)
    deleted = None
    if deleted_ref is not None:
        import ray

        deleted = ray.get(deleted_ref)

    lists = batch.column("blocks").combine_chunks()
    flat = lists.flatten()
    raw = RawBlocks(flat)
    nflat = len(raw)
    row_nb = pc.list_value_length(lists).to_numpy(zero_copy_only=False).astype(np.int64)
    row_off = np.zeros(row_nb.size + 1, np.int64)
    np.cumsum(row_nb, out=row_off[1:])

    fcol = batch.column("field").combine_chunks()
    tcol = batch.column("term").combine_chunks()
    f_idx = pc.dictionary_encode(fcol).indices.to_numpy(zero_copy_only=False)
    t_idx = pc.dictionary_encode(tcol).indices.to_numpy(zero_copy_only=False)
    ttfs = batch.column("total_tf").to_numpy(zero_copy_only=False).astype(np.int64)
    nrows = batch.num_rows
    change = np.flatnonzero((np.diff(f_idx) != 0) | (np.diff(t_idx) != 0)) + 1
    run_starts = np.concatenate([[0], change]).astype(np.int64)
    run_ends = np.append(change, nrows)
    nruns = run_starts.size
    run_ttf = np.add.reduceat(ttfs, run_starts)
    run_field = np.asarray(fcol.take(pa.array(run_starts)).to_pylist(), dtype=object)
    run_pos = pc.not_equal(tcol.take(pa.array(run_starts)), NORMS_TERM).to_numpy(
        zero_copy_only=False
    )
    # purge path (tombstoned segment): every block of a term run re-encodes
    run_purge = run_pos & (deleted is not None)

    # blocks in output order: by run, then (stable) by first doc
    blk_run = np.repeat(np.arange(nruns), row_off[run_ends] - row_off[run_starts])
    order = np.lexsort((raw.firsts, blk_run))
    o_run = blk_run[order]
    # re-encode spans: maximal stretches of adjacent undersized blocks of one
    # run, kept when >=2 blocks long, and whole runs on the purge path
    cand = (raw.ns[order] < BLOCK_SIZE) | run_purge[o_run]
    stretch_start = cand.copy()
    stretch_start[1:] &= ~cand[:-1] | (o_run[1:] != o_run[:-1])
    stretch_of = np.cumsum(stretch_start) - 1
    stretch_len = np.bincount(stretch_of[cand], minlength=int(stretch_start.sum()))
    stretch_kept = (stretch_len >= 2) | run_purge[o_run[stretch_start]]
    member = cand.copy()
    member[cand] = stretch_kept[stretch_of[cand]]
    span_of = np.cumsum(stretch_start & member) - 1  # valid where member
    span_first = np.flatnonzero(stretch_start & member)
    span_nb = stretch_len[stretch_kept]
    span_run = o_run[span_first]
    nspans = span_first.size

    # re-encode: one decode + one encode per payload kind; new blocks append
    # after the batch's own blocks
    span_new_start = np.zeros(nspans, np.int64)
    span_new_nb = np.zeros(nspans, np.int64)
    comb_parts = [flat]
    ns_parts, firsts_parts = [raw.ns], [raw.firsts]
    ttf_out = run_ttf.copy()
    at = nflat
    for want_pos in (True, False):
        spans = np.flatnonzero(run_pos[span_run] == want_pos)
        if not spans.size:
            continue
        sel = order[member & (run_pos[o_run] == want_pos)]
        new, span_ttf = _reencode_spans(
            raw, sel, span_nb[spans], run_field[span_run[spans]], want_pos,
            norms, doc_base, deleted if want_pos else None,
        )
        offs = new.offsets.to_numpy().astype(np.int64)
        span_new_start[spans] = at + offs[:-1]
        span_new_nb[spans] = np.diff(offs)
        purged = run_purge[span_run[spans]]
        ttf_out[span_run[spans][purged]] = span_ttf[purged]
        blocks = new.flatten()
        at += len(blocks)
        comb_parts.append(blocks)
        ns_parts.append(blocks.field("n").to_numpy().astype(np.int64))
        firsts_parts.append(blocks.field("first_doc").to_numpy())
    combined = pa.concat_arrays(comb_parts) if len(comb_parts) > 1 else flat
    ns_comb = np.concatenate(ns_parts)
    firsts_comb = np.concatenate(firsts_parts)

    # output block sequence: each verbatim block, each span's new blocks
    unit = np.flatnonzero(~member | (stretch_start & member))
    u_span = span_of[unit[member[unit]]]
    u_count = np.ones(unit.size, np.int64)
    u_count[member[unit]] = span_new_nb[u_span]
    u_base = order[unit]
    u_base[member[unit]] = span_new_start[u_span]
    seq = np.repeat(u_base, u_count) + np.arange(int(u_count.sum())) - np.repeat(
        np.cumsum(u_count) - u_count, u_count
    )
    seq_run = np.repeat(o_run[unit], u_count)
    if not seq.size:
        return batch.schema.empty_table()

    # rows: each run's sequence in chunks of ROW_BLOCK_CAP blocks
    out_runs = np.flatnonzero(np.diff(np.append(-1, seq_run)) != 0)
    row_start, row_count = chunk_starts(
        out_runs, np.diff(np.append(out_runs, seq.size)), ROW_BLOCK_CAP
    )
    row_run = np.repeat(seq_run[out_runs], row_count)
    first_row = np.ones(row_start.size, bool)
    first_row[1:] = row_run[1:] != row_run[:-1]
    src_row = pa.array(run_starts[row_run])
    taken = combined.take(pa.array(seq))
    return pa.table(
        {
            "field": fcol.take(src_row).cast(pa.string()),
            "term": tcol.take(src_row).cast(pa.string()),
            "bucket": pa.array(firsts_comb[seq[row_start]], pa.int64()),
            "df": pa.array(np.add.reduceat(ns_comb[seq], row_start), pa.int64()),
            "total_tf": pa.array(np.where(first_row, ttf_out[row_run], 0), pa.int64()),
            "blocks": pa.ListArray.from_arrays(
                pa.array(np.append(row_start, seq.size), pa.int32()), taken
            ),
        }
    )


def _retry_fs_import_race(fn):
    """Ray's path resolution probes ``fsspec.implementations.http`` on EVERY
    read/write; with aiohttp absent the import always fails, is evicted from
    ``sys.modules``, and is re-attempted next call — so two threads resolving
    paths at once can race the half-initialized module and surface a transient
    ``ImportError`` (Ray only catches ``ModuleNotFoundError``). Resolution runs
    before any execution or filesystem mutation, so retrying is safe."""
    import time

    for attempt in range(8):
        try:
            return fn()
        except ImportError as e:
            if "fsspec" not in str(e) and "HTTPFileSystem" not in str(e):
                raise
            time.sleep(0.05 * (attempt + 1))
    return fn()


def _load_segment(seg_dir: str, manifest: dict, tombstone: Optional[str]) -> tuple:
    """(reader, {field: norms}, purged ids) of one segment. ``np.load`` parses
    its header with ``ast.literal_eval``, which is not thread-safe in CPython,
    so this runs on the calling thread before any segment's compaction starts
    on the pool."""
    from .segment import SegmentReader

    reader = SegmentReader(seg_dir, tombstone)
    norms = {f: reader.norms(f) for f in manifest.get("fields", [])}
    return reader, norms, purged_ids(seg_dir)


def _kept(name: str) -> bool:
    """The files a compacted segment takes unchanged (hard-linked) from its
    source: the doc map, the build's stage stats and the norms sidecars."""
    return name in (CONVMAP_FILE, "stage_stats.txt") or (
        name.startswith("norms_") and name.endswith(".npy")
    )


def _link(src: str, dst: str) -> None:
    try:
        os.link(src, dst)
    except OSError:
        shutil.copy2(src, dst)


def _compact_segment(
    seg_dir: str, manifest: dict, source: dict, new_dir: str, reader, norms: dict,
    purged: np.ndarray,
) -> dict:
    """Sort-merge one segment's postings into the new directory ``new_dir``
    (``reader``, ``norms``, ``purged``: :func:`_load_segment`; ``source``
    names the segment and tombstone it compacts). A complete ``new_dir`` from
    a failed earlier run over the same source is kept as it is. Returns what
    it did: source and new segment names, wall seconds, posting rows in and
    out, and the merge pipeline's Ray Data stage stats
    (:func:`report.parse_stage_stats`; none when ``new_dir`` was kept)."""
    import functools
    import time

    import ray
    import ray.data

    from .report import parse_stage_stats
    from .writer import COMPACT_MIN_ROWS_PER_WRITE, PostingsSink

    t0 = time.perf_counter()
    rows = sum(pf.metadata.num_rows for pf, *_ in reader._postings_files())
    result = {"source": source["segment"], "segment": os.path.basename(new_dir),
              "posting_rows_in": rows}
    done = read_manifest(new_dir)
    if done is not None and done.get("source") == source:
        return dict(result, wall_s=round(time.perf_counter() - t0, 6),
                    posting_rows_out=int(done.get("posting_rows") or 0), stages=[])
    shutil.rmtree(new_dir, ignore_errors=True)
    os.makedirs(new_dir)
    postings_path = os.path.join(new_dir, "postings.parquet")

    # broadcast the segment's norms once (ray.put, zero-copy reads in every
    # merge task) so re-cut blocks keep an exact min_dl for WAND bounds
    norms_ref = ray.put(norms)
    # tombstoned segment: this merge is the purge — broadcast the deleted set
    deleted_ref = ray.put(reader.deleted) if reader.deleted is not None else None
    merge_fn = functools.partial(
        _merge_sorted_batch, norms_ref=norms_ref, doc_base=reader.doc_base,
        deleted_ref=deleted_ref,
    )

    # one read block per merge batch, up to Ray's default read block count.
    # Left to itself, Ray sizes the read from an in-memory estimate sampled
    # on each file's FIRST row group only, which the payload-cut layout makes
    # a few hot rows: a ~30x over-estimate that nearly tripled the sort's task
    # count on a 2,500-turn segment
    blocks = min(-(-rows // MERGE_BATCH_ROWS),
                 ray.data.DataContext.get_current().read_op_min_num_blocks)
    ds = _retry_fs_import_race(lambda: ray.data.read_parquet(
        os.path.join(seg_dir, "postings.parquet"), override_num_blocks=max(1, blocks)
    ))
    # ONE all-to-all: sort by (field, term, bucket), then merge term runs
    # per sorted batch. The sort is what makes term lookups cheap — it
    # clusters each term into a handful of row groups so parquet min/max
    # stats prune the rest (hash-partitioned output would spread every row
    # group across the whole vocabulary and nothing could prune). A
    # groupby.map_groups would give per-term completeness but costs a
    # second full exchange (Ray's map_groups itself sorts), and the reader
    # doesn't need completeness — it already concatenates a term's rows in
    # bucket order. The sink's min_rows_per_write coalesces the sort's many
    # small output blocks at write time (no extra pass): a term lookup opens
    # every file's footer, so hundreds of tiny files put a ~0.5 s floor
    # under COLD lookups.
    # Zipfian term keys collide the sort's sampled range boundaries, so the
    # sort emits some partitions as UNTYPED empty blocks; drop them by block
    # ref (the sort is a full barrier anyway, so this adds no extra pass) —
    # otherwise every downstream stage sees mixed-schema RefBundles
    from ..ops.joins import drop_empty_blocks

    sorted_ds = ds.sort(["field", "term", "bucket"])
    merged = drop_empty_blocks(sorted_ds).map_batches(
        merge_fn, batch_size=MERGE_BATCH_ROWS, batch_format="pyarrow"
    )
    # one file per write task (no file cap: a file is bounded by the
    # segment's own row count), row groups cut by index/writer.py
    sink = PostingsSink(postings_path, min_rows_per_write=COMPACT_MIN_ROWS_PER_WRITE)

    def _write():
        shutil.rmtree(postings_path, ignore_errors=True)  # clean slate per attempt
        merged.write_datasink(sink)

    _retry_fs_import_race(_write)
    # dropping the empty blocks executes the read and the sort on their own,
    # so their stages are in the sorted dataset's stats, not in merged's
    stages = parse_stage_stats(sorted_ds.stats()) + parse_stage_stats(merged.stats())
    with open(os.path.join(seg_dir, "stats.json")) as f:
        stats = json.load(f)
    manifest = dict(manifest, segment_id=os.path.basename(new_dir), source=source,
                    compacted=True)
    if reader.deleted is not None:
        # the postings above no longer contain the tombstoned docs: record
        # LIVE stats (numDocs/liveDl) next to the untouched maxDoc ones —
        # engine-level N and avgdl switch to them, like Lucene after a merge.
        # They already leave out earlier purges: only newly dead docs count
        dead = np.setdiff1d(reader.deleted, purged)
        stats["live_docs"] = reader.live_docs - int(dead.size)
        for f_, st in stats.get("fields", {}).items():
            arr = norms.get(f_)
            removed = int(arr[dead - reader.doc_base].sum()) if arr is not None else 0
            st["live_dl"] = reader.live_total_dl(f_) - removed
        manifest["purged_docs"] = int(manifest.get("purged_docs", 0)) + int(dead.size)
        purged = np.union1d(purged, dead)
    if purged.size:
        np.save(os.path.join(new_dir, PURGED_FILE), purged)
    with open(os.path.join(new_dir, "stats.json"), "w") as f:
        json.dump(stats, f, indent=1)
    for name in os.listdir(seg_dir):
        if _kept(name):
            src, dst = os.path.join(seg_dir, name), os.path.join(new_dir, name)
            if os.path.isdir(src):  # a ranged build's doc map: part files
                shutil.copytree(src, dst, copy_function=_link)
            else:
                _link(src, dst)
    manifest["posting_rows"] = sum(
        pq.read_metadata(os.path.join(postings_path, f)).num_rows
        for f in os.listdir(postings_path)
        if f.endswith(".parquet")
    )
    # the manifest lands last: a directory without it is rebuilt on re-run
    tmp_mf = os.path.join(new_dir, MANIFEST_FILE + ".tmp")
    with open(tmp_mf, "w") as f:
        json.dump(manifest, f, indent=1)
    os.replace(tmp_mf, os.path.join(new_dir, MANIFEST_FILE))
    return dict(result, wall_s=round(time.perf_counter() - t0, 6),
                posting_rows_out=manifest["posting_rows"], stages=stages)


def compact_index(index_dir: str, *, resume: bool = True) -> list[dict]:
    """Compact the postings of every segment of the current commit that is
    not compacted yet or holds tombstones (with ``resume=False``: every
    segment), each into a new segment directory, then publish them all in
    one commit; its sweep deletes the directories they replace. A failure
    before the publish leaves the previous commit serving; a re-run keeps
    the new directories that completed.

    Returns one entry per compacted segment, in commit order (empty when
    nothing needed compacting): ``source`` and new ``segment`` name,
    ``wall_s``, ``posting_rows_in``/``posting_rows_out`` and ``stages``, the
    merge pipeline's parsed Ray Data stage stats (empty where a complete
    directory of a failed earlier run was kept). Nothing of it is written to
    the index.

    Segments compact CONCURRENTLY (a few driver threads, each running one
    independent sort→merge→write Dataset pipeline): one segment's exchange
    rarely saturates the cluster on its own — its sort has a reduce fan-in
    barrier and a bounded task count — so overlapping segments keeps workers
    fed, and at small scale it hides the ~seconds of fixed per-pipeline
    overhead instead of paying it once per segment."""
    from concurrent.futures import ThreadPoolExecutor

    c = commit.read(index_dir)
    segments = list(c["segments"])
    number = int(c["next_segment"])
    pending: list = []
    for i, seg in enumerate(segments):
        seg_dir = commit.segment_dir(index_dir, seg.name)
        manifest = read_manifest(seg_dir)
        if manifest is None or manifest.get("empty"):
            continue
        # deletes after a previous compaction re-qualify the segment: this
        # pass is also the tombstone purge
        if resume and manifest.get("compacted") and seg.deleted is None:
            continue
        name = commit.segment_name(number)
        number += 1
        segments[i] = commit.Segment(name, seg.lo, seg.hi)
        source = {"segment": seg.name, "deleted": seg.deleted}
        pending.append((seg_dir, manifest, source, commit.segment_dir(index_dir, name),
                        *_load_segment(seg_dir, manifest,
                                       commit.tombstone_path(index_dir, seg))))
    if not pending:
        return []
    if len(pending) == 1:
        done = [_compact_segment(*pending[0])]
    else:
        with ThreadPoolExecutor(max_workers=min(4, len(pending))) as pool:
            futs = [pool.submit(_compact_segment, *args) for args in pending]
            done = [f.result() for f in futs]
    commit.publish(index_dir, dict(c, segments=segments, next_segment=number))
    return done
