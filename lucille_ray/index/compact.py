"""Segment compaction: merge the per-batch posting *pieces* written by the
shuffle-free build into one consolidated row per ``(field, term)``.

A build file holds a few ``(field, term)``-sorted runs, one per window the
build merged (per tokenize batch and field where it skipped the merge), and
its row groups carry ``(field, term)`` min/max statistics. So compaction
runs no global sort (as Lucene's ``SegmentMerger`` streams sorted term
dictionaries): the driver plans term ranges from the footers
(:func:`_plan_ranges`), and one Ray task per range reads the row groups that
may overlap it, merges the rows inside it and writes one file. No term
straddles two ranges, so the output is a pure function of the input. New
segment directories are published by one commit (``commit.py``);
compaction is optional, idempotent and per-segment resumable: a segment
whose ranges all succeeded gets its manifest even when a range of another
fails, and a re-run reuses that directory.
"""

from __future__ import annotations

import bisect
import json
import os
import shutil
import time
from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from . import commit
from .build import CONVMAP_FILE, MANIFEST_FILE, _limit_worker_threads, read_manifest
from .codec import (BLOCK_SIZE, RawBlocks, chunk_starts, encode_runs, take_postings,
                    unpack_rows)
from .segment import live_mask


#: max blocks per consolidated posting row (~32k postings, a few hundred KB):
#: a hot term's postings split across multiple doc-ordered rows (bucket = first
#: doc of the chunk) so one row cell can never grow to tens of MB — row-group
#: predicate pushdown then reads a bounded byte volume per term lookup instead
#: of a whole segment's postings for one hot term
ROW_BLOCK_CAP = 256
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
    norms, doc_base: int, deleted,
) -> tuple:
    """Decode the blocks ``sel`` of ``raw`` (span-major: span ``i`` is the next
    ``span_nb[i]`` of them) in one pass, doc-sort the spans whose docs
    interleave, drop tombstoned docs (``deleted``, the purge path), and
    re-encode every span as full blocks in one :func:`encode_runs` call.
    Each posting counts at its source block's stored ``min_dl``, a lower
    bound on its doc's length, and a posting whose doc has a norm in
    ``norms`` (``span_field`` names each span's field; the build's window
    merge holds only its window's norms) at that norm; each new block stores
    the least. Returns (one block list per span, total_tf per span)."""
    nspans = span_nb.size
    docs, tfs, pos = raw.decode_blocks(sel, want_positions=True)
    dls = np.repeat(raw.min_dl[sel], raw.ns[sel])
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
        dls = dls[order]
    if deleted is not None:
        keep = live_mask(deleted, docs)
        pos = pos[np.repeat(keep, tfs)]
        docs, tfs, post_span, dls = docs[keep], tfs[keep], post_span[keep], dls[keep]
    span_starts = np.searchsorted(post_span, np.arange(nspans))
    tf_cum = np.zeros(tfs.size + 1, np.int64)
    np.cumsum(tfs, out=tf_cum[1:])
    span_ttf = tf_cum[np.append(span_starts[1:], tfs.size)] - tf_cum[span_starts]
    if norms is not None:
        post_field = span_field[post_span]
        for field in np.unique(span_field):
            arr = norms.get(field)
            at = np.flatnonzero(post_field == field)
            if arr is not None and at.size:
                known = arr[docs[at] - doc_base]
                dls[at] = np.where(known > 0, known, dls[at])
    return encode_runs(docs, tfs, span_starts, pos, dls), span_ttf


def _merge_sorted_batch(
    batch: pa.Table, *, norms=None, doc_base: int = 0, deleted=None,
) -> pa.Table:
    """One batch of (field, term, bucket)-sorted piece rows -> merged rows,
    one (or a few, for hot terms past ROW_BLOCK_CAP) per (field, term) run
    present in the batch.

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
    remains). All of a batch's spans decode in one pass and re-encode in one
    :func:`encode_runs` call. Blocks whose doc RANGES overlap (pieces of one
    term from input batches whose docs interleave) are kept as-is: every
    reader path either doc-sorts on decode or checks block ranges
    elementwise.

    Compaction hands it whole term runs (:func:`_merge_range`), but the
    build's window merge (``build._piece_merge_batch``) cuts its windows
    anywhere. A run that straddles a batch boundary simply merges into one
    row per side — the reader concatenates a term's rows in bucket order
    (doc-sorting on the rare interleave), so partial merges are exactly as
    correct as full ones. Each run's summed piece ``total_tf`` lands on its
    first output row (per-row total_tf is consumed nowhere; this keeps the
    per-(field, term) aggregate exact without decoding any tf stream).

    ``norms`` ({field: per-doc dl array, from ``doc_base``}) gives
    re-encoded blocks their exact ``min_dl`` even though the merged block
    boundaries differ from the build-time pieces'; a doc it lacks counts at
    its source block's ``min_dl`` (:func:`_reencode_spans`), so a term block
    re-cut from blocks with a positive ``min_dl`` stores one too, a lower
    bound on its docs' lengths. ``deleted`` (sorted doc ids) is a tombstoned
    segment's delete set."""
    _limit_worker_threads()
    if batch.num_rows == 0:
        return batch

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
    # purge path (tombstoned segment): every block re-encodes
    purge = deleted is not None

    # blocks in output order: by run, then (stable) by first doc
    blk_run = np.repeat(np.arange(nruns), row_off[run_ends] - row_off[run_starts])
    order = np.lexsort((raw.firsts, blk_run))
    o_run = blk_run[order]
    # re-encode spans: maximal stretches of adjacent undersized blocks of one
    # run, kept when >=2 blocks long, and whole runs on the purge path
    cand = (raw.ns[order] < BLOCK_SIZE) | purge
    stretch_start = cand.copy()
    stretch_start[1:] &= ~cand[:-1] | (o_run[1:] != o_run[:-1])
    stretch_of = np.cumsum(stretch_start) - 1
    stretch_len = np.bincount(stretch_of[cand], minlength=int(stretch_start.sum()))
    stretch_kept = (stretch_len >= 2) | purge
    member = cand.copy()
    member[cand] = stretch_kept[stretch_of[cand]]
    span_of = np.cumsum(stretch_start & member) - 1  # valid where member
    span_first = np.flatnonzero(stretch_start & member)
    span_nb = stretch_len[stretch_kept]
    span_run = o_run[span_first]
    nspans = span_first.size

    # re-encode: one decode + one encode; new blocks append after the batch's
    # own blocks
    combined, ns_comb, firsts_comb = flat, raw.ns, raw.firsts
    ttf_out = run_ttf
    span_new_start = span_new_nb = np.zeros(nspans, np.int64)
    if nspans:
        new, span_ttf = _reencode_spans(
            raw, order[member], span_nb, run_field[span_run], norms, doc_base, deleted,
        )
        offs = new.offsets.to_numpy().astype(np.int64)
        span_new_start = nflat + offs[:-1]
        span_new_nb = np.diff(offs)
        if purge:
            ttf_out = run_ttf.copy()
            ttf_out[span_run] = span_ttf
        blocks = new.flatten()
        combined = pa.concat_arrays([flat, blocks])
        ns_comb = np.concatenate([raw.ns, blocks.field("n").to_numpy().astype(np.int64)])
        firsts_comb = np.concatenate([raw.firsts, blocks.field("first_doc").to_numpy()])

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


def _at_or_after(t: pa.Table, key: tuple):
    """Mask of the rows of ``t`` whose (field, term) is at or after ``key``."""
    field, term = key
    return pc.or_(pc.greater(t["field"], field), pc.and_(
        pc.equal(t["field"], field), pc.greater_equal(t["term"], term)))


def _merge_range(groups: list, lo: Optional[tuple], hi: Optional[tuple], path: str,
                 norms: dict, doc_base: int, deleted: Optional[np.ndarray]) -> dict:
    """One term range of a segment's compaction, run as a Ray task: read the
    row groups ``groups`` (``[(file, [row group, ...]), ...]``), keep the rows
    with ``lo <= (field, term) < hi`` (``None``: unbounded), stable-sort them
    by (field, term, bucket), unpack them, merge them in one
    :func:`_merge_sorted_batch` call (``norms``, ``doc_base``, ``deleted``:
    its arguments) and write the merged rows to ``path`` (nothing when none
    are left). Returns the row groups read, the rows read, kept and written,
    and the wall seconds."""
    from .writer import write_postings_file

    t0 = time.perf_counter()
    _limit_worker_threads()
    t = pa.concat_tables([pq.ParquetFile(f).read_row_groups(gs) for f, gs in groups])
    rows_read = t.num_rows
    if lo is not None:
        t = t.filter(_at_or_after(t, lo))
    if hi is not None:
        t = t.filter(pc.invert(_at_or_after(t, hi)))
    rows, blocks, loff = unpack_rows(t.sort_by(
        [("field", "ascending"), ("term", "ascending"), ("bucket", "ascending")]))
    out = _merge_sorted_batch(rows.append_column("blocks", blocks.list_array(loff)),
                              norms=norms, doc_base=doc_base, deleted=deleted)
    if out.num_rows:
        write_postings_file(out, path)
    return {"row_groups": sum(len(gs) for _, gs in groups), "rows_read": rows_read,
            "rows_kept": t.num_rows, "rows_written": out.num_rows,
            "wall_s": round(time.perf_counter() - t0, 6)}


def _plan_ranges(files: list) -> list:
    """The term ranges of one segment's compaction, planned from its postings
    footers (``files``: :meth:`SegmentReader._postings_files`), as ``(lo, hi,
    groups)`` for :func:`_merge_range`. A range's ``groups`` are the row
    groups whose (field, term) statistics may overlap it; a group without
    statistics may overlap every range. Ranges no row group may overlap are
    left out.

    The plan aims at one range per ``ROWS_PER_FILE`` rows, cut at the
    row-weighted quantiles of the group minima and maxima (half a group's
    rows count at its minimum, half at its maximum). Each sorted run of the
    input has a row group across most cuts, which both ranges beside the cut
    read: where the ranges would read the rows with statistics more than
    twice over (many runs, or groups spanning a whole field), the plan cuts
    fewer ranges until they do not."""
    from .writer import ROWS_PER_FILE

    spans = []  # per row group: (file, group, rows, min key, max key)
    for pf, stats, _, path in files:
        md = pf.metadata
        keys = [(None, None)] * md.num_row_groups
        if stats is not None:
            fmin, fmax, tmin, tmax = (a.tolist() for a in stats)
            keys = list(zip(zip(fmin, tmin), zip(fmax, tmax)))
        spans += [(path, g, md.row_group(g).num_rows, *keys[g])
                  for g in range(md.num_row_groups)]
    keyed = [s for s in spans if s[3] is not None]
    cands = sorted({k for s in keyed for k in s[3:]})
    rank = {k: i for i, k in enumerate(cands)}
    lo_i, hi_i = (np.array([rank[s[c]] for s in keyed], np.int64) for c in (3, 4))
    n, m = np.array([s[2] for s in keyed], np.int64), len(cands)
    w = np.bincount(lo_i, n / 2, m) + np.bincount(hi_i, n / 2, m)
    before = np.cumsum(w) - w  # rows before each candidate
    nranges = max(1, -(-int(n.sum()) // ROWS_PER_FILE))
    while True:
        at = np.searchsorted(before, np.arange(1, nranges) * n.sum() / nranges)
        bounds = sorted({cands[i] for i in at.tolist() if 0 < i < m})
        ranges = [(lo, hi, {}) for lo, hi in zip([None, *bounds], [*bounds, None])]
        read = 0
        for path, g, rows_g, lo, hi in spans:
            first = 0 if lo is None else bisect.bisect_right(bounds, lo)
            last = len(bounds) if hi is None else bisect.bisect_right(bounds, hi)
            for _, _, by_file in ranges[first:last + 1]:
                by_file.setdefault(path, []).append(g)
            read += rows_g * (last - first) if lo is not None else 0
        if nranges <= 1 or read <= n.sum():
            return [(lo, hi, list(by_file.items())) for lo, hi, by_file in ranges if by_file]
        # fewer cuts, in proportion to their cost, but at least half as many:
        # what a cut costs depends on where it lands
        nranges = max(nranges // 2, min(nranges - 1, 1 + (nranges - 1) * int(n.sum()) // read))


def _load_segment(seg_dir: str, manifest: dict, tombstone: Optional[str]) -> tuple:
    """(reader, {field: norms}, purged ids) of one segment. Every pending
    segment loads here, on the calling thread, before any range task starts;
    the tasks get the norms and tombstones through the object store."""
    from .segment import SegmentReader

    reader = SegmentReader(seg_dir, tombstone)
    norms = {f: reader.norms(f) for f in manifest.get("fields", [])}
    return reader, norms, purged_ids(seg_dir)


def _kept(name: str) -> bool:
    """The files a compacted segment takes unchanged (hard-linked) from its
    source: the doc map, the build's stage stats and the norms files."""
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
) -> tuple:
    """Prepare compacting one segment into the new directory ``new_dir``
    (``reader``, ``norms``, ``purged``: :func:`_load_segment`; ``source``
    names the segment and tombstone it compacts): write all of it but the
    postings and manifest, and plan the term ranges. Returns ``(tasks,
    finish)``: each range's :func:`_merge_range` arguments, and the function
    that takes the tasks' results, writes the manifest and returns the
    compaction's :func:`compact_index` entry. A complete ``new_dir`` of a
    failed earlier run over the same source is kept as it is: no tasks."""
    import ray

    t0 = time.perf_counter()
    files = reader._postings_files()
    rows = sum(pf.metadata.num_rows for pf, *_ in files)
    result = {"source": source["segment"], "segment": os.path.basename(new_dir),
              "posting_rows_in": rows}
    done = read_manifest(new_dir)
    if done is not None and done.get("source") == source:
        return [], lambda ranges: dict(
            result, wall_s=round(time.perf_counter() - t0, 6),
            posting_rows_out=int(done.get("posting_rows") or 0), ranges=[])
    shutil.rmtree(new_dir, ignore_errors=True)
    postings_path = os.path.join(new_dir, "postings.parquet")
    os.makedirs(postings_path)

    # broadcast the segment's norms once (ray.put, zero-copy reads in every
    # merge task) so re-cut blocks keep an exact min_dl for WAND bounds; a
    # tombstoned segment's merge is the purge, so its deleted set goes too
    shared = (ray.put(norms), reader.doc_base,
              None if reader.deleted is None else ray.put(reader.deleted))
    tasks = [(groups, lo, hi, os.path.join(postings_path, f"part-{i:06d}.parquet"), *shared)
             for i, (lo, hi, groups) in enumerate(_plan_ranges(files))]
    with open(os.path.join(seg_dir, "stats.json")) as f:
        stats = json.load(f)
    manifest = dict(manifest, segment_id=os.path.basename(new_dir), source=source,
                    compacted=True)
    if reader.deleted is not None:
        # the merged postings no longer contain the tombstoned docs: record
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
            _link(os.path.join(seg_dir, name), os.path.join(new_dir, name))

    def finish(ranges: list) -> dict:
        manifest["posting_rows"] = sum(r["rows_written"] for r in ranges)
        # the manifest lands last: a directory without it is rebuilt on re-run
        tmp_mf = os.path.join(new_dir, MANIFEST_FILE + ".tmp")
        with open(tmp_mf, "w") as f:
            json.dump(manifest, f, indent=1)
        os.replace(tmp_mf, os.path.join(new_dir, MANIFEST_FILE))
        return dict(result, wall_s=round(time.perf_counter() - t0, 6),
                    posting_rows_out=manifest["posting_rows"], ranges=ranges)

    return tasks, finish


def compact_index(index_dir: str, *, resume: bool = True) -> list[dict]:
    """Compact the postings of every segment of the current commit that is
    not compacted yet or holds tombstones (with ``resume=False``: every
    segment), each into a new segment directory, then publish them all in
    one commit; its sweep deletes the directories they replace. A failure
    before the publish leaves the previous commit serving; a re-run keeps
    the new directories that completed.

    Returns one entry per compacted segment, in commit order (empty when
    nothing needed compacting): ``source`` and new ``segment`` name,
    ``wall_s``, ``posting_rows_in``/``posting_rows_out`` and ``ranges``, one
    entry per term-range task with the row groups it read, the rows it read,
    kept and wrote, and its ``wall_s`` (empty where a complete directory of
    a failed earlier run was kept). Nothing of it is written to the index.

    Every pending segment's range tasks are submitted at once, so the
    segments' merges overlap; each segment whose ranges all succeed gets its
    manifest, also when a range of another fails."""
    import ray

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
    task = ray.remote(_merge_range)
    started = [([task.remote(*a) for a in tasks], finish)
               for tasks, finish in (_compact_segment(*args) for args in pending)]
    done, failed = [], None
    for refs, finish in started:
        try:
            done.append(finish(ray.get(refs)))
        except Exception as e:
            failed = failed or e
    if failed is not None:
        raise failed
    commit.publish(index_dir, dict(c, segments=segments, next_segment=number))
    return done
