"""Segment compaction: merge the per-batch posting *pieces* written by the
shuffle-free build into one consolidated row per ``(field, term)``, and each
run of adjacent small segments into one segment.

Merge policy (:func:`_merge_groups`, one tier of Lucene's
``TieredMergePolicy``): a segment of fewer than :data:`SLICE_DOCS` docs is
small, and each maximal run of adjacent small segments merges into one new
segment, cut once it holds SLICE_DOCS docs; a larger segment is compacted on
its own and never merged. A merge needs no executor of its own: doc ranges
are contiguous and a block's first doc is a global id, so the union of the
inputs' rows in ``(field, term, first doc)`` order is a valid segment. Norms
and doc maps concatenate, stats add up, and the inputs' tombstones are
purged in the same pass.

A build file holds a few ``(field, term)``-sorted runs, one per window the
build merged (per tokenize batch and field where it skipped the merge), and
its row groups carry ``(field, term)`` min/max statistics. So compaction
runs no global sort (as Lucene's ``SegmentMerger`` streams sorted term
dictionaries): the driver plans term ranges from the footers of every input
(:func:`_plan_ranges`), and one Ray task per range reads the row groups that
may overlap it, merges the rows inside it and writes one file. No term
straddles two ranges, so the output is a pure function of the input. New
segment directories are published by one commit (``commit.py``);
compaction is optional, idempotent and resumable per new segment: a new
segment whose ranges all succeeded gets its manifest even when a range of
another fails, and a re-run over the same inputs reuses that directory.
"""

from __future__ import annotations

import bisect
import json
import os
import shutil
import time
from typing import List, NamedTuple, Optional, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from . import commit
from .build import _limit_worker_threads
from .codec import (BLOCK_SIZE, RawBlocks, chunk_starts, encode_runs, pack_rows,
                    row_order, take_blocks, take_postings, unpack_rows)
from .segment import (CONVMAP_FILE, MANIFEST_FILE, _narrowest_uint, live_mask, norms_file,
                      read_manifest)


#: max blocks per consolidated posting row (~32k postings, a few hundred KB):
#: a hot term's postings split across multiple doc-ordered rows (bucket = first
#: doc of the chunk) so one row cell can never grow to tens of MB — row-group
#: predicate pushdown then reads a bounded byte volume per term lookup instead
#: of a whole segment's postings for one hot term
ROW_BLOCK_CAP = 256
#: compressed postings bytes of input per term range of a compaction. A
#: range task reads about this much and writes about this much as one file
#: (blocks are mostly copied verbatim), so this sets both the file count and
#: a task's memory: a task holds its rows decoded, over 20 times their
#: compressed size (one 26 MB range peaked at 820 MB). On a 1M-turn segment
#: it gives 24 files, where one range per 16,384 input piece rows gave 51
RANGE_BYTES = 2 << 20
#: a segment of fewer docs is small: compaction merges each run of adjacent
#: small segments into one (:func:`_merge_groups`), and the search engine
#: packs small segments onto shared scorer actors (``engine.slice_groups``).
#: A scorer process costs ~135 MB before it serves anything, and a 32k-doc
#: segment is ~10 MB on disk; a segment this large or larger is never merged
#: with another
SLICE_DOCS = 32_768
#: sorted doc ids every purge in a segment's lineage removed, written into
#: the new directory of each compaction that carries any
PURGED_FILE = "purged.npy"


def written_segments(manifest: Optional[dict]) -> int:
    """How many segments, as build and append wrote them, the segment of
    ``manifest`` holds: 1, or for a compaction's new segment the sum over
    its inputs (its ``merged_segments``). ``SearchEngine`` serves an index
    on actors by this count, so a merge leaves its serving unchanged."""
    return int((manifest or {}).get("merged_segments", 1))


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
    the least. Returns the new blocks and each span's block offsets."""
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
    if norms is not None:
        post_field = span_field[post_span]
        for field in np.unique(span_field):
            arr = norms.get(field)
            at = np.flatnonzero(post_field == field)
            if arr is not None and at.size:
                known = arr[docs[at] - doc_base]
                dls[at] = np.where(known > 0, known, dls[at])
    return encode_runs(docs, tfs, span_starts, pos, dls)


def _merge_sorted_batch(
    rows: pa.Table, raw: RawBlocks, row_off: np.ndarray, *, norms=None,
    doc_base: int = 0, deleted=None,
) -> Tuple[pa.Table, RawBlocks, np.ndarray]:
    """One batch of (field, term, bucket)-sorted piece rows (``rows``' field
    and term, their blocks ``raw``, row ``i`` holding blocks ``row_off[i]``
    to ``row_off[i + 1]``) -> the merged rows in the same form ``(rows,
    blocks, offsets)``: one row (or a few, for hot terms past
    ROW_BLOCK_CAP) per (field, term) run present in the batch.

    Blocks are self-contained (each starts with an absolute doc id), so almost
    every block is copied VERBATIM — an LSM-style block-preserving merge.
    The verbatim path never touches payload bytes at the Python layer: the
    output block sequence is assembled as an int64 index vector, and
    :func:`~.codec.take_blocks` gathers the surviving blocks by it (one
    Arrow ``take`` per payload). Only spans of >=2 ADJACENT undersized
    piece-tail blocks decode + re-encode (merging splinters into full
    blocks), as does every block of a tombstoned segment (the purge moment,
    where deleted docs physically leave and per-row df re-derives from what
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
    correct as full ones.

    ``norms`` ({field: per-doc dl array, from ``doc_base``}) gives
    re-encoded blocks their exact ``min_dl`` even though the merged block
    boundaries differ from the build-time pieces'; a doc it lacks counts at
    its source block's ``min_dl`` (:func:`_reencode_spans`), so a term block
    re-cut from blocks with a positive ``min_dl`` stores one too, a lower
    bound on its docs' lengths. ``deleted`` (sorted doc ids) is a tombstoned
    segment's delete set."""
    _limit_worker_threads()
    fcol = rows.column("field").combine_chunks()
    tcol = rows.column("term").combine_chunks()
    nrows = rows.num_rows
    if nrows == 0:
        return pa.table({"field": fcol, "term": tcol}), raw, row_off

    f_idx = pc.dictionary_encode(fcol).indices.to_numpy(zero_copy_only=False)
    t_idx = pc.dictionary_encode(tcol).indices.to_numpy(zero_copy_only=False)
    change = np.flatnonzero((np.diff(f_idx) != 0) | (np.diff(t_idx) != 0)) + 1
    run_starts = np.concatenate([[0], change]).astype(np.int64)
    run_ends = np.append(change, nrows)
    nruns = run_starts.size
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
    parts = [raw]
    span_new_start = span_new_nb = np.zeros(nspans, np.int64)
    if nspans:
        new, offs = _reencode_spans(
            raw, order[member], span_nb, run_field[span_run], norms, doc_base, deleted,
        )
        span_new_start = raw.count + offs[:-1]
        span_new_nb = np.diff(offs)
        parts.append(new)

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

    # rows: each run's sequence in chunks of ROW_BLOCK_CAP blocks
    out_runs = np.flatnonzero(np.diff(np.append(-1, seq_run)) != 0)
    row_start, row_count = chunk_starts(
        out_runs, np.diff(np.append(out_runs, seq.size)), ROW_BLOCK_CAP
    )
    src_row = pa.array(run_starts[np.repeat(seq_run[out_runs], row_count)], pa.int64())
    keys = pa.table({"field": fcol.take(src_row).cast(pa.string()),
                     "term": tcol.take(src_row).cast(pa.string())})
    return keys, take_blocks(parts, seq), np.append(row_start, seq.size)


def _at_or_after(t: pa.Table, key: tuple):
    """Mask of the rows of ``t`` whose (field, term) is at or after ``key``."""
    field, term = key
    return pc.or_(pc.greater(t["field"], field), pc.and_(
        pc.equal(t["field"], field), pc.greater_equal(t["term"], term)))


def _merge_range(groups: list, lo: Optional[tuple], hi: Optional[tuple], path: str,
                 norms: dict, doc_base: int, doc_count: int,
                 deleted: Optional[np.ndarray]) -> dict:
    """One term range of a new segment's compaction, run as a Ray task: read the
    row groups ``groups`` (``[(file, [row group, ...]), ...]``), keep the rows
    with ``lo <= (field, term) < hi`` (``None``: unbounded), stable-sort them
    by (field, term, bucket), unpack them (a one-posting row's block takes
    its doc's norm as ``min_dl``), merge them in one
    :func:`_merge_sorted_batch` call (``doc_base``, ``deleted``: its
    arguments; ``norms`` as :func:`_shipped_norms` sends them, over the
    new segment's ``doc_count`` docs) and write the merged rows to ``path``
    (nothing when none are left). Returns the row groups read, the rows
    read, kept and written, and the wall seconds."""
    from .writer import write_postings_file

    t0 = time.perf_counter()
    _limit_worker_threads()
    norms = {f: np.broadcast_to(v, (doc_count,)) if isinstance(v, int) else v
             for f, v in norms.items()}
    t = pa.concat_tables([pq.ParquetFile(f).read_row_groups(gs) for f, gs in groups])
    rows_read = t.num_rows
    if lo is not None:
        t = t.filter(_at_or_after(t, lo))
    if hi is not None:
        t = t.filter(pc.invert(_at_or_after(t, hi)))
    out = pack_rows(*_merge_sorted_batch(
        *unpack_rows(t.take(row_order(t, ["field", "term"])), norms, doc_base),
        norms=norms, doc_base=doc_base, deleted=deleted))
    if out.num_rows:
        write_postings_file(out, path)
    return {"row_groups": sum(len(gs) for _, gs in groups), "rows_read": rows_read,
            "rows_kept": t.num_rows, "rows_written": out.num_rows,
            "wall_s": round(time.perf_counter() - t0, 6)}


def _plan_ranges(files: list) -> list:
    """The term ranges of one new segment's compaction, planned from the
    postings footers of its inputs (``files``: every input's
    :meth:`SegmentReader._postings_files`), as ``(lo, hi, groups)`` for
    :func:`_merge_range`. A range's ``groups`` are the row groups whose
    (field, term) statistics may overlap it; a group without statistics may
    overlap every range. Ranges no row group may overlap are left out.

    The plan aims at one range per :data:`RANGE_BYTES` of input (a build's
    piece rows outnumber the rows they merge into many times over, so rows
    are no measure of a range's output), cut at the row-weighted quantiles
    of the group minima and maxima (half a group's rows count at its
    minimum, half at its maximum). Each sorted run of the input has a row
    group across most cuts, which both ranges beside the cut read: where the
    ranges would read the rows with statistics more than twice over (many
    runs, or groups spanning a whole field), the plan cuts fewer ranges
    until they do not."""
    spans = []  # per row group: (file, group, rows, min key, max key)
    nbytes = 0
    for pf, stats, group_bytes, path in files:
        md = pf.metadata
        keys = [(None, None)] * md.num_row_groups
        if stats is not None:
            fmin, fmax, tmin, tmax = (a.tolist() for a in stats)
            keys = list(zip(zip(fmin, tmin), zip(fmax, tmax)))
        spans += [(path, g, md.row_group(g).num_rows, *keys[g])
                  for g in range(md.num_row_groups)]
        nbytes += int(group_bytes.sum())
    keyed = [s for s in spans if s[3] is not None]
    cands = sorted({k for s in keyed for k in s[3:]})
    rank = {k: i for i, k in enumerate(cands)}
    lo_i, hi_i = (np.array([rank[s[c]] for s in keyed], np.int64) for c in (3, 4))
    n, m = np.array([s[2] for s in keyed], np.int64), len(cands)
    w = np.bincount(lo_i, n / 2, m) + np.bincount(hi_i, n / 2, m)
    before = np.cumsum(w) - w  # rows before each candidate
    nranges = max(1, -(-nbytes // RANGE_BYTES))
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


def _shipped_norms(fields: dict, norms: dict) -> dict:
    """A new segment's ``norms`` as its range tasks get them: the norms of a
    field whose docs all have one length (a ``norm`` in ``fields``, its
    ``stats.json`` entries) as that value, which :func:`_merge_range`
    broadcasts again (a pickled broadcast array holds one value per doc)."""
    return {f: fields[f]["norm"] if "norm" in fields.get(f, {}) else arr
            for f, arr in norms.items()}


class _Input(NamedTuple):
    """One segment a compaction reads: its manifest, its entry in the new
    manifest's ``source`` (``{"segment", "deleted"}``: its name and
    tombstone), its reader, its ``{field: norms}`` and the doc ids earlier
    compactions purged from it."""

    manifest: dict
    source: dict
    reader: object
    norms: dict
    purged: np.ndarray


def _load_segment(seg_dir: str, manifest: dict, source: dict,
                  tombstone: Optional[str]) -> _Input:
    """One input segment, opened. Every input loads here, on the calling
    thread, before any range task starts; the tasks get the norms and
    tombstones through the object store."""
    from .segment import SegmentReader

    reader = SegmentReader(seg_dir, tombstone)
    norms = {f: reader.norms(f) for f in manifest.get("fields", [])}
    return _Input(manifest, source, reader, norms, purged_ids(seg_dir))


def _merged_fields(inputs: list) -> Tuple[dict, dict]:
    """The new segment's ``stats.json`` field entries and ``{field:
    norms}``: lengths add up, norms concatenate in doc order, and a field
    keeps a constant ``norm`` only when every input has that same one."""
    fields, norms = {}, {}
    for f in inputs[0].manifest.get("fields", []):
        fields[f] = {"total_dl": sum(i.reader.total_dl(f) for i in inputs)}
        consts = {i.reader.stats["fields"].get(f, {}).get("norm") for i in inputs}
        if len(consts) == 1 and None not in consts:
            fields[f]["norm"] = consts.pop()
        norms[f] = np.concatenate([i.norms[f] for i in inputs])
    return fields, norms


def _write_merged_files(inputs: list, new_dir: str, fields: dict, norms: dict) -> None:
    """The files a compaction of ``inputs`` writes beside its postings and
    ``stats.json``: the norms file of each field without a constant
    ``norm`` and the doc map, each the inputs' concatenated in doc order
    (one input's, rewritten, when it is compacted alone), and the stage
    stats of the newest input that has them (the last in doc order: writes
    append docs). Keeping one write's Ray Data stats, not all of them,
    keeps a segment that is appended to and compacted over and over from
    carrying every earlier write's stats forward."""
    for f, st in fields.items():
        if "norm" not in st:
            np.save(os.path.join(new_dir, norms_file(f)), _narrowest_uint(norms[f]))
    maps = [i.reader.conv_map() for i in inputs]
    pq.write_table(pa.table({
        "conv_id": pa.concat_arrays([m[0].cast(pa.string()) for m in maps]),
        "base": np.concatenate([m[1] for m in maps]),
        "cnt": np.concatenate([m[2] for m in maps]),
    }), os.path.join(new_dir, CONVMAP_FILE))
    for i in reversed(inputs):
        path = os.path.join(i.reader.seg_dir, "stage_stats.txt")
        if os.path.exists(path):
            shutil.copyfile(path, os.path.join(new_dir, "stage_stats.txt"))
            break


def _compact_segment(inputs: list, new_dir: str) -> tuple:
    """Prepare compacting the adjacent segments ``inputs`` (:class:`_Input`,
    in doc order; one, or a run :func:`_merge_groups` merges) into the new
    segment directory ``new_dir``: write all of it but the postings and
    manifest, and plan the term ranges over every input's row groups (doc
    ranges are contiguous and a block's first doc is a global id, so the
    inputs' rows in (field, term, first doc) order are one valid segment).
    The inputs' tombstones are purged in the same pass. Returns ``(tasks,
    finish)``: each range's :func:`_merge_range` arguments, and the function
    that takes the tasks' results, writes the manifest and returns the
    compaction's :func:`compact_index` entry. A complete ``new_dir`` of a
    failed earlier run over the same inputs is kept as it is: no tasks."""
    import ray

    t0 = time.perf_counter()
    readers = [i.reader for i in inputs]
    files = [f for r in readers for f in r._postings_files()]
    source = [i.source for i in inputs]
    result = {"source": [s["segment"] for s in source],
              "segment": os.path.basename(new_dir),
              "posting_rows_in": sum(pf.metadata.num_rows for pf, *_ in files)}
    done = read_manifest(new_dir)
    if done is not None and done.get("source") == source:
        return [], lambda ranges: dict(
            result, wall_s=round(time.perf_counter() - t0, 6),
            posting_rows_out=int(done.get("posting_rows") or 0), ranges=[])
    shutil.rmtree(new_dir, ignore_errors=True)
    postings_path = os.path.join(new_dir, "postings.parquet")
    os.makedirs(postings_path)

    doc_base = readers[0].doc_base
    doc_count = sum(r.doc_count for r in readers)
    fields, norms = _merged_fields(inputs)
    deleted = [r.deleted for r in readers if r.deleted is not None]
    deleted = np.concatenate(deleted) if deleted else None
    purged = np.concatenate([i.purged for i in inputs])
    stats = {k: v for k, v in readers[0].stats.items() if k != "live_docs"}
    stats.update(doc_count=doc_count, fields=fields)
    manifest = dict(inputs[0].manifest, segment_id=os.path.basename(new_dir),
                    source=source, compacted=True, doc_count=doc_count,
                    merged_segments=sum(written_segments(i.manifest) for i in inputs))
    if deleted is not None or any("live_docs" in r.stats for r in readers):
        # the merged postings no longer contain the tombstoned docs: record
        # LIVE stats (numDocs/liveDl) next to the untouched maxDoc ones —
        # engine-level N and avgdl switch to them, like Lucene after a merge.
        # They already leave out earlier purges: only newly dead docs count
        dead = np.empty(0, np.int64) if deleted is None else np.setdiff1d(deleted, purged)
        stats["live_docs"] = sum(r.live_docs for r in readers) - int(dead.size)
        for f, st in fields.items():
            st["live_dl"] = (sum(r.live_total_dl(f) for r in readers)
                             - int(norms[f][dead - doc_base].sum()))
        manifest["purged_docs"] = sum(
            int(i.manifest.get("purged_docs", 0)) for i in inputs) + int(dead.size)
        purged = np.union1d(purged, dead)
    if purged.size:
        np.save(os.path.join(new_dir, PURGED_FILE), purged)
    with open(os.path.join(new_dir, "stats.json"), "w") as f:
        json.dump(stats, f, indent=1)
    _write_merged_files(inputs, new_dir, fields, norms)

    # broadcast the norms once (ray.put, zero-copy reads in every merge
    # task) so re-cut blocks keep an exact min_dl for WAND bounds; the merge
    # is the purge, so the deleted set goes too
    shared = (ray.put(_shipped_norms(fields, norms)), doc_base, doc_count,
              None if deleted is None else ray.put(deleted))
    tasks = [(groups, lo, hi, os.path.join(postings_path, f"part-{i:06d}.parquet"), *shared)
             for i, (lo, hi, groups) in enumerate(
                 _plan_ranges(files))]

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


def _merge_groups(segments: list, manifests: list) -> List[List[int]]:
    """The commit's segments (``segments``, with their complete
    ``manifests``, None where one is missing) grouped by index into the new
    segments of a compaction (Lucene's ``TieredMergePolicy``, one tier): a
    segment of SLICE_DOCS docs or more, or without a manifest, stays alone,
    and each maximal run of adjacent small segments (fewer docs) is cut into
    groups, closing a group once it holds SLICE_DOCS docs."""
    groups: List[List[int]] = []
    docs = None  # docs of the open group of small segments, None: none open
    for i, (seg, manifest) in enumerate(zip(segments, manifests)):
        n = seg.hi - seg.lo
        if manifest is None or n >= SLICE_DOCS:
            groups.append([i])
            docs = None
            continue
        if docs is None or docs >= SLICE_DOCS:
            groups.append([])
            docs = 0
        groups[-1].append(i)
        docs += n
    return groups


def compact_index(index_dir: str, *, resume: bool = True) -> list[dict]:
    """Compact the postings of the current commit's segments into new
    segment directories, then publish them all in one commit; its sweep
    deletes the directories they replace. Each run of adjacent small
    segments (fewer than SLICE_DOCS docs: :func:`_merge_groups`) merges
    into one new segment, and every other segment that is not compacted
    yet or holds tombstones (with ``resume=False``: every segment) is
    compacted on its own; a segment of SLICE_DOCS docs or more is never
    merged with another. A failure before the publish leaves the previous
    commit serving; a re-run keeps the new directories that completed. A
    compaction of a compacted index without tombstones does nothing.

    Returns one entry per new segment, in commit order (empty when nothing
    needed compacting): the ``source`` segment names, the new ``segment``
    name, ``wall_s``, ``posting_rows_in``/``posting_rows_out`` and
    ``ranges``, one entry per term-range task with the row groups it read,
    the rows it read, kept and wrote, and its ``wall_s`` (empty where a
    complete directory of a failed earlier run was kept). Nothing of it is
    written to the index.

    Every new segment's range tasks are submitted at once, so the merges
    overlap; each new segment whose ranges all succeed gets its manifest,
    also when a range of another fails."""
    import ray

    c = commit.read(index_dir)
    segments = c["segments"]
    manifests = [read_manifest(commit.segment_dir(index_dir, s.name)) for s in segments]
    number = int(c["next_segment"])
    published: list = []
    pending: list = []
    for group in _merge_groups(segments, manifests):
        first = manifests[group[0]]
        # a segment alone is compacted once, unless deletes after that
        # re-qualify it: this pass is also the tombstone purge
        if len(group) == 1 and (first is None or first.get("empty") or (
                resume and first.get("compacted") and segments[group[0]].deleted is None)):
            members = []
        else:
            members = [i for i in group if not manifests[i].get("empty")]
        if not members:
            published += [segments[i] for i in group]
            continue
        name = commit.segment_name(number)
        number += 1
        published.append(commit.Segment(name, segments[group[0]].lo, segments[group[-1]].hi))
        inputs = [_load_segment(commit.segment_dir(index_dir, segments[i].name),
                                manifests[i], {"segment": segments[i].name,
                                               "deleted": segments[i].deleted},
                                commit.tombstone_path(index_dir, segments[i]))
                  for i in members]
        pending.append((inputs, commit.segment_dir(index_dir, name)))
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
    commit.publish(index_dir, dict(c, segments=published, next_segment=number))
    return done
