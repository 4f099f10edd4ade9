"""Index verifier: every block of every postings row of an index's committed
segments checked against the metadata its row stores, from the bytes on
disk, and each segment's norms and manifest against its stats and files
(Lucene's ``CheckIndex``, postings and norms parts).

The commit: its segments' bounds tile ``[0, total_docs)`` in order; every
segment it names has a complete manifest whose ``doc_count`` is ``hi -
lo``; every tombstone it names exists.

Per segment: it opens (its layout is today's, and each field's norms file
holds ``doc_count`` entries); a field whose norms are a constant ``norm`` in
``stats.json`` has no norms file and ``norm * doc_count`` is its
``total_dl``, and a norms file holds at least two values (one value is
stored as the constant) that sum to its ``total_dl`` (norms stay dense over
maxDoc, so also after a purge); its manifest's ``posting_rows`` is the
number of rows in its postings files; its tombstone ids and its
``purged.npy`` ids are each sorted, unique and inside the segment's ``[lo,
hi)``, and no purged id is still in a block; its doc map's rows ascend by
``base`` and tile ``[lo, hi)`` exactly (a merge concatenates its inputs');
its ``stats.json`` ``live_docs`` and each field's ``live_dl`` are
``doc_count`` and ``total_dl`` less the purged docs and their norms (a merge
adds up its inputs' and purges their tombstones).

Per postings file of each segment:

* every row group holds at most ``writer.ROW_GROUP_ROWS`` rows of one field,
  and a group over ``writer.ROW_GROUP_BYTES`` of payload holds one row;
* in a compacted segment, which compaction writes one term range to a file,
  the rows and so the row groups of a file are in ``(field, term)`` order (a
  build file holds one sorted run per window the build merged, so its order
  is not checked);
* a row whose ``df`` is 1 stores an empty ``hdr`` and every other row a
  non-empty one;
* each row's ``df`` is the sum of its blocks' ``n``;
* each block's ``docs`` and ``tfs`` hold ``n`` varints, and its ``pos``
  one per occurrence (``tfs`` summed);
* decoded with ``RawBlocks.decode_blocks``, each block's docs strictly
  increase, lie in the segment's doc range, hold no purged id and end at
  its ``last_doc`` (its ``first_doc`` is the first of its ``docs``, where
  the reader takes it from); its ``max_tf`` is its largest tf; its
  ``min_dl`` is at least 1 and at most the least norm of its docs (a lower
  bound on their lengths, the least norm itself wherever the writer held
  their norms, and a one-posting row's doc's norm, as the readers fill it).

Findings are lines of text, one per check that fails in a file, naming the
first failing row and block; a sound index has none.
"""

from __future__ import annotations

import os
from typing import List

import numpy as np

from . import commit
from .codec import headerless, int64_column, unpack_rows, varint_counts
from .compact import purged_ids
from .segment import CONVMAP_FILE, MANIFEST_FILE, SegmentReader, norms_file, read_manifest
from .writer import ROW_GROUP_BYTES, ROW_GROUP_ROWS


def verify_index(index_dir: str) -> List[str]:
    """Findings for the commit of ``index_dir`` and every segment it names
    (empty: sound); a segment that fails to open is one finding. Raises the
    rebuild error for a commit in an older format."""
    c = commit.read(index_dir)
    findings = _verify_commit(c)
    for s in c["segments"]:
        seg_dir = commit.segment_dir(index_dir, s.name)
        manifest = read_manifest(seg_dir)
        if manifest is None:
            findings.append(f"{s.name}: has no complete {MANIFEST_FILE}")
            continue
        if int(manifest.get("doc_count", -1)) != s.hi - s.lo:
            findings.append(
                f"{s.name}: its manifest's doc_count is {manifest.get('doc_count')}, "
                f"its commit's bounds [{s.lo}, {s.hi}) hold {s.hi - s.lo} docs")
        tombstone = commit.tombstone_path(index_dir, s)
        if tombstone is not None and not os.path.isfile(tombstone):
            findings.append(f"{s.name}: its commit names tombstone {s.deleted}, "
                            "which does not exist")
            tombstone = None
        try:
            reader = SegmentReader(seg_dir, tombstone)
            if not reader.empty and (reader.doc_base, reader.doc_count) != (
                    s.lo, s.hi - s.lo):
                findings.append(
                    f"{s.name}: holds docs [{reader.doc_base}, "
                    f"{reader.doc_base + reader.doc_count}), its commit says "
                    f"[{s.lo}, {s.hi})")
            files = [] if reader.empty else reader._postings_files()
            for field in [] if reader.empty else reader.manifest["fields"]:
                findings += _verify_norms(reader, s.name, field)
            rows = sum(pf.metadata.num_rows for pf, *_ in files)
            if rows != int(reader.manifest.get("posting_rows", 0)):
                findings.append(
                    f"{s.name}: postings files hold {rows} rows, its manifest "
                    f"says posting_rows {reader.manifest.get('posting_rows')}")
            purged = purged_ids(reader.seg_dir)
            for what, ids in (("tombstone", reader.deleted), ("purged.npy", purged)):
                findings += _verify_ids(f"{s.name}: {what}", ids, s.lo, s.hi)
            if not reader.empty:
                findings += _verify_doc_map(reader, s.name)
                findings += _verify_live_stats(reader, s.name, purged)
            for pf, _stats, _bytes, path in files:
                where = f"{s.name}/{os.path.basename(path)}"
                findings += _verify_file(reader, pf, where, purged)
        except ValueError as e:
            findings.append(f"{s.name}: {e}")
    return findings


def _verify_commit(c: dict) -> List[str]:
    """Findings for commit ``c``'s segment bounds that do not tile ``[0,
    total_docs)`` in order."""
    out = []
    end = 0
    for s in c["segments"]:
        if s.lo != end or s.hi < s.lo:
            out.append(f"{s.name}: its commit bounds [{s.lo}, {s.hi}) do not "
                       f"continue the segments before it, which end at {end}")
        end = max(end, s.hi)
    if end != int(c["total_docs"]):
        out.append(f"the commit's segments end at doc {end}, its total_docs is "
                   f"{c['total_docs']}")
    return out


def _verify_norms(reader: SegmentReader, name: str, field: str) -> List[str]:
    """Findings for one field's norms: a constant beside a norms file, a
    norms file of one value, and norms that do not sum to ``total_dl``."""
    out = []
    total = reader.total_dl(field)
    st = reader.stats["fields"].get(field, {})
    if "norm" in st:
        if os.path.exists(os.path.join(reader.seg_dir, norms_file(field))):
            out.append(f"{name}: norms of {field} are the constant {st['norm']} "
                       f"in stats.json, but {norms_file(field)} exists")
        if st["norm"] * reader.doc_count != total:
            out.append(f"{name}: constant norm {st['norm']} of {field} times "
                       f"{reader.doc_count} docs is {st['norm'] * reader.doc_count}, "
                       f"its stats.json total_dl is {total}")
        return out
    norms = reader.norms(field)
    if norms.size and (norms == norms[0]).all():
        out.append(f"{name}: {norms_file(field)} holds one value, {norms[0]}, "
                   "which stats.json stores as a constant norm")
    dl = int(norms.sum())
    if dl != total:
        out.append(f"{name}: norms of {field} sum to {dl}, its stats.json "
                   f"total_dl is {total}")
    return out


def _verify_doc_map(reader: SegmentReader, name: str) -> List[str]:
    """Findings for a doc map whose rows do not ascend by ``base`` and tile
    the segment's docs exactly, each conversation ``[base, base + cnt)``
    beginning where the one before it ends."""
    _, base, cnt = reader.conv_map()
    lo, hi = reader.doc_base, reader.doc_base + reader.doc_count
    ends = base + cnt
    starts = np.concatenate([[lo], ends[:-1]])
    off = np.flatnonzero((base != starts) | (cnt < 1))
    if off.size:
        i = int(off[0])
        return [f"{name}: {CONVMAP_FILE} does not tile [{lo}, {hi}), {off.size} "
                f"row(s) out of place; first: row {i}, base {base[i]} cnt {cnt[i]} "
                f"where doc {starts[i]} is next"]
    if (ends[-1] if ends.size else lo) != hi:
        return [f"{name}: {CONVMAP_FILE} rows end at doc "
                f"{ends[-1] if ends.size else lo}, the segment at {hi}"]
    return []


def _verify_live_stats(reader: SegmentReader, name: str, purged: np.ndarray) -> List[str]:
    """Findings for live stats in ``stats.json`` (``live_docs``, each
    field's ``live_dl``; absent: ``doc_count`` and ``total_dl``) that are
    not the maxDoc ones less the purged docs and their norms."""
    out = []
    lo, hi = reader.doc_base, reader.doc_base + reader.doc_count
    purged = purged[(purged >= lo) & (purged < hi)]  # the rest: _verify_ids
    want = reader.doc_count - int(purged.size)
    if reader.live_docs != want:
        out.append(f"{name}: stats.json live_docs is {reader.live_docs}, its "
                   f"{reader.doc_count} docs less {purged.size} purged are {want}")
    for field in reader.manifest["fields"]:
        gone = int(reader.norms(field)[purged - lo].sum())
        want = reader.total_dl(field) - gone
        if reader.live_total_dl(field) != want:
            out.append(f"{name}: stats.json live_dl of {field} is "
                       f"{reader.live_total_dl(field)}, its total_dl less the "
                       f"purged docs' norms is {want}")
    return out


def _verify_ids(what: str, ids, lo: int, hi: int) -> List[str]:
    """Findings for doc ids ``ids`` (None: none) that are not sorted and
    unique or lie outside ``[lo, hi)``."""
    if ids is None or not ids.size:
        return []
    out = []
    back = np.flatnonzero(np.diff(ids) <= 0)
    if back.size:
        i = int(back[0]) + 1
        out.append(f"{what} ids are not sorted and unique, {back.size} step(s) "
                   f"not up; first: id {ids[i]} at {i} after {ids[i - 1]}")
    off = np.flatnonzero((ids < lo) | (ids >= hi))
    if off.size:
        out.append(f"{what} holds {off.size} id(s) outside the segment's "
                   f"[{lo}, {hi}); first: {ids[off[0]]}")
    return out


def _verify_file(reader: SegmentReader, pf, where: str, purged: np.ndarray) -> List[str]:
    stored = pf.read()
    out = _verify_headers(stored, where)
    if out:
        return out  # rows the writer would not write: no block is checked
    try:
        norms = {f: reader.norms(f) for f in reader.manifest["fields"]}
        rows, rb, loff = unpack_rows(stored, norms, reader.doc_base)
    except ValueError as e:
        return [f"{where}: {e}"]
    nb = np.diff(loff)
    row_of = np.repeat(np.arange(rows.num_rows), nb)
    fields = rows["field"].to_pylist()
    terms = rows["term"].to_pylist()

    def check(what: str, bad: np.ndarray, want=None, got=None) -> None:
        """One finding for the blocks where ``bad`` holds, naming the first."""
        hit = np.flatnonzero(bad)
        if not hit.size:
            return
        k = int(hit[0])
        r = int(row_of[k])
        detail = "" if want is None else f" (stored {want[k]}, decoded {got[k]})"
        out.append(f"{where}: {hit.size} block(s) where {what}; first: row {r} "
                   f"({fields[r]}, {terms[r]!r}) block {k - loff[r]}{detail}")

    payload = sum(np.diff(offs) for _, offs in (rb.docs, rb.tfs, rb.pos))
    row_payload = np.bincount(row_of, payload, rows.num_rows).astype(np.int64)
    md = pf.metadata
    group_ends = np.cumsum([md.row_group(g).num_rows for g in range(md.num_row_groups)])
    for g, (lo, hi) in enumerate(zip([0, *group_ends[:-1].tolist()], group_ends.tolist())):
        if (hi - lo > ROW_GROUP_ROWS or len(set(fields[lo:hi])) > 1
                or (hi - lo > 1 and row_payload[lo:hi].sum() > ROW_GROUP_BYTES)):
            out.append(f"{where}: row group {g} ({hi - lo} rows, fields "
                       f"{sorted(set(fields[lo:hi]))}, {row_payload[lo:hi].sum()} "
                       "payload bytes) breaks the writer's row-group invariant")
    if reader.manifest.get("compacted"):
        keys = list(zip(fields, terms))
        back = [i for i in range(1, len(keys)) if keys[i] < keys[i - 1]]
        if back:
            i = back[0]
            g = int(np.searchsorted(group_ends, i, side="right"))
            out.append(f"{where}: row groups out of (field, term) order, {len(back)} "
                       f"step(s) back; first: row {i} {keys[i]!r} in row group {g} "
                       f"after {keys[i - 1]!r}")

    df = int64_column(rows["df"].combine_chunks())
    n_sum = np.bincount(row_of, rb.ns, rows.num_rows).astype(np.int64)
    bad_df = np.flatnonzero(df != n_sum)
    if bad_df.size:
        r = int(bad_df[0])
        out.append(f"{where}: {bad_df.size} row(s) whose df is not the sum of "
                   f"their blocks' n; first: row {r} ({fields[r]}, {terms[r]!r}) "
                   f"df {df[r]}, blocks' n sum to {n_sum[r]}")

    found = len(out)
    check("n < 1", rb.ns < 1)
    ndocs, ntfs = varint_counts(rb.docs), varint_counts(rb.tfs)
    check("docs do not hold n varints", ndocs != rb.ns, rb.ns, ndocs)
    check("tfs do not hold n varints", ntfs != rb.ns, rb.ns, ntfs)
    if len(out) > found or not rb.count:
        return out  # a block's docs cannot be told from the next one's

    docs, tfs, _ = rb.decode_blocks(None)
    starts = np.cumsum(rb.ns) - rb.ns
    ends = starts + rb.ns - 1
    tf_sum = np.add.reduceat(tfs, starts)
    npos = varint_counts(rb.pos)
    check("pos does not hold one varint per occurrence", npos != tf_sum,
          tf_sum, npos)
    check("last_doc is not the last doc", rb.lasts != docs[ends], rb.lasts, docs[ends])
    max_tf = np.maximum.reduceat(tfs, starts)
    check("max_tf is not the largest tf", rb.max_tf != max_tf, rb.max_tf, max_tf)
    step = np.ones(docs.size, bool)  # docs[i] > docs[i - 1] inside a block
    step[1:] = docs[1:] > docs[:-1]
    step[starts] = True
    check("docs do not strictly increase",
          np.logical_and.reduceat(step, starts) == 0)
    inside = (docs >= reader.doc_base) & (docs < reader.doc_base + reader.doc_count)
    in_range = np.logical_and.reduceat(inside, starts).astype(bool)
    check("docs lie outside the segment", ~in_range)
    if purged.size:
        check("a purged doc is still posted",
              np.logical_or.reduceat(np.isin(docs, purged), starts))

    dl = np.zeros(docs.size, np.int64)
    names, code = np.unique(np.asarray(fields, dtype=object), return_inverse=True)
    doc_code = np.repeat(code[row_of], rb.ns)
    for c, field in enumerate(names):
        at = np.flatnonzero((doc_code == c) & inside)
        dl[at] = reader.norms(field)[docs[at] - reader.doc_base]
    min_dl = np.minimum.reduceat(dl, starts)
    check("a term block's min_dl is not between 1 and the least norm of its docs",
          in_range & ((rb.min_dl < 1) | (rb.min_dl > min_dl)), rb.min_dl, min_dl)
    return out


def _verify_headers(stored, where: str) -> List[str]:
    """Findings for stored postings rows that store no header where their
    ``df`` is not 1, or one where it is."""
    out = []
    empty = headerless(stored)
    single = int64_column(stored["df"].combine_chunks()) == 1
    for bad, what in ((single & ~empty, "a df of 1 and a header"),
                      (~single & empty, "a df above 1 and no header")):
        hit = np.flatnonzero(bad)
        if hit.size:
            r = int(hit[0])
            out.append(f"{where}: {hit.size} row(s) with {what}; first: row {r} "
                       f"({stored['field'][r].as_py()}, {stored['term'][r].as_py()!r})")
    return out
