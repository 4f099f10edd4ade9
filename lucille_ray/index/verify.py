"""Index verifier: every block of every postings row of an index's committed
segments checked against the metadata its row stores, from the bytes on
disk, and each segment's norms and manifest against its stats and files
(Lucene's ``CheckIndex``, postings and norms parts).

Per segment: it opens (its layout is today's, and each field's norms file
holds ``doc_count`` entries); each field's norms sum to its ``stats.json``
``total_dl`` (norms stay dense over maxDoc, so also after a purge); its
manifest's ``posting_rows`` is the number of rows in its postings files.

Per postings file of each segment:

* every row group holds at most ``writer.ROW_GROUP_ROWS`` rows of one field,
  and a group over ``writer.ROW_GROUP_BYTES`` of payload holds one row;
* in a compacted segment, which compaction writes one term range to a file,
  the rows and so the row groups of a file are in ``(field, term)`` order (a
  build file holds one sorted run per window the build merged, so its order
  is not checked);
* each row's ``df`` is the sum of its blocks' ``n``;
* each block's ``docs`` and ``tfs`` hold ``n`` varints, and its ``pos``
  one per occurrence (``tfs`` summed);
* decoded with ``RawBlocks.decode_blocks``, each block's docs strictly
  increase, lie in the segment's doc range and start and end at its
  ``first_doc`` and ``last_doc``; its ``max_tf`` is its largest tf; its
  ``min_dl`` is at least 1 and at most the least norm of its docs (a lower
  bound on their lengths, the least norm itself wherever the writer held
  their norms).

Findings are lines of text, one per check that fails in a file, naming the
first failing row and block; a sound index has none.
"""

from __future__ import annotations

import os
from typing import List

import numpy as np
import pyarrow.compute as pc

from . import commit
from .codec import int64_column, unpack_rows, varint_counts
from .segment import SegmentReader
from .writer import ROW_GROUP_BYTES, ROW_GROUP_ROWS


def verify_index(index_dir: str) -> List[str]:
    """Findings for every committed segment of ``index_dir`` (empty: sound);
    a segment that fails to open is one finding. Raises the rebuild error
    for a commit in an older format."""
    findings: List[str] = []
    for s in commit.read(index_dir)["segments"]:
        try:
            reader = SegmentReader(commit.segment_dir(index_dir, s.name),
                                   commit.tombstone_path(index_dir, s))
            if not reader.empty and (reader.doc_base, reader.doc_count) != (
                    s.lo, s.hi - s.lo):
                findings.append(
                    f"{s.name}: holds docs [{reader.doc_base}, "
                    f"{reader.doc_base + reader.doc_count}), its commit says "
                    f"[{s.lo}, {s.hi})")
            files = [] if reader.empty else reader._postings_files()
            for field in [] if reader.empty else reader.manifest["fields"]:
                dl = int(reader.norms(field).sum())
                if dl != reader.total_dl(field):
                    findings.append(
                        f"{s.name}: norms of {field} sum to {dl}, its stats.json "
                        f"total_dl is {reader.total_dl(field)}")
            rows = sum(pf.metadata.num_rows for pf, *_ in files)
            if rows != int(reader.manifest.get("posting_rows", 0)):
                findings.append(
                    f"{s.name}: postings files hold {rows} rows, its manifest "
                    f"says posting_rows {reader.manifest.get('posting_rows')}")
            for pf, _stats, _bytes, path in files:
                where = f"{s.name}/{os.path.basename(path)}"
                findings += _verify_file(reader, pf, where)
        except ValueError as e:
            findings.append(f"{s.name}: {e}")
    return findings


def _verify_file(reader: SegmentReader, pf, where: str) -> List[str]:
    try:
        rows, rb, loff = unpack_rows(pf.read())
    except ValueError as e:
        return [f"{where}: {e}"]
    nb = np.diff(loff)
    row_of = np.repeat(np.arange(rows.num_rows), nb)
    fields = rows["field"].to_pylist()
    terms = rows["term"].to_pylist()
    out: List[str] = []

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

    blocks = rb.list_array(loff).flatten()
    payload = sum(pc.binary_length(blocks.field(c)).to_numpy(zero_copy_only=False)
                  .astype(np.int64) for c in ("docs", "tfs", "pos"))
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
    ndocs, ntfs = (varint_counts(blocks.field(c)) for c in ("docs", "tfs"))
    check("docs do not hold n varints", ndocs != rb.ns, rb.ns, ndocs)
    check("tfs do not hold n varints", ntfs != rb.ns, rb.ns, ntfs)
    if len(out) > found or not rb.count:
        return out  # a block's docs cannot be told from the next one's

    docs, tfs, _ = rb.decode_blocks(None)
    starts = np.cumsum(rb.ns) - rb.ns
    ends = starts + rb.ns - 1
    tf_sum = np.add.reduceat(tfs, starts)
    npos = varint_counts(blocks.field("pos"))
    check("pos does not hold one varint per occurrence", npos != tf_sum,
          tf_sum, npos)
    check("first_doc is not the first doc", rb.firsts != docs[starts],
          rb.firsts, docs[starts])
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
