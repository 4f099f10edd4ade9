"""Index verifier: every block of every postings row of an index's committed
segments checked against the metadata its row stores, from the bytes on
disk (Lucene's ``CheckIndex``, postings part).

Per postings file of each segment:

* every row group holds at most ``writer.ROW_GROUP_ROWS`` rows of one field,
  and a group over ``writer.ROW_GROUP_BYTES`` of payload holds one row;
* each row's ``df`` is the sum of its blocks' ``n``;
* each block's ``docs`` and ``tfs`` hold ``n`` varints, and its ``pos``
  one per occurrence (``tfs`` summed; none in a norms row);
* decoded with ``RawBlocks.decode_blocks``, each block's docs strictly
  increase, lie in the segment's doc range and start and end at its
  ``first_doc`` and ``last_doc``; its ``max_tf`` is its largest tf; its
  ``min_dl`` is the least norm of its docs, or 0 (unknown: a block the
  build's window merge re-cut without its docs' norms at hand).

Findings are lines of text, one per check that fails in a file, naming the
first failing row and block; a sound index has none.
"""

from __future__ import annotations

import os
from typing import List

import numpy as np
import pyarrow.compute as pc

from . import commit
from .build import NORMS_TERM
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
            for pf, _stats, _bytes, path in (
                    [] if reader.empty else reader._postings_files()):
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
    norms_row = np.array([t == NORMS_TERM for t in terms], dtype=bool)
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
    lo = 0
    for g in range(md.num_row_groups):
        hi = lo + md.row_group(g).num_rows
        if (hi - lo > ROW_GROUP_ROWS or len(set(fields[lo:hi])) > 1
                or (hi - lo > 1 and row_payload[lo:hi].sum() > ROW_GROUP_BYTES)):
            out.append(f"{where}: row group {g} ({hi - lo} rows, fields "
                       f"{sorted(set(fields[lo:hi]))}, {row_payload[lo:hi].sum()} "
                       "payload bytes) breaks the writer's row-group invariant")
        lo = hi

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
    want_pos = np.where(norms_row[row_of], 0, tf_sum)
    check("pos does not hold one varint per occurrence", npos != want_pos,
          want_pos, npos)
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
    check("min_dl is neither 0 nor the least norm of its docs",
          in_range & (rb.min_dl != 0) & (rb.min_dl != min_dl), rb.min_dl, min_dl)
    return out
