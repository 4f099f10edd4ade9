"""Document deletes via per-segment tombstones (Lucene liveDocs semantics).

``delete_docs`` / ``delete_conversations`` write, into each affected segment
of the current commit, a NEW tombstone file (``commit.tombstone_name``): the
sorted union of the segment's previous tombstones and the new ids. One
``commit.publish`` then names all of them at once, so a delete across many
segments is atomic — a failure before the publish leaves the previous
commit's tombstones serving — and the publish's sweep removes the files it
replaced. Deletes are idempotent and accumulative. Readers opened afterwards
drop tombstoned docs at the one decode point, ``SegmentReader.decode``, that
every query shape and executor goes through, so they never appear in results
— while df / norms / avgdl statistics intentionally keep counting them until
a rewrite, exactly like Lucene's maxDoc-based stats before a merge:
surviving docs' scores are bit-identical before and after a delete.

Scale note: conversations resolve to doc ids through each segment's doc map
(``convmap.parquet``, one row per conversation: a conversation's turns are the
dense range ``[base, base + cnt)``), so the lookup reads O(#conversations)
rows per segment and never the turns. At very large delete sets or doc maps,
broadcast the conv set (``ray.put``) and resolve per segment in Ray tasks
instead; the tombstone write path is unchanged.
"""

from __future__ import annotations

import os
from typing import Iterable, Sequence

import numpy as np
import pyarrow as pa

from . import commit
from .compact import purged_ids
from .segment import SegmentReader


def delete_docs(index_dir: str, doc_ids: Sequence[int] | np.ndarray) -> int:
    """Tombstone the given global doc ids. Returns the number of NEWLY
    deleted docs (ids already tombstoned, already purged by a compaction or
    out of range count zero)."""
    ids = np.unique(np.asarray(list(doc_ids), dtype=np.int64))
    if ids.size == 0:
        return 0
    c = commit.read(index_dir)
    tomb = commit.tombstone_name(c)
    segments = []
    newly = 0
    for seg in c["segments"]:
        seg_dir = commit.segment_dir(index_dir, seg.name)
        local = ids[(ids >= seg.lo) & (ids < seg.hi)]
        prev_path = commit.tombstone_path(index_dir, seg)
        prev = np.empty(0, np.int64)
        if local.size:
            local = np.setdiff1d(local, purged_ids(seg_dir))
            if prev_path is not None:
                prev = np.load(prev_path).astype(np.int64, copy=False)
        merged = np.union1d(prev, local)
        if merged.size > prev.size:
            newly += int(merged.size - prev.size)
            np.save(os.path.join(seg_dir, tomb), merged)
            seg = seg._replace(deleted=tomb)
        segments.append(seg)
    if newly:
        commit.publish(index_dir, dict(c, segments=segments))
    return newly


def delete_conversations(index_dir: str, conv_ids: Iterable[str]) -> int:
    """Tombstone every turn of the given conversations. Returns newly deleted
    doc count. Unknown conv_ids are ignored (delete-by-query semantics)."""
    convs = pa.array(sorted(set(conv_ids)), pa.string())
    if not len(convs):
        return 0
    c = commit.read(index_dir)
    doc_ids = [
        SegmentReader(seg_dir).conv_docs(convs)
        for seg, seg_dir in zip(c["segments"], commit.segment_dirs(index_dir, c))
        if seg.hi > seg.lo
    ]
    return delete_docs(index_dir, np.concatenate(doc_ids) if doc_ids else [])
