"""Document deletes via per-segment tombstones (Lucene liveDocs semantics).

``delete_docs`` / ``delete_conversations`` mark docs deleted by writing a
sorted ``deleted.npy`` doc-id array into each affected COMMITTED segment
(atomic replace, idempotent, accumulative). Readers opened afterwards filter
tombstoned docs out of every decoded posting list at the segment read layer,
so they can never appear in results of any query shape — while df / norms /
avgdl statistics intentionally keep counting them until a rewrite, exactly
like Lucene's maxDoc-based stats before a merge: surviving docs' scores are
bit-identical before and after a delete.

Scale note: conversations resolve to doc ids through each segment's doc map
(``convmap.parquet``, one row per conversation: a conversation's turns are the
dense range ``[base, base + cnt)``), so the lookup reads O(#conversations)
rows per segment and never the turns. At very large delete sets or doc maps,
broadcast the conv set (``ray.put``) and resolve per segment in Ray tasks
instead; the tombstone write path is unchanged.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, Sequence

import numpy as np
import pyarrow as pa

from .build import INDEX_META_FILE, MANIFEST_FILE, _segment_dir
from .segment import SegmentReader


def _committed_segments(index_dir: str) -> list:
    with open(os.path.join(index_dir, INDEX_META_FILE)) as f:
        meta = json.load(f)
    out = []
    for s in range(int(meta["num_segments"])):
        seg_dir = _segment_dir(index_dir, s)
        with open(os.path.join(seg_dir, MANIFEST_FILE)) as f:
            manifest = json.load(f)
        if not manifest.get("empty"):
            out.append((seg_dir, manifest))
    return out


def delete_docs(index_dir: str, doc_ids: Sequence[int] | np.ndarray) -> int:
    """Tombstone the given global doc ids. Returns the number of NEWLY
    deleted docs (ids already tombstoned or out of range count zero)."""
    ids = np.unique(np.asarray(list(doc_ids), dtype=np.int64))
    if ids.size == 0:
        return 0
    newly = 0
    for seg_dir, _manifest in _committed_segments(index_dir):
        with open(os.path.join(seg_dir, "stats.json")) as f:
            stats = json.load(f)
        lo = int(stats["doc_base"])
        hi = lo + int(stats["doc_count"])
        local = ids[(ids >= lo) & (ids < hi)]
        if local.size == 0:
            continue
        tomb = os.path.join(seg_dir, "deleted.npy")
        if os.path.exists(tomb):
            prev = np.load(tomb).astype(np.int64, copy=False)
            merged = np.union1d(prev, local)
            newly += int(merged.size - prev.size)
        else:
            merged = local
            newly += int(local.size)
        tmp = tomb + ".tmp"
        with open(tmp, "wb") as fh:
            np.save(fh, merged)
        os.replace(tmp, tomb)
    return newly


def delete_conversations(index_dir: str, conv_ids: Iterable[str]) -> int:
    """Tombstone every turn of the given conversations. Returns newly deleted
    doc count. Unknown conv_ids are ignored (delete-by-query semantics)."""
    convs = pa.array(sorted(set(conv_ids)), pa.string())
    if not len(convs):
        return 0
    doc_ids = [
        SegmentReader(seg_dir).conv_docs(convs)
        for seg_dir, _manifest in _committed_segments(index_dir)
    ]
    return delete_docs(index_dir, np.concatenate(doc_ids) if doc_ids else [])
