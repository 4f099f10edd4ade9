"""The index's one commit point, ``index_meta.json``, and the only code that
knows it (Lucene's ``segments_N`` plus ``IndexFileDeleter``).

An index directory holds::

    index_meta.json         # the commit: the one file a write rewrites
    segments/<name>/        # write-once segment directories (segment.py)
        deleted_<gen>.npy   # write-once tombstones: sorted deleted doc ids

The commit (format version 8) is one JSON object: the build settings
(``fields``, ``range_width``, ``analyzer``), three counters —
``total_docs`` (the next doc id), ``next_segment`` (the number of the next
new segment directory) and ``generation`` (bumped by every publish) — and
``segments``, the live segments in doc order, each ``{"name", "docs": [lo,
hi), "deleted": tombstone file name or null}``. In memory ``segments`` is a
list of :class:`Segment`.

Every write (build, append, delete, compact) follows one protocol:

1. :func:`read` the commit;
2. write NEW files only — segment directories named by :func:`segment_name`
   from ``next_segment``, tombstones named by :func:`tombstone_name` — and
   never change a file the commit references;
3. :func:`publish`: one atomic rewrite of ``index_meta.json`` (temp file,
   ``os.replace``), then :func:`sweep`: delete every entry under
   ``segments/`` the new commit does not name, every tombstone it does not
   name, and stray ``*.tmp`` files.

A failure before the ``os.replace`` leaves the previous commit serving (its
files are untouched); after it, the new one. Leftovers of a failed write go
with the next sweep.

Preconditions:

* ONE writer at a time per index. Nothing here locks.
* A reader opens with the tombstone its caller's commit names and pins
  every file it reads (``segment.py``), so an open reader keeps answering
  after a sweep unlinks its files. There is no reference counting: a reader
  opened on a commit after a later write swept it fails to open — the sweep
  removes a directory's ``MANIFEST.json`` first, and a reader checks it is
  still there once it has pinned the rest.

Today's layout is the only one any reader accepts. An index is derived data
that ``build_index`` rebuilds from its input, so an older form — a commit of
another version, a tombstone not named ``deleted_<gen>.npy``, a segment
without its one-file doc map or a field's norms (a file, or a constant in
its ``stats.json``) or with a one-file
``postings.parquet`` (``segment.check_layout``) — is refused at open with :func:`rebuild_error`
rather than read through a fallback (Lucene's ``IndexFormatTooOldException``).
"""

from __future__ import annotations

import json
import os
import re
import shutil
from typing import List, NamedTuple, Optional, Sequence

INDEX_META_FILE = "index_meta.json"
#: bump on storage-layout changes; readers refuse other versions with the
#: rebuild error. v2: norms as reserved-term posting rows; v3: blocks carry
#: exact per-block min_dl for tight BM25 upper bounds (WAND); v4: the commit
#: lists its segments and their tombstone generations; v5: postings rows are
#: stored packed, one varint header and one docs/tfs/pos binary per row
#: instead of a list of block structs (``codec.pack_rows``); v6: norms are
#: stored once, in the ``norms_<field>.npy`` files each segment's writer
#: makes, and the postings hold term rows only; v7: a block's first doc is
#: stored once, in its ``docs`` payload (no ``bucket`` column, no first-doc
#: deltas in the row header), and rows keep no per-row sum of their tfs;
#: v8: a field whose docs all have one length stores that ``norm`` in
#: ``stats.json`` instead of a norms file, a one-posting row stores an empty
#: header (its doc's norm is its block's ``min_dl``), and the ``docs``/
#: ``tfs``/``pos`` payloads are DELTA_LENGTH_BYTE_ARRAY
INDEX_FORMAT_VERSION = 8

_SEGMENTS = "segments"
MANIFEST_FILE = "MANIFEST.json"
_TOMBSTONE = re.compile(r"deleted_\d+\.npy")


class Segment(NamedTuple):
    """One live segment of a commit: its directory name under ``segments/``,
    its doc-id range ``[lo, hi)`` and its tombstone file name (None: no
    deletes)."""

    name: str
    lo: int
    hi: int
    deleted: Optional[str] = None


def exists(index_dir: str) -> bool:
    return os.path.exists(os.path.join(index_dir, INDEX_META_FILE))


def read(index_dir: str) -> dict:
    """The current commit, ``segments`` as :class:`Segment` tuples."""
    with open(os.path.join(index_dir, INDEX_META_FILE)) as f:
        c = json.load(f)
    version = c.get("version")
    if version != INDEX_FORMAT_VERSION:
        raise rebuild_error(index_dir, f"its commit has format version {version}")
    c["segments"] = [
        Segment(s["name"], int(s["docs"][0]), int(s["docs"][1]), s["deleted"])
        for s in c["segments"]
    ]
    for s in c["segments"]:
        if s.deleted is not None and not _is_tombstone(s.deleted):
            raise rebuild_error(
                index_dir, f"its commit names tombstone {s.deleted} of {s.name}"
            )
    return c


def rebuild_error(path: str, what: str) -> ValueError:
    """The one error for an index (or segment) at ``path`` in a form older
    than today's writers produce; ``what`` says which part is old."""
    return ValueError(
        f"{path} is in an older index layout ({what}); this engine reads only "
        f"format version {INDEX_FORMAT_VERSION} as written today: rebuild it "
        "with build_index into an empty directory"
    )


def publish(index_dir: str, c: dict) -> dict:
    """Atomically make ``c`` the index's commit (one generation past the one
    it was read from), then sweep what it no longer references. Returns the
    published commit."""
    c = dict(c, version=INDEX_FORMAT_VERSION, generation=int(c["generation"]) + 1)
    stored = dict(c, segments=[
        {"name": s.name, "docs": [s.lo, s.hi], "deleted": s.deleted}
        for s in c["segments"]
    ])
    path = os.path.join(index_dir, INDEX_META_FILE)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(stored, f, indent=1)
    os.replace(tmp, path)
    sweep(index_dir, c)
    return c


def sweep(index_dir: str, c: dict) -> None:
    """Delete what commit ``c`` does not reference: entries under
    ``segments/`` it does not name, tombstones in its segments other than
    theirs, and stray ``*.tmp`` files."""
    root = os.path.join(index_dir, _SEGMENTS)
    live = {s.name: s.deleted for s in c["segments"]}
    _remove(os.path.join(index_dir, INDEX_META_FILE + ".tmp"))
    for name in os.listdir(root) if os.path.isdir(root) else []:
        path = os.path.join(root, name)
        if name not in live:
            # the completion marker goes first: a reader that finds it
            # still there after pinning the directory read all of it
            _remove(os.path.join(path, MANIFEST_FILE))
            _remove(path)
            continue
        for f in os.listdir(path):
            if f.endswith(".tmp") or (_is_tombstone(f) and f != live[name]):
                _remove(os.path.join(path, f))


def _is_tombstone(name: str) -> bool:
    return _TOMBSTONE.fullmatch(name) is not None


def _remove(path: str) -> None:
    if os.path.isdir(path):
        shutil.rmtree(path, ignore_errors=True)
    else:
        try:
            os.remove(path)
        except FileNotFoundError:
            pass


def segment_name(number: int) -> str:
    """The directory name of new segment ``number`` (from ``next_segment``;
    a build's segments are numbered 0..n-1)."""
    return f"seg-{number:05d}"


def segment_dir(index_dir: str, name: str) -> str:
    return os.path.join(index_dir, _SEGMENTS, name)


def segment_dirs(index_dir: str, c: dict) -> List[str]:
    """The directories of the commit's segments, in doc order."""
    return [segment_dir(index_dir, s.name) for s in c["segments"]]


def tombstone_name(c: dict) -> str:
    """The file name a tombstone written for the commit after ``c`` takes."""
    return f"deleted_{int(c['generation']) + 1}.npy"


def tombstone_path(index_dir: str, seg: Segment) -> Optional[str]:
    """Path of ``seg``'s committed tombstone file, None without deletes."""
    if seg.deleted is None:
        return None
    return os.path.join(segment_dir(index_dir, seg.name), seg.deleted)


def tombstone_paths(seg_dirs: Sequence[str]) -> List[Optional[str]]:
    """The tombstone paths (:func:`tombstone_path`) the CURRENT commit names
    for ``seg_dirs``, for a scorer given directories alone; raises when one
    is not a segment of its index's current commit."""
    segs: dict = {}
    out = []
    for d in map(os.path.abspath, seg_dirs):
        index_dir = os.path.dirname(os.path.dirname(d))
        if index_dir not in segs:
            segs[index_dir] = {s.name: s for s in read(index_dir)["segments"]}
        seg = segs[index_dir].get(os.path.basename(d))
        if seg is None:
            raise ValueError(f"{d} is not a segment of the current commit")
        out.append(tombstone_path(index_dir, seg))
    return out
