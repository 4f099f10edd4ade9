"""The postings writer: one Parquet layout for build, append and compaction.

Term lookups prune at ROW GROUP granularity on the (field, term) min/max
statistics (``SegmentReader._read_postings_rows``), so a row group is the unit
a cold lookup decodes. Groups are cut by payload, not by a fixed row count:

- a group closes at :data:`ROW_GROUP_ROWS` rows, or before a row would push its
  blob payload (the ``docs`` + ``tfs`` + ``pos`` bytes of its blocks) past
  :data:`ROW_GROUP_BYTES`, whichever comes first. A hot row therefore sits
  alone in its group (a lookup of a rare neighbour never decodes it), and rare
  rows pack ``ROW_GROUP_ROWS`` to a group (Parquet framing stays small next to
  the data; see "Why 256 rows" below);
- a group also closes where ``field`` changes, so every group holds one field
  and is term-prunable (the reader cannot prune a group spanning two fields by
  term, so every lookup of either field would read it);
- statistics are written only on ``field`` and ``term`` (the only columns the
  reader prunes on) and dictionary encoding only on ``field``; compression is
  snappy;
- the block metadata is delta-encoded (:data:`COLUMN_ENCODING`): Parquet's
  DELTA_BINARY_PACKED on the eight integer columns (``bucket``, ``df``,
  ``total_tf`` and each block's ``n``, ``max_tf``, ``min_dl``, ``first_doc``,
  ``last_doc`` -- small or sorted values that bit-pack to a few bits each) and
  DELTA_BYTE_ARRAY on the sorted ``term`` column (shared prefixes stored
  once). PLAIN-encoded metadata outweighed the ``docs``/``tfs``/``pos``
  payload itself; the payload blobs stay PLAIN.

Why 256 rows: a row group costs about 2.3 KB of fixed Parquet framing --
about 0.8 KB of footer metadata plus about 1.5 KB of page, delta and
dictionary headers over its 13 column chunks -- while 64 rare rows carry only
about 1.5 KB of ``docs``/``tfs``/``pos`` payload. Rewriting the compacted
seed-1 serve index of the benchmark (3,536 turns) at each cap:

    cap  row groups  B/turn  cold lookup  touched by 200 terms  reader open
    ---  ----------  ------  -----------  --------------------  -----------
     64         209   267.8      1.14 ms                557 KB       5.1 ms
    128         107   203.0      1.08 ms                987 KB       3.5 ms
    256          56   169.3      1.17 ms               1.82 MB       2.7 ms
    512          32   153.1      1.24 ms               3.46 MB       2.5 ms

(one cold lookup of a random ``text`` term through a fresh reader, median of
6 alternating runs on one vCPU; "touched" is the compressed bytes of the row
groups the statistics select). At 256 a cold rare-term lookup decodes a group
of about 9 KB compressed instead of about 2.8 KB, far under one 128 KiB
readahead window, and the per-call floor of about 1.1 ms hides the
difference. 512 saves another 10% of bytes but doubles the bytes touched
again. The byte cap, not the row cap, bounds a group of medium rows, so the
worst-case group is the same at any row cap.

Invariant (checked by the tests): every row group holds at most
``ROW_GROUP_ROWS`` rows of one field, and a group whose payload exceeds
``ROW_GROUP_BYTES`` holds exactly one row. Readers need nothing from the
layout beyond the (field, term) statistics, and Parquet encodings are
self-describing, so older fixed-size-group and PLAIN-encoded indexes still
open; compaction rewrites them in this layout.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
from ray.data import Datasink
from ray.data.block import Block, BlockAccessor

from .codec import seg_parts

#: row cap of one postings row group
ROW_GROUP_ROWS = 256
#: blob payload (docs + tfs + pos bytes) at which a row group closes
ROW_GROUP_BYTES = 64 << 10
#: rows per postings file: the build's cap per file and compaction's target
#: per term range (a cold lookup opens every file's footer, so fewer, larger
#: files avoid per-file open cost; the cap bounds one task's file)
ROWS_PER_FILE = 16384

_PAYLOAD_COLUMNS = ("docs", "tfs", "pos")

#: Parquet encoding of each postings leaf column that is neither dictionary-
#: encoded (``field``) nor a payload blob
COLUMN_ENCODING = {
    "term": "DELTA_BYTE_ARRAY",
    **{c: "DELTA_BINARY_PACKED" for c in (
        "bucket", "df", "total_tf",
        *(f"blocks.list.element.{f}"
          for f in ("n", "max_tf", "min_dl", "first_doc", "last_doc")),
    )},
}


def _blob_bytes(blocks) -> np.ndarray:
    """Per-row blob payload (bytes of every block's ``docs``, ``tfs`` and
    ``pos``) of a ``list<BLOCK_STRUCT>`` column."""
    if isinstance(blocks, pa.ChunkedArray):
        blocks = blocks.combine_chunks()
    offs = np.asarray(blocks.offsets, dtype=np.int64)
    flat = blocks.flatten()
    per_block = np.zeros(len(flat), dtype=np.int64)
    for name in _PAYLOAD_COLUMNS:
        lens = pc.binary_length(flat.field(name)).fill_null(0)
        per_block += lens.to_numpy(zero_copy_only=False)
    cum = np.concatenate(([0], np.cumsum(per_block)))
    offs = offs - offs[0]
    return cum[offs[1:]] - cum[offs[:-1]]


def _row_group_bounds(payload: np.ndarray, breaks: np.ndarray) -> np.ndarray:
    """Row offsets ``[0, ..., n]`` of the row groups for rows with the given
    blob ``payload``: greedy, each group as long as the row and byte caps allow
    (and at least one row), and a new group at every offset in ``breaks``
    (sorted)."""
    n = int(payload.size)
    cum = np.concatenate(([0], np.cumsum(payload, dtype=np.int64)))
    breaks = np.append(np.asarray(breaks, dtype=np.int64), n)
    bounds = [0]
    s = 0
    while s < n:
        fit = int(np.searchsorted(cum, cum[s] + ROW_GROUP_BYTES, side="right")) - 1
        brk = int(breaks[np.searchsorted(breaks, s, side="right")])
        s = min(max(s + 1, min(s + ROW_GROUP_ROWS, fit)), brk)
        bounds.append(s)
    return np.asarray(bounds, dtype=np.int64)


def _field_starts(field) -> np.ndarray:
    """Offsets of the rows whose ``field`` differs from the previous row's."""
    if len(field) < 2:
        return np.empty(0, dtype=np.int64)
    ne = pc.not_equal(field.slice(1), field.slice(0, len(field) - 1))
    return np.flatnonzero(ne.to_numpy(zero_copy_only=False)) + 1


def write_postings_file(table: pa.Table, path: str) -> None:
    """Write postings rows to one Parquet file in the layout above."""
    bounds = _row_group_bounds(
        _blob_bytes(table["blocks"]), _field_starts(table["field"])
    )
    with pq.ParquetWriter(
        path,
        table.schema,
        compression="snappy",
        use_dictionary=["field"],
        write_statistics=["field", "term"],
        column_encoding=COLUMN_ENCODING,
    ) as w:
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            w.write_table(table.slice(lo, hi - lo), row_group_size=hi - lo)


class PostingsSink(Datasink):
    """``Dataset.write_datasink`` target for the postings rows of several
    segments, ``{segment: postings directory}``: every write task writes each
    segment's rows (its ``seg`` column, dropped on write) to
    ``<directory>/part-<task>-<file>.parquet`` through
    :func:`write_postings_file`, at most :data:`ROWS_PER_FILE` rows per file."""

    def __init__(self, paths: Dict[int, str]):
        self.paths = paths

    def on_write_start(self) -> None:
        for path in self.paths.values():
            os.makedirs(path, exist_ok=True)

    def write(self, blocks: Iterable[Block], ctx) -> None:
        tables = [BlockAccessor.for_block(b).to_arrow() for b in blocks]
        tables = [t for t in tables if t.num_rows]
        if not tables:
            return
        schema = pa.unify_schemas([t.schema for t in tables])
        table = pa.concat_tables(
            [t if t.schema.equals(schema) else t.cast(schema) for t in tables]
        )
        for seg, rows in seg_parts(table):
            rows = rows.drop_columns(["seg"])
            for i, lo in enumerate(range(0, rows.num_rows, ROWS_PER_FILE)):
                write_postings_file(
                    rows.slice(lo, ROWS_PER_FILE),
                    os.path.join(self.paths[seg],
                                 f"part-{ctx.task_idx:06d}-{i:06d}.parquet"),
                )
